"""Resident memory of ``replay_closed``'s set-up, stage by stage.

    python docs/bench/rss_stages.py [--seed N] [--unit]

Runs the public build steps of the benchmark's ``replay_closed`` set-up
(``bench/simulated.py``: ``TestbedWorkload.build_testbed`` then
``ReplayClosed.setup``) one at a time in this process, and after each
prints the process's current resident set (``VmRSS``), its peak
(``ru_maxrss``) and the peak of any child that has exited
(``RUSAGE_CHILDREN``: the fit workers of ``bank.train``), all in MiB.
BLAS is pinned to one thread before numpy loads, as the benchmark does.
``--seed`` offsets every seed the way ``bench/run.py --seed`` does;
``--unit`` builds ``Scale.unit`` instead of ``Scale.small``.  Linux only.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
from dataclasses import replace
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def vm_rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def peak_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


class Stages:
    """Prints one row per stage: current, peak and children's peak RSS."""

    def __init__(self) -> None:
        self.last = vm_rss_mib()
        print(f"{'stage':<40} {'cur':>8} {'Δcur':>8} {'peak':>8} {'children':>9}")

    def row(self, stage: str) -> None:
        cur = vm_rss_mib()
        print(
            f"{stage:<40} {cur:8.1f} {cur - self.last:+8.1f} "
            f"{peak_mib(resource.RUSAGE_SELF):8.1f} "
            f"{peak_mib(resource.RUSAGE_CHILDREN):9.1f}",
            flush=True,
        )
        self.last = cur


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--unit", action="store_true", help="Scale.unit, not small")
    args = parser.parse_args()

    stages = Stages()
    stages.row("interpreter start")

    from repro.cluster.engine import SearchCluster
    from repro.experiments.testbed import Scale, Testbed
    from repro.index import CentralSampleIndex, build_shards, partition_topical
    from repro.metrics.summary import summarize_run
    from repro.predictors.bank import PredictorBank
    from repro.predictors.gamma_quality import TailyQualityEstimator
    from repro.retrieval import SerialExecutor
    from repro.text.analyzer import WhitespaceAnalyzer
    from repro.workloads.corpus import SyntheticCorpus
    from repro.workloads.traces import TraceConfig, generate_trace, training_queries

    stages.row("imports (repro)")

    base = Scale.unit() if args.unit else Scale.small()
    scale = replace(
        base, seed=args.seed, corpus=replace(base.corpus, seed=base.corpus.seed + args.seed)
    )
    corpus = SyntheticCorpus(scale.corpus)
    stages.row("corpus")

    analyzer = WhitespaceAnalyzer()
    groups = partition_topical(corpus.documents, scale.n_shards, seed=scale.seed)
    shards = build_shards(groups, analyzer=analyzer)
    stages.row(f"{scale.n_shards} shards built")

    cluster = SearchCluster(shards, k=scale.k, executor=SerialExecutor())
    bank = PredictorBank(cluster, k=scale.k, seed=scale.seed)
    stages.row("PredictorBank(...)")

    queries = training_queries(corpus, scale.n_training_queries, seed=scale.seed + 1000)
    report = bank.train(
        queries,
        quality_iterations=scale.quality_iterations,
        latency_iterations=scale.latency_iterations,
        seed=scale.seed,
    )
    stages.row("bank.train")

    csi = CentralSampleIndex.build(
        groups, sample_rate=0.01, seed=scale.seed, analyzer=analyzer
    )
    estimator = TailyQualityEstimator(bank.stats_indexes)
    wikipedia, lucene = (
        generate_trace(
            corpus,
            TraceConfig(
                flavour=flavour,
                n_distinct_queries=scale.trace_distinct,
                duration_s=scale.trace_duration_s,
                arrival_rate_qps=scale.trace_rate_qps,
                seed=scale.seed + offset,
            ),
        )
        for flavour, offset in (("wikipedia", 11), ("lucene", 23))
    )
    testbed = Testbed(
        scale=scale, corpus=corpus, cluster=cluster, bank=bank,
        training_report=report, csi=csi, taily_estimator=estimator,
        wikipedia_trace=wikipedia, lucene_trace=lucene,
    )
    stages.row("CSI, Taily, two traces")

    cold = [
        cluster.run_trace(trace, testbed.make_policy("cottage"))
        for trace in (wikipedia, lucene)
    ]
    stages.row("cold pass (both traces, cottage)")

    summarize_run(cold[0], testbed.truth_for(wikipedia), trace_name=wikipedia.name)
    stages.row("truth + summary")


if __name__ == "__main__":
    main()
