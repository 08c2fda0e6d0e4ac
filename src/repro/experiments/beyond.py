"""Beyond the paper — ablations of Cottage's knobs and extensions around it.

Nine orderings the paper does not report, each judged by one ``beyond.*``
claim in the claims table (``scoreboard``): boosting, the stage-2 budget
bar, the cut-confidence gate, the latency-bin count, ISN failures, offered
load, the oracle gap, an aggregator result cache and the paired-bootstrap
significance of the Fig. 10 savings.  Everything runs on the simulated
clock over the Wikipedia trace (the latency-bin sweep on ISN 0's training
split from ``testbed.training_report``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cache import ResultCache
from repro.cluster.faults import FaultSchedule, Outage
from repro.core.cottage import CottagePolicy
from repro.experiments.testbed import Testbed
from repro.metrics.significance import BootstrapResult, compare_latencies
from repro.metrics.summary import PolicySummary, summarize_run
from repro.policies.oracle import OraclePolicy
from repro.predictors.latency import LatencyBinning, LatencyPredictor
from repro.workloads.traces import TraceConfig, generate_trace

CONFIDENCES = (0.0, 0.5, 0.9, 0.99)
LATENCY_BINS = (8, 16, 24, 40)
LOAD_FACTORS = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class BeyondResult:
    boost: dict[str, PolicySummary]  # "with" / "without"
    budget_rule: dict[str, PolicySummary]  # "paper" / "conservative" / "no_slack"
    confidence: dict[float, PolicySummary]  # cut_confidence -> summary
    latency_bins: dict[int, tuple[float, float]]  # bins -> (accuracy, median rel. error)
    dead_isns: list[int]
    #: policy -> (mean ms before the outage, mean ms after, P@10 after)
    faults: dict[str, tuple[float, float, float]]
    load: dict[float, tuple[float, float]]  # qps -> (exhaustive ms, cottage ms)
    oracle: dict[str, PolicySummary]  # "exhaustive" / "cottage" / "oracle"
    cache_hit_rate: float
    cache: dict[str, PolicySummary]  # "plain" / "cached"
    significance: dict[str, BootstrapResult]  # policy -> saving vs exhaustive
    n_shards: int

    @property
    def load_gaps(self) -> list[float]:
        return [ex / co for ex, co in self.load.values()]

    @property
    def oracle_capture(self) -> float:
        """Share of the oracle's mean-latency gain over exhaustive Cottage realizes."""
        ex, co, orc = (self.oracle[name].avg_latency_ms
                       for name in ("exhaustive", "cottage", "oracle"))
        return (ex - co) / max(ex - orc, 1e-9)


def _cottage(testbed: Testbed, **knobs: object) -> PolicySummary:
    trace = testbed.wikipedia_trace
    policy = CottagePolicy(testbed.bank, network=testbed.cluster.network, **knobs)
    run = testbed.cluster.run_trace(trace, policy)
    return summarize_run(run, testbed.truth_for(trace), trace.name)


def _latency_bins(testbed: Testbed) -> dict[int, tuple[float, float]]:
    train, test = testbed.training_report.latency_data[0]
    rows = {}
    for n_bins in LATENCY_BINS:
        model = LatencyPredictor(LatencyBinning.logarithmic(n_bins=n_bins), seed=0)
        model.fit(train.features, train.service_ms,
                  iterations=testbed.scale.latency_iterations)
        predicted = model.predict_service_ms(test.features)
        rel_err = np.abs(predicted - test.service_ms) / np.maximum(test.service_ms, 0.1)
        rows[n_bins] = (model.accuracy(test.features, test.service_ms),
                        float(np.median(rel_err)))
    return rows


def _faults(testbed: Testbed, dead: list[int]) -> dict[str, tuple[float, float, float]]:
    """A quarter of the ISNs die at mid-trace; exhaustive leans on a 150 ms timeout."""
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    half = trace.duration * 1000.0 / 2
    faults = FaultSchedule(outages=[Outage(sid, half, 1e12) for sid in dead])
    runs = {
        "exhaustive+timeout": testbed.cluster.run_trace(
            trace, testbed.make_policy("exhaustive"), faults=faults,
            response_timeout_ms=150.0,
        ),
        "cottage": testbed.cluster.run_trace(
            trace, testbed.make_policy("cottage"), faults=faults
        ),
    }
    rows = {}
    for name, run in runs.items():
        before = [r for r in run.records if r.arrival_ms < half]
        after = [r for r in run.records if r.arrival_ms >= half]
        rows[name] = (
            float(np.mean([r.latency_ms for r in before])),
            float(np.mean([r.latency_ms for r in after])),
            float(np.mean([truth.precision(r.query, r.result.doc_ids()) for r in after])),
        )
    return rows


def _load(testbed: Testbed) -> dict[float, tuple[float, float]]:
    scale = testbed.scale
    rows = {}
    for factor in LOAD_FACTORS:
        rate = scale.trace_rate_qps * factor
        trace = generate_trace(testbed.corpus, TraceConfig(
            flavour="wikipedia", n_distinct_queries=scale.trace_distinct,
            duration_s=min(scale.trace_duration_s, 20.0), arrival_rate_qps=rate,
            seed=scale.seed + 11,
        ))
        ex, co = (
            summarize_run(testbed.cluster.run_trace(trace, testbed.make_policy(policy)),
                          testbed.truth_for(trace)).avg_latency_ms
            for policy in ("exhaustive", "cottage")
        )
        rows[rate] = (ex, co)
    return rows


def run(testbed: Testbed) -> BeyondResult:
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    cottage = testbed.summarize(trace, "cottage")
    exhaustive = testbed.summarize(trace, "exhaustive")
    dead = list(range(0, testbed.cluster.n_shards, 4))
    cache = ResultCache(capacity=256)
    cached_run = testbed.cluster.run_trace(trace, testbed.make_policy("cottage"),
                                           cache=cache)
    baseline = testbed.run(trace, "exhaustive")
    return BeyondResult(
        boost={"with": cottage, "without": _cottage(testbed, enable_boost=False)},
        budget_rule={
            "paper": cottage,
            "conservative": _cottage(testbed, pivot_on_full_k=True),
            "no_slack": _cottage(testbed, budget_slack=1.0),
        },
        confidence={
            c: _cottage(testbed, cut_confidence=c, half_cut_confidence=min(c, 0.75))
            for c in CONFIDENCES
        },
        latency_bins=_latency_bins(testbed),
        dead_isns=dead,
        faults=_faults(testbed, dead),
        load=_load(testbed),
        oracle={
            "exhaustive": exhaustive,
            "cottage": cottage,
            "oracle": summarize_run(testbed.cluster.run_trace(
                trace, OraclePolicy(testbed.cluster, truth)), truth, trace.name),
        },
        cache_hit_rate=cached_run.cache_stats.hit_rate,
        cache={"plain": cottage, "cached": summarize_run(cached_run, truth, trace.name)},
        significance={
            policy: compare_latencies(baseline, testbed.run(trace, policy))
            for policy in ("taily", "rank_s", "cottage")
        },
        n_shards=testbed.cluster.n_shards,
    )


def _summary_rows(rows: dict, head: str = "") -> list[str]:
    out = [f"  {head:<22} avg_ms   p95_ms   P@10   ISNs    C_RES  power_W"]
    for name, s in rows.items():
        out.append(
            f"  {name!s:<22} {s.avg_latency_ms:6.2f}  {s.p95_latency_ms:7.2f}"
            f"  {s.avg_precision:.3f}  {s.avg_selected_isns:5.2f}"
            f"  {s.avg_docs_searched:7.1f}  {s.avg_power_w:7.2f}"
        )
    return out


def format_report(result: BeyondResult) -> str:
    lines = ["Beyond the paper — ablations and extensions (Wikipedia trace)"]
    lines += ["[boost]"] + _summary_rows(result.boost)
    lines += ["[stage-2 budget bar]"] + _summary_rows(result.budget_rule)
    lines += ["[cut-confidence gate]"] + _summary_rows(result.confidence, "confidence")
    lines += ["[latency bins, ISN 0 held out]", "  bins  ±1-bin accuracy  median rel. error"]
    lines += [f"  {n:<5} {acc:.3f}            {err:.3f}"
              for n, (acc, err) in result.latency_bins.items()]
    lines.append(f"[ISNs {result.dead_isns} die at mid-trace]")
    lines += [f"  {name:<20} latency before/after: {b:6.2f} / {a:6.2f} ms  P@10 after: {p:.3f}"
              for name, (b, a, p) in result.faults.items()]
    lines += ["[offered load]", "     qps  exhaustive  cottage    gap"]
    lines += [f"  {rate:6.1f}  {ex:10.2f}  {co:7.2f}  {ex / co:5.2f}x"
              for rate, (ex, co) in result.load.items()]
    lines += ["[oracle gap]"] + _summary_rows(result.oracle)
    lines.append(f"  latency-gap capture: {result.oracle_capture:.0%}")
    lines.append(f"[result cache, 256 entries; hit rate {result.cache_hit_rate:.1%}]")
    lines += _summary_rows(result.cache)
    lines.append("[paired-bootstrap mean latency saving vs exhaustive]")
    lines += [f"  {policy:<8} {r.mean_difference:6.2f} ms  95% CI [{r.ci_low:6.2f}, "
              f"{r.ci_high:6.2f}]" for policy, r in result.significance.items()]
    return "\n".join(lines)
