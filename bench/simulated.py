"""``replay_closed`` and ``serve_burst``: the simulated cluster on hot memos.

Both build the ``Scale.small()`` testbed from its public build steps and
then time only the event loop: every retrieval and every prediction the
measured phase needs was computed in set-up, and the ``cache_state`` check
fails the run if a measured unit computes one.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import Any

from bench.inputs import testbed_scale
from bench.spans import NameTotals, Recorder
from bench.workload import (
    Check,
    Phase,
    Workload,
    busy,
    digest,
    metric,
    ratio,
    spread,
    time_up,
)
from repro.cluster.engine import RunResult, SearchCluster
from repro.core.cottage import CottagePolicy
from repro.experiments.testbed import Scale, Testbed
from repro.index import CentralSampleIndex, build_shards, partition_topical
from repro.metrics.summary import summarize_run
from repro.nn.model import Sequential
from repro.predictors.bank import PredictorBank
from repro.predictors.gamma_quality import TailyQualityEstimator
from repro.retrieval import DistributedSearcher, SerialExecutor, ShardSearcher
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    QueryStream,
    make_arrivals,
    model_from_policy,
    pool_from_corpus,
    zipf_weights,
)
from repro.serving.orchestrator import ServingStats
from repro.telemetry import Telemetry
from repro.text.analyzer import WhitespaceAnalyzer
from repro.workloads.corpus import SyntheticCorpus
from repro.workloads.traces import TraceConfig, generate_trace, training_queries


def run_digest(run: RunResult) -> str:
    """Order-sensitive identity of a closed-loop run: records + power."""
    lines = [repr(run.power)]
    for record in run.records:
        lines.append(
            f"{record.query.query_id}|{record.latency_ms!r}|"
            f"{record.result.fingerprint()}"
        )
    return digest(lines)


POPULARITY_EXPONENT = 0.9


class DecisionCounts:
    """Counts taken from each ``Decision`` the policy returns."""

    def __init__(self) -> None:
        self.decisions = self.selected = self.boosted = self.budgeted = 0

    def add(self, decision: Any) -> None:
        self.decisions += 1
        self.selected += len(decision.shard_ids)
        self.boosted += len(decision.frequency_overrides)
        self.budgeted += decision.time_budget_ms is not None


def cache_state_check(computed: int, operations: int) -> Check:
    """The measured phase ran on hot memos only: it computed no retrieval."""
    return Check(
        "cache_state", operations, operations if computed else 0,
        f"{computed} retrievals computed in the measured phase (must be 0)",
    )


class TestbedWorkload(Workload):
    """Shared set-up: the public build steps of ``Testbed.build``, spanned."""

    __test__ = False  # not a pytest class despite the name

    def build_testbed(self, rec: Recorder) -> None:
        scale: Scale = testbed_scale(self.seed, self.sizes["scale"] == "unit")
        with rec.span("workloads.corpus"):
            corpus = SyntheticCorpus(scale.corpus)
        analyzer = WhitespaceAnalyzer()
        with rec.span("index.build_shards"):
            groups = partition_topical(corpus.documents, scale.n_shards, seed=scale.seed)
            shards = build_shards(groups, analyzer=analyzer)
        cluster = SearchCluster(shards, k=scale.k, executor=SerialExecutor())
        bank = PredictorBank(cluster, k=scale.k, seed=scale.seed)
        queries = training_queries(
            corpus, scale.n_training_queries, seed=scale.seed + 1000
        )
        with rec.span("predictors.train"):
            report = bank.train(
                queries,
                quality_iterations=scale.quality_iterations,
                latency_iterations=scale.latency_iterations,
                seed=scale.seed,
            )
        with rec.span("index.csi_build"):
            csi = CentralSampleIndex.build(
                groups, sample_rate=0.01, seed=scale.seed, analyzer=analyzer
            )
        estimator = TailyQualityEstimator(bank.stats_indexes)
        with rec.span("workloads.trace_gen"):
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
        self.scale = scale
        self.testbed = Testbed(
            scale=scale, corpus=corpus, cluster=cluster, bank=bank,
            training_report=report, csi=csi, taily_estimator=estimator,
            wikipedia_trace=wikipedia, lucene_trace=lucene,
        )
        self.cluster = cluster
        self.docs_indexed = sum(shard.n_docs for shard in shards)
        self.postings_built = sum(shard.arena.n_postings for shard in shards)

    def sizes_used(self) -> dict[str, Any]:
        testbed = self.testbed
        return {
            **self.sizes,
            "n_shards": self.cluster.n_shards,
            "docs_indexed": self.docs_indexed,
            "postings_built": self.postings_built,
            "training_queries": self.scale.n_training_queries,
            "wikipedia_queries": len(testbed.wikipedia_trace),
            "lucene_queries": len(testbed.lucene_trace),
            "distinct_prewarmed": self.prewarm_queries,
        }

    def install(self, rec: Recorder) -> None:
        units = iter(range(1 << 30))
        self.decisions = DecisionCounts()
        for entry in ("run_trace", "serve"):
            rec.patch(SearchCluster, entry, "cluster.run", op_of=lambda *_: next(units))
        rec.patch(ShardSearcher, "search", "retrieval.shard_search", leaf=True)
        rec.patch(DistributedSearcher, "search", "retrieval.search")
        rec.patch(Sequential, "fit", "nn.fit", leaf=True)
        rec.patch(CottagePolicy, "prewarm", "predictors.prewarm")
        rec.patch(
            CottagePolicy, "decide", "core.decide",
            op_of=lambda _, query, __: query.query_id, on_result=self.decisions.add,
        )
        rec.patch(CottagePolicy, "observe", "core.observe", leaf=True)
        for entry in ("admit", "on_admit", "on_finalize"):
            rec.patch(AdmissionController, entry, f"serving.admission.{entry}", leaf=True)
        rec.patch(ServingStats, "observe", "serving.stats_sink", leaf=True)
        rec.patch_iter(QueryStream, "serving.stream")

    def memo_totals(self) -> tuple[int, int]:
        stats = self.cluster.searcher_cache_stats()
        return sum(s.hits for s in stats), sum(s.computations for s in stats)

    def note_run(self, phase: Phase, memo_before: tuple[int, int], last: RunResult) -> None:
        """Counts of the measured phase that the last run stands for."""
        hits, computations = self.memo_totals()
        phase.data.update(
            memo_hits=hits - memo_before[0],
            memo_computations=computations - memo_before[1],
            wasted_work=last.wasted_work_ratio,
            clamped=last.clamped_schedules,
            decode=(last.decode_hits, last.decode_misses, last.decode_evictions),
            shed_queue_depth=last.shed_queue_depth,
            shed_deadline=last.shed_deadline,
        )

    def build_layers(self, setup: dict[str, NameTotals]) -> dict[str, dict[str, Any]]:
        """Per-layer metrics of the testbed build (set-up side)."""
        train = busy(setup, "predictors.train")
        fit = busy(setup, "nn.fit")
        prewarm = busy(setup, "predictors.prewarm")
        report = self.testbed.training_report
        pairs = self.prewarm_queries * self.cluster.n_shards
        return {
            "workloads.corpus_s": metric(busy(setup, "workloads.corpus").busy_s, "s"),
            "workloads.trace_gen_s": metric(
                busy(setup, "workloads.trace_gen").busy_s, "s"
            ),
            "index.build_shards_s": metric(
                busy(setup, "index.build_shards").busy_s, "s"
            ),
            "index.docs_indexed": metric(self.docs_indexed, "count"),
            "index.postings_built": metric(self.postings_built, "count"),
            "index.csi_build_s": metric(busy(setup, "index.csi_build").busy_s, "s"),
            "predictors.train_s": metric(train.busy_s, "s"),
            "nn.fit_s": metric(fit.busy_s, "s"),
            "nn.fit_calls": metric(fit.count, "count"),
            "predictors.dataset_s": metric(
                train.busy_s - fit.busy_s, "s", train_s=train.busy_s, fit_s=fit.busy_s
            ),
            "predictors.quality_accuracy": metric(
                report.mean_quality_accuracy, "ratio", n=len(report.quality_accuracy)
            ),
            "predictors.latency_accuracy": metric(
                report.mean_latency_accuracy, "ratio", n=len(report.latency_accuracy)
            ),
            # Every policy prewarm of the set-up; only the first per query
            # set is cold (feature tensors + fused inference).
            "predictors.prewarm_s": metric(prewarm.busy_s, "s", calls=prewarm.count),
            "predictors.prewarm_queries": metric(self.prewarm_queries, "count"),
            "predictors.us_per_query_shard": ratio(prewarm.busy_s * 1e6, pairs, "us"),
        }

    def cluster_layers(
        self, measured: dict[str, NameTotals], traced: Phase, queries_per_unit: int
    ) -> dict[str, dict[str, Any]]:
        """Per-layer metrics of the measured event loop, per unit."""
        units = len(traced.unit_walls)
        data = traced.data
        decide = busy(measured, "core.decide")
        shard = busy(measured, "retrieval.shard_search")
        loop = busy(measured, "cluster.run")
        stream = busy(measured, "serving.stream")
        admission = [
            busy(measured, f"serving.admission.{entry}")
            for entry in ("admit", "on_admit", "on_finalize")
        ]
        counts = self.decisions
        events = data["events"]
        hits, computations = data["memo_hits"], data["memo_computations"]
        decode_hits, decode_misses, decode_evictions = data["decode"]
        return {
            "retrieval.shard_search_s": metric(shard.busy_s / units, "s"),
            "retrieval.shard_searches": metric(shard.count // units, "count"),
            "retrieval.memo_hit_share": ratio(hits, hits + computations),
            "retrieval.memo_computations": metric(computations, "count"),
            "core.decide_s": metric(decide.busy_s / units, "s"),
            "core.decide_calls": metric(decide.count // units, "count"),
            "core.us_per_decide": ratio(decide.busy_s * 1e6, decide.count, "us"),
            "core.observe_s": metric(busy(measured, "core.observe").busy_s / units, "s"),
            "core.selected_share": ratio(
                counts.selected, counts.decisions * self.cluster.n_shards
            ),
            "core.boosted_share": ratio(counts.boosted, counts.selected),
            "core.budgeted_share": ratio(counts.budgeted, counts.decisions),
            # Wall time of the run minus every wrapped call inside it:
            # obtained by subtraction, not measured directly.
            "cluster.loop_self_s": metric(loop.self_s / units, "s", by="subtraction"),
            "cluster.events": metric(events, "count"),
            "cluster.events_per_query": ratio(events, queries_per_unit, "count"),
            "cluster.us_per_event": ratio(loop.self_s * 1e6, events * units, "us"),
            "cluster.wasted_work_share": metric(data["wasted_work"], "ratio"),
            "cluster.clamped_schedules": metric(data["clamped"], "count"),
            "index.decode_hits": metric(decode_hits, "count"),
            "index.decode_misses": metric(decode_misses, "count"),
            "index.decode_evictions": metric(decode_evictions, "count"),
            "index.decode_hit_share": ratio(decode_hits, decode_hits + decode_misses),
            "serving.stream_s": metric(stream.busy_s / units, "s"),
            # One next() per arrival plus the one that ends the stream.
            "serving.arrivals": metric(max(stream.count // units - 1, 0), "count"),
            "serving.us_per_arrival": ratio(stream.busy_s * 1e6, stream.count, "us"),
            "serving.admission_s": metric(
                sum(entry.busy_s for entry in admission) / units, "s"
            ),
            "serving.admitted": metric(admission[1].count // units, "count"),
            "serving.shed_queue_depth": metric(data["shed_queue_depth"], "count"),
            "serving.shed_deadline": metric(data["shed_deadline"], "count"),
            "serving.stats_sink_s": metric(
                busy(measured, "serving.stats_sink").busy_s / units, "s"
            ),
        }


class ReplayClosed(TestbedWorkload):
    """Closed-loop replay of both traces against hot memos."""

    name = "replay_closed"

    def setup(self, rec: Recorder) -> None:
        self.build_testbed(rec)
        testbed = self.testbed
        self.traces = [testbed.wikipedia_trace, testbed.lucene_trace]
        self.lengths = {trace.name: len(trace) for trace in self.traces}
        self.prewarm_queries = len(
            {query.terms for trace in self.traces for query in trace}
        )
        # Cold pass: first-touch retrieval and the policy's first prewarm.
        # Its runs are the reference every timed replay must reproduce.
        cold_first = rec.mark()
        cold = [
            self.cluster.run_trace(trace, testbed.make_policy("cottage"))
            for trace in self.traces
        ]
        self.cold_spans = (cold_first, rec.mark())
        self.reference = {
            trace.name: (len(run.records), run_digest(run), run.events_processed)
            for trace, run in zip(self.traces, cold)
        }
        wikipedia = self.traces[0]
        with rec.span("metrics.truth"):
            truth = testbed.truth_for(wikipedia)
        with rec.span("metrics.summarize"):
            self.summary = summarize_run(cold[0], truth, trace_name=wikipedia.name)

    def measure(self, seconds: float) -> Phase:
        phase = Phase(data={"walls": {name: [] for name in self.lengths}, "runs": []})
        memo_before = self.memo_totals()
        started = perf_counter()
        while not time_up(len(phase.unit_walls), self.sizes["min_units"], started, seconds):
            unit_wall = 0.0
            for trace in self.traces:
                policy = self.testbed.make_policy("cottage")
                run = None  # free the previous replay's records outside the timing
                gc.collect()  # every replay starts from the same collector state
                t0 = perf_counter()
                run = self.cluster.run_trace(trace, policy)
                wall = perf_counter() - t0
                unit_wall += wall
                phase.data["walls"][trace.name].append(wall)
                # Untimed: reduce the run to what the checks compare.
                phase.data["runs"].append(
                    (trace.name, len(run.records), run_digest(run), run.events_processed)
                )
            phase.unit_walls.append(unit_wall)
        phase.data["events"] = sum(events for _, _, events in self.reference.values())
        self.note_run(phase, memo_before, run)
        return phase

    def operations(self, phase: Phase) -> int:
        return sum(self.lengths[name] for name, *_ in phase.data["runs"])

    def unit_seconds(self, phase: Phase) -> float:
        # Replays of one trace are identical work: each trace's median wall
        # over the rounds.  (The two traces replay at different speeds, so
        # their samples are never pooled.)
        return sum(statistics.median(walls) for walls in phase.data["walls"].values())

    def checks(self, phase: Phase) -> list[Check]:
        return [
            replay_identity_check(phase.data["runs"], self.reference),
            cache_state_check(phase.data["memo_computations"], self.operations(phase)),
        ]

    def exact(self, phase: Phase) -> dict[str, Any]:
        summary = self.summary
        return {
            "sim_mean_ms": summary.avg_latency_ms,
            "sim_p99_ms": summary.p99_latency_ms,
            "sim_power_w": summary.avg_power_w,
            "sim_p_at_10": summary.avg_precision,
            "cluster.events": phase.data["events"],
            "runs": sorted(set(phase.data["runs"])),
        }

    def end_to_end(self, phase: Phase) -> dict[str, dict[str, Any]]:
        n_queries = sum(self.lengths.values())
        by_round = spread([n_queries / wall for wall in phase.unit_walls], "1/s")
        summary = self.summary
        n = summary.n_queries
        return {
            "wall_qps": metric(
                n_queries / self.unit_seconds(phase), "1/s", n=len(phase.unit_walls),
                q1=by_round["q1"], q3=by_round["q3"],
            ),
            "sim_mean_ms": metric(summary.avg_latency_ms, "ms", n=n),
            "sim_p99_ms": metric(summary.p99_latency_ms, "ms", n=n, beyond=n // 100),
            "sim_power_w": metric(summary.avg_power_w, "W"),
            "sim_p_at_10": metric(summary.avg_precision, "ratio", n=n),
        }

    def layers(self, rec, setup, measured, untraced, traced):
        out = self.build_layers(setup)
        out.update(self.cluster_layers(measured, traced, sum(self.lengths.values())))
        cold = rec.totals(*self.cold_spans)
        out["retrieval.first_touch_s"] = metric(
            busy(cold, "retrieval.shard_search").busy_s, "s",
            searches=busy(cold, "retrieval.shard_search").count,
        )
        out["metrics.truth_s"] = metric(busy(setup, "metrics.truth").busy_s, "s")
        out["metrics.summarize_s"] = metric(busy(setup, "metrics.summarize").busy_s, "s")
        out.update(self.telemetry_probe(untraced))
        return out

    def telemetry_probe(self, untraced: Phase) -> dict[str, dict[str, Any]]:
        """What switching the built-in telemetry on costs: one extra
        wikipedia replay with a live session against the untraced median."""
        trace = self.traces[0]
        telemetry = Telemetry()
        policy = self.testbed.make_policy("cottage")
        gc.collect()
        t0 = perf_counter()
        self.cluster.run_trace(trace, policy, telemetry=telemetry)
        wall = perf_counter() - t0
        base = statistics.median(untraced.data["walls"][trace.name])
        return {
            "telemetry.enabled_overhead_share": ratio(wall - base, base),
            "telemetry.spans": metric(len(telemetry.tracer.spans), "count"),
        }


def replay_identity_check(
    runs: list[tuple[str, int, str, int]],
    reference: dict[str, tuple[int, str, int]],
) -> Check:
    """Every timed replay reproduces its trace's first (cold) replay: record
    count = trace length, and query ids, latency ``repr``, result fingerprints,
    power ``repr`` and event count all equal."""
    attempted = failed = 0
    for name, *outcome in runs:
        n_queries = reference[name][0]
        attempted += n_queries
        if tuple(outcome) != reference[name]:
            failed += n_queries
    return Check(
        "replay_identity", attempted, failed,
        "records, latencies, results, power and events equal the first replay's",
    )


class ServeBurst(TestbedWorkload):
    """Open-loop bursty serving with admission control and streaming stats."""

    name = "serve_burst"

    def setup(self, rec: Recorder) -> None:
        self.build_testbed(rec)
        self.pool = pool_from_corpus(
            self.testbed.corpus, self.sizes["pool"], seed=self.scale.seed + 11
        )
        self.prewarm_queries = len(self.pool)
        # The offered rate is pinned relative to the knee, not in q/s: the
        # cluster's capacity depends on the seed's corpus, and the workload
        # is defined by bursts that cross the knee while the mean does not.
        self.saturation_qps = model_from_policy(
            self.cluster, self.pool,
            zipf_weights(len(self.pool), POPULARITY_EXPONENT).tolist(),
            self.testbed.make_policy("cottage"),
        ).saturation_qps()
        self.rate_qps = self.sizes["load_factor"] * self.saturation_qps
        # Warm every memo a measured segment can touch: all (query, shard)
        # retrievals of the pool, then a short serve for the predictions.
        self.cluster.prewarm_trace(self.stream(1).distinct_queries())
        self.serve(self.sizes["warmup_queries"])

    def sizes_used(self) -> dict[str, Any]:
        return {
            **super().sizes_used(),
            "model_saturation_qps": self.saturation_qps,
            "offered_rate_qps": self.rate_qps,
        }

    def stream(self, n_queries: int) -> QueryStream:
        return QueryStream(
            self.pool,
            make_arrivals("burst", self.rate_qps, seed=self.seed),
            popularity_exponent=POPULARITY_EXPONENT,
            seed=self.seed,
            max_queries=n_queries,
        )

    def serve(self, n_queries: int) -> tuple[float, RunResult]:
        stream = self.stream(n_queries)
        policy = self.testbed.make_policy("cottage")
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=self.sizes["max_in_flight"])
        )
        gc.collect()  # every segment starts from the same collector state
        t0 = perf_counter()
        run = self.cluster.serve(
            stream, policy, admission=admission, retain_records=False
        )
        return perf_counter() - t0, run

    def measure(self, seconds: float) -> Phase:
        phase = Phase(data={"segments": []})
        memo_before = self.memo_totals()
        started = perf_counter()
        while not time_up(len(phase.unit_walls), self.sizes["min_units"], started, seconds):
            wall, run = self.serve(self.sizes["segment_queries"])
            phase.unit_walls.append(wall)
            phase.data["segments"].append(serve_outcome(run))
        phase.data["events"] = run.events_processed
        self.note_run(phase, memo_before, run)
        return phase

    def operations(self, phase: Phase) -> int:
        return len(phase.data["segments"]) * self.sizes["segment_queries"]

    def checks(self, phase: Phase) -> list[Check]:
        return [
            serve_accounting_check(phase.data["segments"], self.sizes["segment_queries"]),
            cache_state_check(phase.data["memo_computations"], self.operations(phase)),
        ]

    def exact(self, phase: Phase) -> dict[str, Any]:
        first = phase.data["segments"][0]
        return {
            "sim_mean_ms": first["mean_ms"], "sim_p99_ms": first["p99_ms"],
            "sim_power_w": first["power_w"], "sim_goodput_qps": first["goodput_qps"],
            "sim_shed_share": first["shed"] / first["offered"],
            "cluster.events": first["events"],
        }

    def end_to_end(self, phase: Phase) -> dict[str, dict[str, Any]]:
        n_queries = self.sizes["segment_queries"]
        first = phase.data["segments"][0]
        completed = first["completed"]
        return {
            "wall_qps": spread([n_queries / wall for wall in phase.unit_walls], "1/s"),
            "sim_mean_ms": metric(first["mean_ms"], "ms", n=completed),
            "sim_p99_ms": metric(
                first["p99_ms"], "ms", n=completed, beyond=completed // 100
            ),
            "sim_power_w": metric(first["power_w"], "W"),
            "sim_goodput_qps": metric(
                first["goodput_qps"], "1/s", num=completed,
                den=first["elapsed_ms"] / 1000.0,
            ),
            "sim_shed_share": ratio(first["shed"], first["offered"]),
        }

    def layers(self, rec, setup, measured, untraced, traced):
        out = self.build_layers(setup)
        out.update(self.cluster_layers(measured, traced, self.sizes["segment_queries"]))
        return out


def serve_outcome(run: RunResult) -> dict[str, Any]:
    """The simulated-clock outcome of one ``serve`` call."""
    stats = run.serving
    assert stats is not None, "serve ran without its streaming sink"
    return {
        "offered": run.offered_queries, "admitted": run.admitted_queries,
        "shed": run.shed_queries, "completed": stats.completed,
        "sink_shed": stats.shed,
        "mean_ms": stats.mean_latency_ms, "p99_ms": stats.percentile_ms(99),
        "power_w": run.power.average_power_w, "goodput_qps": run.goodput_qps(),
        "elapsed_ms": run.elapsed_ms, "events": run.events_processed,
    }


def serve_accounting_check(segments: list[dict[str, Any]], n_queries: int) -> Check:
    """Every query is accounted for once, and every segment is the same run."""
    failed = 0
    for segment in segments:
        accounted = (
            segment["completed"] + segment["shed"] == segment["offered"] == n_queries
            and segment["admitted"] + segment["shed"] == segment["offered"]
            and segment["sink_shed"] == segment["shed"]
        )
        if not accounted or segment != segments[0]:
            failed += n_queries
    return Check(
        "serve_accounting", n_queries * len(segments), failed,
        "completed + shed == offered, admitted + shed == offered, segments identical",
    )
