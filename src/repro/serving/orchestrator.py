"""The serving orchestrator: one engine for closed-loop and open-loop runs.

This is ``SearchCluster.run_trace``'s event-loop body refactored into a
reusable plane, split the way a production engine is layered:

* **executor** (:mod:`repro.retrieval.executor`) runs one query's
  per-shard retrieval tasks, inline and in shard order;
* **orchestrator** (this module) owns the run lifecycle: prewarm, build
  the ISN groups and aggregator, schedule arrivals, drive the event loop,
  and account the results;
* **processor** (:mod:`repro.cluster.aggregator`) executes one query's
  control flow — policy, dispatch, merge, budget enforcement.

Two arrival modes share everything downstream:

* a :class:`~repro.retrieval.query.QueryTrace` replays **closed-loop**:
  every arrival is scheduled up front, in trace order, exactly as the
  pre-refactor ``run_trace`` did — bit-identical to it by construction
  (pinned by ``tests/test_serving_plane.py``);
* any other iterable of queries (a :class:`~repro.serving.stream.
  QueryStream`) streams **open-loop**: arrival *i+1* is pulled from the
  iterator only when arrival *i* fires, so the event heap holds at most
  one future arrival and a million-query campaign runs under bounded
  memory.  Pair with ``retain_records=False`` to route records into a
  :class:`ServingStats` streaming sink instead of the per-query list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cluster.aggregator import Aggregator
from repro.cluster.events import Simulator
from repro.cluster.faults import FaultSchedule
from repro.cluster.isn import ISNServer
from repro.cluster.power import EnergyMeter, package_report
from repro.cluster.types import QueryRecord, SelectionPolicy
from repro.cluster.cache import ResultCache
from repro.retrieval.query import Query, QueryTrace
from repro.serving.admission import AdmissionController
from repro.telemetry import NO_TELEMETRY, Telemetry
from repro.telemetry.metrics import StreamingHistogram

if TYPE_CHECKING:
    from repro.cluster.engine import RunResult, SearchCluster


class ServingStats:
    """Streaming per-run aggregates — the O(1)-memory record sink.

    Latency percentiles come from the PR 3 streaming histogram (log
    buckets + P²); everything else is plain counters.  ``observe`` is the
    aggregator's ``record_sink``: it sees every committed record once and
    retains none of them.
    """

    def __init__(self) -> None:
        self.latency = StreamingHistogram("serving.latency_ms")
        self.completed = 0
        self.shed = 0
        self.from_cache = 0
        self.selected_shards = 0
        self.counted_shards = 0
        self.latency_sum_ms = 0.0
        self.max_latency_ms = 0.0
        self.last_arrival_ms = 0.0

    def observe(self, record: QueryRecord) -> None:
        if record.arrival_ms > self.last_arrival_ms:
            self.last_arrival_ms = record.arrival_ms
        if record.shed:
            self.shed += 1
            return
        self.completed += 1
        if record.from_cache:
            self.from_cache += 1
        latency = record.latency_ms
        self.latency.observe(latency)
        self.latency_sum_ms += latency
        if latency > self.max_latency_ms:
            self.max_latency_ms = latency
        self.selected_shards += record.n_selected
        self.counted_shards += record.n_counted

    @property
    def offered(self) -> int:
        return self.completed + self.shed

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.completed if self.completed else 0.0

    def percentile_ms(self, p: float) -> float:
        return self.latency.percentile(p)

    def snapshot(self) -> dict[str, object]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "from_cache": self.from_cache,
            "last_arrival_ms": self.last_arrival_ms,
            "selected_shards": self.selected_shards,
            "counted_shards": self.counted_shards,
            "mean_latency_ms": self.mean_latency_ms,
            "max_latency_ms": self.max_latency_ms,
            "p50_ms": self.percentile_ms(50),
            "p95_ms": self.percentile_ms(95),
            "p99_ms": self.percentile_ms(99),
        }


class ServingPlane:
    """Runs query sources against a :class:`SearchCluster`'s hardware."""

    def __init__(self, cluster: SearchCluster) -> None:
        self.cluster = cluster

    def run(
        self,
        source: QueryTrace | Iterable[Query],
        policy: SelectionPolicy,
        *,
        cache: ResultCache | None = None,
        faults: FaultSchedule | None = None,
        response_timeout_ms: float | None = None,
        telemetry: Telemetry | None = None,
        n_replicas: int = 1,
        admission: AdmissionController | None = None,
        retain_records: bool = True,
    ) -> RunResult:
        """One run: ``source`` arrivals through ``policy`` on the cluster.

        A :class:`QueryTrace` replays closed-loop (all arrivals scheduled
        up front — the degenerate serving-plane configuration
        ``run_trace`` delegates to); any other query iterable streams
        open-loop.  ``admission`` turns on load shedding;
        ``retain_records=False`` swaps the per-query record list for a
        :class:`ServingStats` sink (``RunResult.serving``) so memory
        stays O(pool), not O(queries).  All other parameters keep their
        ``run_trace`` meaning.
        """
        from repro.cluster.engine import RunResult  # runtime import: no cycle

        if n_replicas < 1:
            raise ValueError("need at least one replica per shard")
        cluster = self.cluster
        closed_loop = isinstance(source, QueryTrace)
        if closed_loop:
            prewarm_queries: list[Query] | None = source.queries
        else:
            distinct = getattr(source, "distinct_queries", None)
            prewarm_queries = distinct() if distinct is not None else None
        telemetry = telemetry or NO_TELEMETRY
        tracer = telemetry.tracer if telemetry.enabled else None
        sim = Simulator(telemetry)
        if tracer is not None:
            telemetry.bind_clock(lambda: sim.now)
        cache_before = cluster._searcher_totals()
        decode_before = cluster._decode_totals()
        result_cache_before = (
            (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
        )
        try:
            if prewarm_queries is not None:
                # Optional hook: minimal duck-typed policies may omit it.
                policy_prewarm = getattr(policy, "prewarm", None)
                if policy_prewarm is not None:
                    if tracer is None:
                        policy_prewarm(prewarm_queries)
                    else:
                        with tracer.span(
                            "cluster.prewarm_policy", track="cluster",
                            n_queries=len(prewarm_queries),
                        ):
                            policy_prewarm(prewarm_queries, telemetry=telemetry)
            # Meters stay a flat list (shard-major: shard i's replica r is
            # meters[i * R + r]) so package_report sums the whole cluster.
            meters = [
                EnergyMeter(cluster.power_model)
                for _ in range(cluster.n_shards * n_replicas)
            ]
            groups = [
                [
                    ISNServer(
                        shard_id=i,
                        searcher=cluster.searcher.searchers[i],
                        cost_model=cluster.cost_model,
                        freq_scale=cluster.freq_scale,
                        meter=meters[i * n_replicas + r],
                        faults=faults,
                        telemetry=telemetry,
                        replica_id=r,
                    )
                    for r in range(n_replicas)
                ]
                for i in range(cluster.n_shards)
            ]
            stats = None if retain_records else ServingStats()
            aggregator = Aggregator(
                isns=groups, policy=policy, network=cluster.network, sim=sim,
                k=cluster.k, cache=cache,
                response_timeout_ms=response_timeout_ms,
                telemetry=telemetry, admission=admission,
                record_sink=stats.observe if stats is not None else None,
            )
            last_arrival_ms = 0.0
            if closed_loop:
                # Upfront scheduling, in trace order: the pre-refactor
                # run_trace statement-for-statement (bit-identity anchor).
                on_query = aggregator.on_query
                for query in source:
                    sim.schedule_at(query.arrival_time * 1000.0, on_query, query)
            else:
                # Open loop: pull arrival i+1 only when arrival i fires,
                # so the heap never holds more than one future arrival.
                stream = iter(source)
                pump_state = {"last_ms": 0.0}

                def schedule_next() -> None:
                    query = next(stream, None)
                    if query is not None:
                        at_ms = query.arrival_time * 1000.0
                        pump_state["last_ms"] = at_ms
                        sim.schedule_at(at_ms, fire, query)

                def fire(query: Query) -> None:
                    aggregator.on_query(query)
                    schedule_next()

                schedule_next()
            if tracer is None:
                sim.run()
            else:
                with tracer.span(
                    "cluster.replay", track="cluster",
                    policy=policy.name,
                    n_queries=len(source.queries) if closed_loop else -1,
                ):
                    sim.run()
            if not closed_loop:
                last_arrival_ms = pump_state["last_ms"]
            duration_ms = (
                source.duration * 1000.0 if closed_loop else last_arrival_ms
            )
            elapsed = max(sim.now, duration_ms, 1e-9)
        finally:
            if tracer is not None:
                telemetry.unbind_clock()
        report = package_report(meters, cluster.power_model, elapsed)
        records = sorted(aggregator.records, key=lambda r: r.arrival_ms)
        hits_after, comps_after = cluster._searcher_totals()
        decode_after = cluster._decode_totals()
        result_cache_after = (
            (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
        )
        n_queries = len(records) if stats is None else stats.offered
        if tracer is not None:
            metrics = telemetry.metrics
            metrics.gauge("run.events_processed").set(sim.events_processed)
            metrics.gauge("run.elapsed_sim_ms").set(elapsed)
            metrics.gauge("run.queries").set(n_queries)
            metrics.gauge("run.decode_hits").set(decode_after[0] - decode_before[0])
            metrics.gauge("run.decode_misses").set(decode_after[1] - decode_before[1])
            metrics.gauge("run.decode_evictions").set(
                decode_after[2] - decode_before[2]
            )
            metrics.gauge("run.result_cache_hits").set(
                result_cache_after[0] - result_cache_before[0]
            )
            metrics.gauge("run.result_cache_misses").set(
                result_cache_after[1] - result_cache_before[1]
            )
            metrics.gauge("run.admitted_queries").set(aggregator.admitted)
            metrics.gauge("run.shed_queries").set(
                aggregator.shed_queue_depth + aggregator.shed_deadline
            )
        return RunResult(
            policy_name=policy.name,
            records=records,
            power=report,
            elapsed_ms=elapsed,
            cache_stats=cache.stats if cache is not None else None,
            events_processed=sim.events_processed,
            clamped_schedules=sim.clamped_schedules,
            searcher_hits=hits_after - cache_before[0],
            searcher_computations=comps_after - cache_before[1],
            hedges_issued=aggregator.hedges_issued,
            hedge_wins=aggregator.hedge_wins,
            cancels_sent=aggregator.cancels_sent,
            cancelled_in_queue=aggregator.cancelled_in_queue,
            duplicates_dropped=aggregator.duplicates_dropped,
            total_service_ms=aggregator.total_service_ms,
            counted_service_ms=aggregator.counted_service_ms,
            decode_hits=decode_after[0] - decode_before[0],
            decode_misses=decode_after[1] - decode_before[1],
            decode_evictions=decode_after[2] - decode_before[2],
            result_cache_hits=result_cache_after[0] - result_cache_before[0],
            result_cache_misses=result_cache_after[1] - result_cache_before[1],
            offered_queries=aggregator.queries_seen,
            admitted_queries=aggregator.admitted,
            shed_queries=aggregator.shed_queue_depth + aggregator.shed_deadline,
            shed_queue_depth=aggregator.shed_queue_depth,
            shed_deadline=aggregator.shed_deadline,
            serving=stats,
        )
