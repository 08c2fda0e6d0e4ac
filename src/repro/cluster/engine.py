"""The simulated search cluster: ISNs + aggregator + event loop.

``SearchCluster`` is the top-level runtime: build it once from a list of
shards, then run traces under different selection policies.  Retrieval
results are memoized in the shard searchers, so comparing many policies on
the same trace costs retrieval only once.

One private engine, ``SearchCluster._run``, owns every run's lifecycle:
prewarm, build the ISN groups and the aggregator, schedule arrivals, drive
the event loop and account the results.  Its two entry points differ only
in how arrivals are scheduled:

* ``run_trace`` replays a :class:`~repro.retrieval.query.QueryTrace`
  **closed-loop**: every arrival is scheduled up front, in trace order;
* ``serve`` streams any other iterable of queries (a
  :class:`~repro.serving.stream.QueryStream`) **open-loop**: arrival *i+1*
  is pulled from the iterator only when arrival *i* fires, so the event
  heap holds at most one future arrival and a million-query campaign runs
  under bounded memory.  Without ``retain_records`` the records go to a
  :class:`ServingStats` streaming sink instead of the per-query list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cluster.admission import AdmissionController
from repro.cluster.aggregator import Aggregator
from repro.cluster.cache import CacheStats, ResultCache
from repro.cluster.cpu import CostModel, FrequencyScale
from repro.cluster.events import Simulator
from repro.cluster.faults import FaultSchedule
from repro.cluster.isn import ISNServer
from repro.cluster.network import NetworkModel
from repro.cluster.power import EnergyMeter, PowerModel, PowerReport, package_report
from repro.cluster.types import QueryRecord, SelectionPolicy
from repro.index.shard import IndexShard
from repro.retrieval.executor import SerialExecutor
from repro.retrieval.query import Query, QueryTrace
from repro.retrieval.searcher import DistributedSearcher, SearcherCacheStats
from repro.telemetry import NO_TELEMETRY, Telemetry
from repro.telemetry.metrics import StreamingHistogram


class ServingStats:
    """Streaming per-run aggregates — the O(1)-memory record sink.

    Latency percentiles come from the streaming histogram's P²
    estimators; everything else is plain counters.  ``observe`` is the
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


@dataclass
class RunResult:
    """Everything a simulated trace run produced.

    ``searcher_hits``/``searcher_computations`` are *per-run deltas* of
    the shard searchers' memo counters (the memo persists across runs on
    the same cluster, so absolute values would conflate runs).
    """

    policy_name: str
    records: list[QueryRecord]
    power: PowerReport
    elapsed_ms: float
    cache_stats: CacheStats | None = None
    events_processed: int = 0
    clamped_schedules: int = 0
    searcher_hits: int = 0
    searcher_computations: int = 0
    # Tail-tolerance accounting (all zero without replication).
    hedges_issued: int = 0
    hedge_wins: int = 0
    cancels_sent: int = 0
    cancelled_in_queue: int = 0
    duplicates_dropped: int = 0
    total_service_ms: float = 0.0
    counted_service_ms: float = 0.0
    # Compressed-arena decode LRU accounting (zero when every shard's
    # postings are uncompressed); per-run deltas like the memo counters.
    decode_hits: int = 0
    decode_misses: int = 0
    decode_evictions: int = 0
    # Serving-plane accounting.  The result-cache counters are per-run
    # deltas (the cache object persists across runs, like the memos);
    # shed/admitted are zero without admission control, and ``serving``
    # holds the streaming sink when records were not retained
    # (``retain_records=False`` open-loop runs).
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    offered_queries: int = 0
    admitted_queries: int = 0
    shed_queries: int = 0
    shed_queue_depth: int = 0
    shed_deadline: int = 0
    serving: ServingStats | None = None

    def latencies_ms(self) -> list[float]:
        return [record.latency_ms for record in self.records]

    @property
    def wasted_service_ms(self) -> float:
        """ISN busy time whose response was never merged: hedge-race
        losers, deadline aborts, post-finalize stragglers."""
        return self.total_service_ms - self.counted_service_ms

    @property
    def wasted_work_ratio(self) -> float:
        """Fraction of all ISN busy time that was wasted (0 when idle)."""
        if self.total_service_ms <= 0:
            return 0.0
        return self.wasted_service_ms / self.total_service_ms

    @property
    def result_cache_hit_rate(self) -> float:
        """This run's aggregator result-cache hit rate (0 without a cache)."""
        lookups = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / lookups if lookups else 0.0

    @property
    def completed_queries(self) -> int:
        """Queries answered with real work (offered minus shed)."""
        return self.offered_queries - self.shed_queries

    def goodput_qps(self) -> float:
        """Completed queries per second of simulated elapsed time."""
        return self.completed_queries / (self.elapsed_ms / 1000.0)


class SearchCluster:
    """A partition-aggregate search engine over simulated hardware.

    Parameters mirror the paper's testbed: 16 shards on one package, a
    1.2-2.7 GHz DVFS ladder, and a single aggregator.  The same instance
    can run any number of traces/policies; each run gets fresh ISN queues
    and energy meters.
    """

    def __init__(
        self,
        shards: list[IndexShard],
        k: int = 10,
        strategy: str = "maxscore",
        cost_model: CostModel | None = None,
        power_model: PowerModel | None = None,
        freq_scale: FrequencyScale | None = None,
        network: NetworkModel | None = None,
        executor: SerialExecutor | None = None,
    ) -> None:
        """``executor`` runs ``DistributedSearcher.search``'s per-shard
        tasks (inline, in shard order)."""
        if not shards:
            raise ValueError("cluster needs at least one shard")
        self.k = k
        self.strategy = strategy
        self.cost_model = cost_model or CostModel()
        self.power_model = power_model or PowerModel()
        self.freq_scale = freq_scale or FrequencyScale()
        self.network = network or NetworkModel()
        self.searcher = DistributedSearcher(
            shards, k=k, strategy=strategy, executor=executor
        )
        self.shards = shards

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def run_trace(
        self,
        trace: QueryTrace,
        policy: SelectionPolicy,
        cache: ResultCache | None = None,
        faults: FaultSchedule | None = None,
        response_timeout_ms: float | None = None,
        telemetry: Telemetry | None = None,
        n_replicas: int = 1,
    ) -> RunResult:
        """Replay ``trace`` under ``policy`` and report latency + power.

        ISNs run each job at the frequency the policy assigns, the paper's
        behaviour.  ``cache`` optionally answers repeated queries at the
        aggregator before the policy runs (see :mod:`repro.cluster.cache`).
        ``faults`` injects fail-silent ISN outages; pair unbudgeted
        policies with ``response_timeout_ms`` so the aggregator cannot
        wait forever.

        ``n_replicas`` runs R independent ISN replicas per shard (each
        with its own queue, CPU and meter, sharing the shard's memoized
        searcher).  Replica 0 serves every query; with R >= 2 a
        budget-aware hedge goes to replica 1 against stragglers (see
        :mod:`repro.cluster.replicas`).  The default, one replica, is
        bit-identical to the pre-replication cluster.

        Before the event loop starts the policy is handed the whole
        trace (its optional ``prewarm`` hook) so it can batch its own
        pure per-query work — Cottage runs its predictor inference
        through the fused cross-shard kernels.  Prediction is pure and
        memoized, so this never changes a simulation outcome — it only
        moves where the CPU time is spent.  Retrieval memos fill lazily
        as ISNs search; :meth:`prewarm_trace` fills them up front.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
        session for this run: the simulator clock is bound to the tracer
        (spans record sim-time *and* wall-time), and every layer's spans
        and metrics flow into it.  The session is an argument of the run,
        handed to the policy (its view and ``prewarm``) and to each ISN's
        searches; no long-lived object keeps it.  Telemetry never changes a
        simulation outcome — runs are bit-identical with it on or off
        (pinned by ``tests/test_telemetry_integration.py``).

        The run is :meth:`serve`'s engine with every arrival scheduled up
        front, every record retained and no admission control.
        """
        return self._run(
            trace,
            policy,
            cache=cache,
            faults=faults,
            response_timeout_ms=response_timeout_ms,
            telemetry=telemetry,
            n_replicas=n_replicas,
        )

    def serve(
        self,
        source: Iterable[Query],
        policy: SelectionPolicy,
        *,
        admission: AdmissionController | None = None,
        retain_records: bool = False,
        cache: ResultCache | None = None,
        faults: FaultSchedule | None = None,
        response_timeout_ms: float | None = None,
        telemetry: Telemetry | None = None,
        n_replicas: int = 1,
    ) -> RunResult:
        """Open-loop serving: drive a lazy query stream through the cluster.

        ``source`` is any iterable of queries — typically a
        :class:`repro.serving.stream.QueryStream` — consumed one arrival
        at a time, so campaign length never bounds memory.  By default no
        per-query records are retained: latency distributions come back
        as streaming histograms on ``RunResult.serving``.  ``admission``
        enables load shedding (see :mod:`repro.cluster.admission`);
        everything else matches :meth:`run_trace`.
        """
        return self._run(
            source,
            policy,
            cache=cache,
            faults=faults,
            response_timeout_ms=response_timeout_ms,
            telemetry=telemetry,
            n_replicas=n_replicas,
            admission=admission,
            retain_records=retain_records,
        )

    def _run(
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
        up front); any other query iterable streams open-loop.
        ``admission`` turns on load shedding; ``retain_records=False``
        swaps the per-query record list for a :class:`ServingStats` sink
        (``RunResult.serving``) so memory stays O(pool), not O(queries).
        """
        if n_replicas < 1:
            raise ValueError("need at least one replica per shard")
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
        cache_before = self._searcher_totals()
        decode_before = self._decode_totals()
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
                EnergyMeter(self.power_model)
                for _ in range(self.n_shards * n_replicas)
            ]
            groups = [
                [
                    ISNServer(
                        shard_id=i,
                        searcher=self.searcher.searchers[i],
                        cost_model=self.cost_model,
                        freq_scale=self.freq_scale,
                        meter=meters[i * n_replicas + r],
                        faults=faults,
                        telemetry=telemetry,
                        replica_id=r,
                    )
                    for r in range(n_replicas)
                ]
                for i in range(self.n_shards)
            ]
            stats = None if retain_records else ServingStats()
            aggregator = Aggregator(
                isns=groups, policy=policy, network=self.network, sim=sim,
                k=self.k, cache=cache,
                response_timeout_ms=response_timeout_ms,
                telemetry=telemetry, admission=admission,
                record_sink=stats.observe if stats is not None else None,
            )
            last_arrival_ms = 0.0
            if closed_loop:
                # Closed loop: every arrival scheduled up front, in trace
                # order (the order the event-loop digests were pinned in).
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
        report = package_report(meters, self.power_model, elapsed)
        records = sorted(aggregator.records, key=lambda r: r.arrival_ms)
        hits_after, comps_after = self._searcher_totals()
        decode_after = self._decode_totals()
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

    def _searcher_totals(self) -> tuple[int, int]:
        """Cluster-wide (hits, computations) sums of the searcher memos."""
        stats = self.searcher.cache_stats()
        return (
            sum(s.hits for s in stats),
            sum(s.computations for s in stats),
        )

    def _decode_totals(self) -> tuple[int, int, int]:
        """Cluster-wide (hits, misses, evictions) decode LRU sums.

        Only compressed arenas keep decode counters; in-memory shards
        contribute nothing.
        """
        hits = misses = evictions = 0
        for shard in self.shards:
            stats = getattr(shard.arena, "decode_stats", None)
            if stats is not None:
                hits += stats.hits
                misses += stats.misses
                evictions += stats.evictions
        return hits, misses, evictions

    def prewarm_trace(self, trace: Iterable[Query]) -> int:
        """Fill every shard searcher's memo cache for ``trace``.

        Repeated trace queries cost nothing: only uncached (query, shard)
        pairs are evaluated.  Returns the number of evaluations performed.
        """
        evaluated = 0
        for query in trace:
            for searcher in self.searcher.searchers:
                if not searcher.is_cached(query):
                    searcher.search(query)
                    evaluated += 1
        return evaluated

    def searcher_cache_stats(self) -> list[SearcherCacheStats]:
        """Per-shard memo counters (hits / computations / size)."""
        return self.searcher.cache_stats()

    def service_time_ms(
        self,
        query,
        shard_id: int,
        freq_ghz: float | None = None,
        telemetry: Telemetry = NO_TELEMETRY,
    ) -> float:
        """Offline service-time oracle (no queueing): one query, one shard.

        Used for predictor training labels, for the frequency-sweep
        experiment (Fig. 4) and by the oracle's exact estimates
        (:class:`repro.core.sources.ExactEstimates`), which pass their
        run's ``telemetry`` for the searches they cause.
        """
        freq = freq_ghz if freq_ghz is not None else self.freq_scale.default_ghz
        result = self.searcher.search_shard(shard_id, query, telemetry)
        return self.cost_model.service_ms(result.cost, freq)
