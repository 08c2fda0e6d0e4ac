"""The simulated search cluster: ISNs + aggregator + event loop.

``SearchCluster`` is the top-level runtime: build it once from a list of
shards, then run traces under different selection policies.  Retrieval
results are memoized in the shard searchers, so comparing many policies on
the same trace costs retrieval only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.cluster.cache import CacheStats, ResultCache
from repro.cluster.cpu import CostModel, FrequencyScale
from repro.cluster.faults import FaultSchedule
from repro.cluster.network import NetworkModel
from repro.cluster.power import PowerModel, PowerReport
from repro.cluster.types import QueryRecord, SelectionPolicy
from repro.index.shard import IndexShard
from repro.retrieval.executor import SerialExecutor
from repro.retrieval.query import Query, QueryTrace
from repro.retrieval.searcher import DistributedSearcher, SearcherCacheStats
from repro.telemetry import NO_TELEMETRY, Telemetry

if TYPE_CHECKING:  # the serving plane imports this module at runtime
    from repro.serving.admission import AdmissionController
    from repro.serving.orchestrator import ServingStats


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

        The run itself is executed by the serving plane
        (:class:`repro.serving.orchestrator.ServingPlane`): a closed-loop
        trace is its degenerate configuration — all arrivals scheduled up
        front, every record retained, no admission control — and replays
        bit-identically to the pre-serving-plane engine.
        """
        from repro.serving.orchestrator import ServingPlane  # no import cycle

        return ServingPlane(self).run(
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
        enables load shedding (see :mod:`repro.serving.admission`);
        everything else matches :meth:`run_trace`.
        """
        from repro.serving.orchestrator import ServingPlane  # no import cycle

        return ServingPlane(self).run(
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
