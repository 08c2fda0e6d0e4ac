"""Per-shard search façade and the distributed searcher.

``ShardSearcher`` is what an ISN runs; ``DistributedSearcher`` is the pure
retrieval view of the whole cluster (broadcast + merge) without any timing —
the cluster simulator layers queueing, frequencies and budgets on top of it.
Both are safe to drive from several threads: the memo cache guarantees
exactly-once evaluation per key without locking the hit path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.index.shard import IndexShard
from repro.retrieval.executor import SerialExecutor
from repro.retrieval.exhaustive import exhaustive_search
from repro.retrieval.kernels import KernelStats, maxscore_search_kernel
from repro.retrieval.query import Query
from repro.retrieval.result import SearchResult, merge_results
from repro.telemetry import NO_TELEMETRY, Counter, Telemetry

STRATEGIES: dict[str, Callable[[IndexShard, list[str], int], SearchResult]] = {
    "exhaustive": exhaustive_search,
    # The vectorized arena kernel; the cursor-based references both
    # strategies are tested against (maxscore_search,
    # exhaustive_search_daat) are test oracles, not entries.
    "maxscore": maxscore_search_kernel,
}

CacheKey = tuple[tuple[str, ...], int, str]


@dataclass(frozen=True)
class SearcherCacheStats:
    """Memo-cache counters for one ``ShardSearcher``.

    ``computations`` and ``size`` are exact (only a key's owner thread
    increments them).  ``hits`` is maintained with plain unlocked
    increments so the hit path stays lock-free; under heavy thread races
    it can undercount, never overcount.
    """

    hits: int
    computations: int
    size: int


class _Pending:
    """In-flight computation other threads can wait on (exactly-once)."""

    __slots__ = ("_event", "result", "error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.result: SearchResult | None = None
        self.error: BaseException | None = None

    def publish(self, result: SearchResult | None, error: BaseException | None) -> None:
        self.result = result
        self.error = error
        self._event.set()

    def wait(self) -> SearchResult:
        self._event.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


def kernel_counters(telemetry: Telemetry) -> tuple[Counter, Counter, Counter]:
    """The run's MaxScore kernel (chunks, offers, threshold restarts) counters.

    Plain unlocked adds: under thread races they can undercount, never
    overcount — the same contract as the memo-cache hits.
    """
    metrics = telemetry.metrics
    return (
        metrics.counter("retrieval.kernel.chunks"),
        metrics.counter("retrieval.kernel.offers"),
        metrics.counter("retrieval.kernel.threshold_restarts"),
    )


class ShardSearcher:
    """Executes queries on one shard with a fixed strategy and k.

    Results are memoized: trace replay repeats popular queries many
    times, and re-running retrieval for each occurrence would dominate
    simulation time without changing any outcome (the index is
    immutable).  The memo key is ``(terms, k, strategy)`` — not terms
    alone — so a searcher whose ``k`` or ``strategy`` is changed between
    calls can never serve a stale, differently-truncated result.

    Thread safety: the cache is written through a per-key in-flight
    registry, so concurrent misses on the same key compute **exactly
    once** (losers block until the owner publishes) while the hit path
    stays a single lock-free ``dict.get``.
    """

    def __init__(self, shard: IndexShard, k: int = 10, strategy: str = "maxscore") -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; options: {sorted(STRATEGIES)}"
            )
        self.shard = shard
        self.k = k
        self.strategy = strategy
        self._cache: dict[CacheKey, SearchResult] = {}
        self._pending: dict[CacheKey, _Pending] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._computations = 0

    def cache_key(self, query: Query) -> CacheKey:
        return (query.terms, self.k, self.strategy)

    def is_cached(self, query: Query) -> bool:
        return self.cache_key(query) in self._cache

    @property
    def cache_stats(self) -> SearcherCacheStats:
        return SearcherCacheStats(
            hits=self._hits,
            computations=self._computations,
            size=len(self._cache),
        )

    def search(self, query: Query, telemetry: Telemetry = NO_TELEMETRY) -> SearchResult:
        """``query``'s top-k on this shard.

        A memo miss that runs the MaxScore kernel records into
        ``telemetry`` (see :meth:`_evaluate`); spans nest per track, so
        one session is passed from one thread.
        """
        key = self.cache_key(query)
        cached = self._cache.get(key)  # lock-free hot path
        if cached is not None:
            self._hits += 1
            return cached
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                return cached
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = _Pending()
                owner = True
            else:
                owner = False
        if not owner:
            return pending.wait()
        strategy = STRATEGIES[key[2]]
        try:
            result = self._evaluate(strategy, key, query, telemetry)
        except BaseException as exc:
            pending.publish(None, exc)
            with self._lock:
                self._pending.pop(key, None)
            raise
        # Publish to the cache before waking waiters so every later
        # lookup (including theirs) sees the same object.
        self._cache[key] = result
        self._computations += 1
        pending.publish(result, None)
        with self._lock:
            self._pending.pop(key, None)
        return result

    def _evaluate(
        self,
        strategy: Callable[[IndexShard, list[str], int], SearchResult],
        key: CacheKey,
        query: Query,
        telemetry: Telemetry,
    ) -> SearchResult:
        """Run the strategy, recording kernel telemetry when enabled.

        MaxScore kernel executions get a ``retrieval.kernel`` span on the
        shard's ``retrieval.<id>`` track plus chunk/offer/restart counters;
        everything is skipped (one attribute test) when telemetry is off.
        """
        if not telemetry.enabled or strategy is not maxscore_search_kernel:
            return strategy(self.shard, list(query.terms), key[1])
        kstats = KernelStats()
        with telemetry.tracer.span(
            "retrieval.kernel",
            track=f"retrieval.{self.shard.shard_id}",
            strategy=key[2], k=key[1], n_terms=len(query.terms),
        ) as span:
            result = strategy(self.shard, list(query.terms), key[1], stats=kstats)
            span.attrs["chunks"] = kstats.chunks
            span.attrs["offers"] = kstats.offers
        chunks, offers, restarts = kernel_counters(telemetry)
        chunks.add(kstats.chunks)
        offers.add(kstats.offers)
        restarts.add(kstats.threshold_restarts)
        return result

    def search_terms(self, terms: list[str]) -> SearchResult:
        return self.search(Query(query_id=-1, terms=tuple(dict.fromkeys(terms))))


class DistributedSearcher:
    """Timing-free distributed retrieval: broadcast to shards, merge top-k.

    This is the ground-truth engine: ``search`` over all shards gives the
    exhaustive result that defines P@K and per-ISN quality labels.  The
    fan-out is ``executor.map`` — one task per shard, run inline in shard
    order — and the merge orders hits by the total key
    ``(-score, doc_id)``, so the result does not depend on that order.
    """

    def __init__(
        self,
        shards: list[IndexShard],
        k: int = 10,
        strategy: str = "maxscore",
        executor: SerialExecutor | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.executor = executor or SerialExecutor()
        self.searchers = [ShardSearcher(shard, k=k, strategy=strategy) for shard in shards]

    @property
    def n_shards(self) -> int:
        return len(self.searchers)

    def search_shard(
        self, shard_id: int, query: Query, telemetry: Telemetry = NO_TELEMETRY
    ) -> SearchResult:
        return self.searchers[shard_id].search(query, telemetry)

    def search(self, query: Query, shard_ids: list[int] | None = None) -> SearchResult:
        """Search a subset of shards (default: all) and merge."""
        if shard_ids is None:
            shard_ids = list(range(self.n_shards))
        per_shard = self.executor.map(
            [lambda s=self.searchers[sid]: s.search(query) for sid in shard_ids]
        )
        return merge_results(per_shard, self.k)

    def cache_stats(self) -> list[SearcherCacheStats]:
        """Per-shard memo counters, in shard order."""
        return [searcher.cache_stats for searcher in self.searchers]

    def shard_contributions(self, query: Query, k: int | None = None) -> dict[int, int]:
        """Per-shard document counts in the global top-k (quality labels).

        This is the paper's definition of an ISN's quality: "the number of
        documents it reports that will be included in the final top-K
        results".

        One search per shard feeds both the per-shard contribution sets
        and the global merge.  A document that more than one shard could
        claim (impossible under disjoint partitioning, where every doc id
        lives on exactly one shard) is attributed to the **lowest shard
        id** — a deterministic "first shard wins" rule, so labels cannot
        depend on iteration order.
        """
        if k is None:
            k = self.k
        if k < 1:
            raise ValueError("k must be positive")
        if k > self.k:
            raise ValueError("contribution k cannot exceed the searcher's k")
        per_shard = [
            self.searchers[sid].search(query) for sid in range(self.n_shards)
        ]
        merged = merge_results(per_shard, k)
        top_docs = [set(result.doc_ids()[:k]) for result in per_shard]
        counts = {sid: 0 for sid in range(self.n_shards)}
        for doc_id, _ in merged.hits[:k]:
            for sid, docs in enumerate(top_docs):  # ascending: first shard wins
                if doc_id in docs:
                    counts[sid] += 1
                    break
        return counts
