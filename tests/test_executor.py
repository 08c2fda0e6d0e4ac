"""The shard fan-out executors and their determinism guarantee.

The contract under test: running any workload through ``SerialExecutor``
or ``ParallelExecutor`` — at any worker count, under any thread
interleaving, over in-memory or ``.store``-backed shards — produces
**byte-identical** outputs: merged top-k results, aggregator cache stats,
and full ``RunResult.records``.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cache import ResultCache
from repro.cluster.engine import RunResult, SearchCluster
from repro.index import open_stores, pack_shards
from repro.policies.exhaustive import ExhaustivePolicy
from repro.retrieval import (
    DistributedSearcher,
    ParallelExecutor,
    Query,
    QueryTrace,
    SerialExecutor,
    make_executor,
    merge_results,
    prewarm_searchers,
)
from repro.retrieval.executor import FanoutStats

WORKER_COUNTS = (1, 2, 4, 8)


def make_trace(n_queries: int = 48, n_distinct: int = 16, seed: int = 7) -> QueryTrace:
    """A trace with hot repeats (exercises both memo layers)."""
    rng = random.Random(seed)
    distinct = [
        (f"t{rng.randint(0, 50)}", f"t{rng.randint(0, 50)}") for _ in range(n_distinct)
    ]
    queries = [
        Query(
            query_id=i,
            terms=tuple(dict.fromkeys(distinct[rng.randrange(n_distinct)])),
            arrival_time=i * 0.012,
        )
        for i in range(n_queries)
    ]
    return QueryTrace("executor-determinism", queries)


def run_fingerprint(run: RunResult) -> str:
    """Canonical byte-for-byte identity of everything a run produced."""
    lines = [run.policy_name, repr(run.cache_stats), repr(run.power)]
    for record in run.records:
        lines.append(
            "|".join(
                (
                    str(record.query.query_id),
                    repr(record.arrival_ms),
                    repr(record.latency_ms),
                    record.result.fingerprint(),
                    repr(record.decision),
                    repr(record.outcomes),
                    str(record.from_cache),
                )
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------- unit level
class TestExecutorBasics:
    def test_make_executor_dispatch(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(4)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 4
        parallel.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                make_executor(workers)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_map_preserves_submission_order(self, workers):
        with make_executor(workers) as executor:
            results = executor.map([lambda i=i: i * i for i in range(40)])
        assert results == [i * i for i in range(40)]

    def test_map_propagates_task_errors(self):
        def boom():
            raise RuntimeError("task failed")

        with make_executor(4) as executor:
            with pytest.raises(RuntimeError, match="task failed"):
                executor.map([lambda: 1, boom, lambda: 3])

    def test_stats_recorded(self):
        with make_executor(3) as executor:
            executor.map([lambda: None] * 7)
            stats = executor.last_stats
        assert stats is not None
        assert stats.n_tasks == 7
        assert stats.workers == 3
        assert stats.wall_ms >= 0.0

    def test_close_is_idempotent_and_pool_recreated(self):
        executor = ParallelExecutor(2)
        assert executor.map([lambda: 1]) == [1]
        executor.close()
        executor.close()
        # A closed executor lazily re-creates its pool on next use.
        assert executor.map([lambda: 2]) == [2]
        executor.close()


class TestFanoutStats:
    def test_makespan_serial_equals_sum(self):
        stats = FanoutStats(task_ms=[3.0, 1.0, 2.0], workers=1)
        assert stats.critical_path_ms == pytest.approx(6.0)
        assert stats.modeled_speedup == pytest.approx(1.0)

    def test_makespan_even_split(self):
        stats = FanoutStats(task_ms=[1.0] * 16, workers=8)
        assert stats.critical_path_ms == pytest.approx(2.0)
        assert stats.modeled_speedup == pytest.approx(8.0)

    def test_makespan_bounded_by_largest_task(self):
        stats = FanoutStats(task_ms=[10.0, 1.0, 1.0, 1.0], workers=4)
        assert stats.critical_path_ms == pytest.approx(10.0)

    def test_makespan_empty(self):
        assert FanoutStats(workers=4).critical_path_ms == 0.0

    @pytest.mark.parametrize("workers", (0, -2))
    def test_makespan_rejects_nonpositive_workers(self, workers):
        # An explicit 0 must be rejected, not read as "use the default".
        stats = FanoutStats(task_ms=[1.0, 2.0], workers=4)
        with pytest.raises(ValueError, match="positive"):
            stats.makespan_ms(workers)


# ------------------------------------------------------- searcher-level merge
class TestDistributedDeterminism:
    @pytest.fixture()
    def queries(self):
        rng = random.Random(11)
        return [
            Query(
                query_id=i,
                terms=tuple(
                    dict.fromkeys(f"t{rng.randint(0, 30)}" for _ in range(3))
                ),
            )
            for i in range(20)
        ]

    def test_search_identical_across_worker_counts(self, shards, queries, tmp_path):
        pack_shards(shards, tmp_path)
        serial = DistributedSearcher(shards, k=10)
        reference = [serial.search(q).fingerprint() for q in queries]
        for workers in WORKER_COUNTS:
            # Stores reopened per worker count: threads race on cold lazy
            # decodes and cold memos every time, not on a warmed cache.
            for backing in (shards, open_stores(tmp_path)):
                with make_executor(workers) as executor:
                    searcher = DistributedSearcher(backing, k=10, executor=executor)
                    fingerprints = [searcher.search(q).fingerprint() for q in queries]
                assert fingerprints == reference

    def test_merge_is_completion_order_independent(self, shards, queries):
        searcher = DistributedSearcher(shards, k=10)
        for query in queries:
            per_shard = [s.search(query) for s in searcher.searchers]
            expected = merge_results(per_shard, 10).fingerprint()
            shuffled = list(per_shard)
            random.Random(query.query_id).shuffle(shuffled)
            assert merge_results(shuffled, 10).fingerprint() == expected

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(4))))
    def test_merge_permutation_property(self, shards, order):
        query = Query(query_id=0, terms=("t1", "t2", "t3"))
        searcher = DistributedSearcher(shards, k=10)
        per_shard = [s.search(query) for s in searcher.searchers]
        expected = merge_results(per_shard, 10).fingerprint()
        permuted = [per_shard[i] for i in order]
        assert merge_results(permuted, 10).fingerprint() == expected

    def test_batch_prewarm_dedupes_and_makes_replay_hit_only(self, shards, queries):
        with ParallelExecutor(4) as executor:
            searcher = DistributedSearcher(shards, k=10, executor=executor)
            n_tasks = prewarm_searchers(
                searcher.searchers, queries + queries, executor
            )
            distinct = len({q.terms for q in queries})
            assert n_tasks == distinct * len(shards)
            before = [s.cache_stats for s in searcher.searchers]
            for query in queries:
                searcher.search(query)
            after = [s.cache_stats for s in searcher.searchers]
        # Replay computed nothing new: every lookup was a memo hit.
        for b, a in zip(before, after):
            assert a.computations == b.computations
            assert a.hits >= b.hits + len(queries)


# ------------------------------------------------------------ full trace runs
class TestTraceDeterminism:
    @pytest.fixture(scope="class")
    def trace(self):
        return make_trace()

    def _run(self, shards, workers: int, trace: QueryTrace) -> tuple[str, str]:
        cluster = SearchCluster(shards, k=10, executor=make_executor(workers))
        try:
            run = cluster.run_trace(
                trace, ExhaustivePolicy(), cache=ResultCache(capacity=8)
            )
            return run_fingerprint(run), repr(run.cache_stats)
        finally:
            cluster.executor.close()

    def test_byte_identical_across_worker_counts(self, documents, trace):
        # Fresh shards per run: memo caches must start cold each time.
        from repro.index import build_shards, partition_topical
        from repro.text import WhitespaceAnalyzer

        fingerprints = {}
        for workers in WORKER_COUNTS:
            shards = build_shards(
                partition_topical(documents, 4), analyzer=WhitespaceAnalyzer()
            )
            fingerprints[workers] = self._run(shards, workers, trace)
        assert fingerprints[2] == fingerprints[1]
        assert fingerprints[8] == fingerprints[1]

    def test_prewarm_flag_does_not_change_outcomes(self, shards, trace):
        cluster = SearchCluster(shards, k=10)
        baseline = run_fingerprint(cluster.run_trace(trace, ExhaustivePolicy()))
        prewarmed = run_fingerprint(
            cluster.run_trace(trace, ExhaustivePolicy(), prewarm=True)
        )
        assert prewarmed == baseline

    def test_prewarm_counts_unique_work(self, shards, trace):
        cluster = SearchCluster(shards, k=10, executor=make_executor(2))
        try:
            n_tasks = cluster.prewarm_trace(trace)
            distinct = len({q.terms for q in trace})
            assert n_tasks == distinct * len(shards)
            # A second prewarm finds everything cached.
            assert cluster.prewarm_trace(trace) == 0
        finally:
            cluster.executor.close()
