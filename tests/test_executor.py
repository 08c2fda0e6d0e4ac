"""The shard fan-out and its determinism guarantee.

The contract under test: ``SerialExecutor.map`` returns results in
submission order, and the merge of per-shard results does not depend on
the order they were produced in — so the merged top-k is one value, and
prewarming the retrieval memos only moves where the work is done.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import SearchCluster
from repro.retrieval import (
    DistributedSearcher,
    Query,
    QueryTrace,
    SerialExecutor,
    merge_results,
)


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


# ---------------------------------------------------------------- unit level
class TestExecutorBasics:
    def test_map_preserves_submission_order(self):
        results = SerialExecutor().map([lambda i=i: i * i for i in range(40)])
        assert results == [i * i for i in range(40)]

    def test_map_propagates_task_errors(self):
        def boom():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            SerialExecutor().map([lambda: 1, boom, lambda: 3])


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
        cluster = SearchCluster(shards, k=10)
        searcher = cluster.searcher
        n_tasks = cluster.prewarm_trace(queries + queries)
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

    def test_prewarm_counts_unique_work(self, shards, trace):
        cluster = SearchCluster(shards, k=10)
        n_tasks = cluster.prewarm_trace(trace)
        distinct = len({q.terms for q in trace})
        assert n_tasks == distinct * len(shards)
        # A second prewarm finds everything cached.
        assert cluster.prewarm_trace(trace) == 0
