"""Unit + property tests for query evaluation.

The central property: exhaustive and MaxScore return identical hit
lists (same doc ids, same scores up to float summation order) while the
pruning strategies do no more work than exhaustive evaluation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_strategy_equivalence import assert_same_topk

from repro.index import Document, IndexBuilder
from repro.retrieval import (
    DistributedSearcher,
    Query,
    ShardSearcher,
    exhaustive_search,
    exhaustive_search_daat,
    maxscore_search,
    merge_results,
)
from repro.retrieval.result import CostStats, SearchResult
from repro.text import WhitespaceAnalyzer

PRUNED = {"maxscore": maxscore_search}


def build_shard(n_docs=150, vocab=40, seed=0):
    rng = random.Random(seed)
    builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
    for doc_id in range(n_docs):
        words = [f"w{rng.randint(0, vocab - 1)}" for _ in range(rng.randint(5, 30))]
        builder.add(Document(doc_id=doc_id, text=" ".join(words)))
    return builder.build()


class TestStrategyEquivalence:
    @pytest.mark.parametrize("name", sorted(PRUNED))
    @pytest.mark.parametrize("terms", [["w0"], ["w0", "w1"], ["w3", "w7", "w11", "w2"]])
    def test_matches_exhaustive(self, name, terms):
        shard = build_shard()
        assert_same_topk(
            exhaustive_search(shard, terms, 10), PRUNED[name](shard, terms, 10)
        )

    def test_daat_reference_matches_vectorized(self):
        shard = build_shard()
        assert_same_topk(
            exhaustive_search(shard, ["w1", "w2"], 10),
            exhaustive_search_daat(shard, ["w1", "w2"], 10),
        )

    @pytest.mark.parametrize("name", sorted(PRUNED))
    def test_pruning_does_less_or_equal_work(self, name):
        shard = build_shard()
        terms = ["w0", "w1", "w2"]
        full = exhaustive_search(shard, terms, 10)
        pruned = PRUNED[name](shard, terms, 10)
        assert pruned.cost.docs_evaluated <= full.cost.docs_evaluated
        assert pruned.cost.postings_scored <= full.cost.postings_scored

    @pytest.mark.parametrize(
        "search",
        [exhaustive_search, exhaustive_search_daat, maxscore_search],
        ids=["vec", "daat", "maxscore"],
    )
    def test_unknown_terms_empty(self, search):
        shard = build_shard()
        result = search(shard, ["nosuchterm"], 10)
        assert result.hits == []

    @pytest.mark.parametrize(
        "search",
        [exhaustive_search, maxscore_search],
        ids=["vec", "maxscore"],
    )
    def test_k_validation(self, search):
        with pytest.raises(ValueError):
            search(build_shard(20), ["w0"], 0)

    def test_k_one(self):
        shard = build_shard()
        terms = ["w0", "w1"]
        assert_same_topk(
            exhaustive_search(shard, terms, 1), maxscore_search(shard, terms, 1)
        )

    def test_k_larger_than_matches(self):
        shard = build_shard(n_docs=10)
        full = exhaustive_search(shard, ["w0"], 100)
        assert len(full.hits) == shard.doc_freq("w0")
        assert_same_topk(full, maxscore_search(shard, ["w0"], 100))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1000),
    k=st.integers(1, 15),
    term_ids=st.lists(st.integers(0, 25), min_size=1, max_size=5, unique=True),
)
def test_equivalence_property(seed, k, term_ids):
    """Random shards, random queries: all strategies agree."""
    shard = build_shard(n_docs=80, vocab=26, seed=seed)
    terms = [f"w{i}" for i in term_ids]
    reference = exhaustive_search(shard, terms, k)
    for strategy in PRUNED.values():
        assert_same_topk(reference, strategy(shard, terms, k))


class TestMergeResults:
    def test_merges_and_sorts(self):
        a = SearchResult(hits=[(1, 5.0), (2, 1.0)], cost=CostStats(docs_evaluated=10))
        b = SearchResult(hits=[(3, 3.0)], cost=CostStats(docs_evaluated=7))
        merged = merge_results([a, b], k=2)
        assert merged.hits == [(1, 5.0), (3, 3.0)]
        assert merged.cost.docs_evaluated == 17

    def test_tie_break_doc_id(self):
        a = SearchResult(hits=[(9, 2.0)])
        b = SearchResult(hits=[(4, 2.0)])
        assert merge_results([a, b], 1).hits == [(4, 2.0)]

    def test_empty(self):
        assert merge_results([], 5).hits == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            merge_results([SearchResult(hits=[(1, 1.0)])], 0)

    @settings(deadline=None)
    @given(
        lists=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=40),
                    # few distinct scores: ties across and within lists
                    st.sampled_from([0.0, 0.5, 1.25, 1.25000001, 3.0]),
                ),
                max_size=8,
            ),
            max_size=6,
        ),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_equals_per_hit_collector_reference(self, lists, k):
        """The sort-based merge ranks exactly as offering every hit to a
        ``TopKCollector`` did (the pre-PR-16 implementation)."""
        from repro.retrieval.topk import TopKCollector

        results = [
            SearchResult(hits=hits, cost=CostStats(i, 2 * i, 3 * i, i % 3))
            for i, hits in enumerate(lists)
        ]
        collector = TopKCollector(k)
        for result in results:
            for doc_id, score in result.hits:
                collector.offer(doc_id, score)
        merged = merge_results(results, k)
        assert merged.hits == collector.results()
        n = len(results)
        assert merged.cost == CostStats(
            sum(range(n)), 2 * sum(range(n)), 3 * sum(range(n)),
            max((i % 3 for i in range(n)), default=0),
        )
        assert all(result.hits == hits for result, hits in zip(results, lists))


class TestShardSearcher:
    def test_caches_by_terms(self, shards):
        searcher = ShardSearcher(shards[0], k=5)
        q1 = Query(query_id=1, terms=("t1", "t2"))
        q2 = Query(query_id=2, terms=("t1", "t2"))
        assert searcher.search(q1) is searcher.search(q2)

    def test_rejects_unknown_strategy(self, shards):
        with pytest.raises(ValueError):
            ShardSearcher(shards[0], strategy="bogus")

    def test_rejects_non_positive_k_at_construction(self, shards):
        with pytest.raises(ValueError, match="k must be positive"):
            ShardSearcher(shards[0], k=0)

    def test_search_terms_dedups(self, shards):
        searcher = ShardSearcher(shards[0], k=5)
        result = searcher.search_terms(["t1", "t1", "t2"])
        assert result is searcher.search(Query(query_id=0, terms=("t1", "t2")))


class TestDistributedSearcher:
    def test_search_all_matches_manual_merge(self, shards):
        ds = DistributedSearcher(shards, k=10)
        query = Query(query_id=0, terms=("t1", "t12"))
        merged = ds.search(query)
        manual = merge_results(
            [ds.search_shard(sid, query) for sid in range(len(shards))], 10
        )
        assert merged.hits == manual.hits

    def test_subset_search(self, shards):
        ds = DistributedSearcher(shards, k=10)
        query = Query(query_id=0, terms=("t1",))
        subset = ds.search(query, shard_ids=[0, 1])
        all_docs_on_01 = set(shards[0].arena.doc_ids.tolist()) | set(
            shards[1].arena.doc_ids.tolist()
        )
        assert all(doc in all_docs_on_01 for doc in subset.doc_ids())

    def test_contributions_sum_to_topk(self, shards):
        ds = DistributedSearcher(shards, k=10)
        query = Query(query_id=0, terms=("t1", "t12"))
        contributions = ds.shard_contributions(query)
        merged = ds.search(query)
        assert sum(contributions.values()) == len(merged.hits[:10])

    def test_contribution_k_capped(self, shards):
        ds = DistributedSearcher(shards, k=10)
        with pytest.raises(ValueError):
            ds.shard_contributions(Query(query_id=0, terms=("t1",)), k=50)

    def test_rejects_non_positive_k_at_construction(self, shards):
        with pytest.raises(ValueError, match="k must be positive"):
            DistributedSearcher(shards, k=0)

    def test_contribution_k_zero_is_rejected_not_defaulted(self, shards):
        ds = DistributedSearcher(shards, k=10)
        with pytest.raises(ValueError, match="k must be positive"):
            ds.shard_contributions(Query(query_id=0, terms=("t1",)), k=0)


class TestKernelDispatchAndTelemetry:
    """The searcher runs the MaxScore arena kernel; the scalar evaluators
    are the oracles, called directly, and the two must agree bit-for-bit
    through the full search/memoize path."""

    def test_registry_holds_kernels_not_reference_oracles(self, shards):
        from repro.retrieval import STRATEGIES, maxscore_search_kernel

        assert set(STRATEGIES) == {"exhaustive", "maxscore"}
        assert STRATEGIES["maxscore"] is maxscore_search_kernel
        assert STRATEGIES["exhaustive"] is exhaustive_search
        for oracle in ("maxscore_reference", "exhaustive_daat"):
            with pytest.raises(ValueError, match="unknown strategy"):
                ShardSearcher(shards[0], strategy=oracle)

    def test_kernel_strategy_matches_reference_through_searcher(self, shards):
        terms = ["t1", "t12", "t41"]
        query = Query(query_id=0, terms=tuple(terms))
        for name, reference in sorted(PRUNED.items()):
            kernel = ShardSearcher(shards[0], k=10, strategy=name)
            assert (
                kernel.search(query).fingerprint()
                == reference(shards[0], terms, 10).fingerprint()
            )

    def test_per_call_telemetry_records_kernel_spans_and_counters(self, shards):
        from repro.telemetry import Telemetry

        def kernel_spans(telemetry):
            return [s for s in telemetry.tracer.spans if s.name == "retrieval.kernel"]

        telemetry = Telemetry()
        searcher = ShardSearcher(shards[0], k=5, strategy="maxscore")
        searcher.search(Query(query_id=0, terms=("t1", "t12")), telemetry)
        spans = kernel_spans(telemetry)
        assert len(spans) == 1
        assert spans[0].track == "retrieval.0"
        assert spans[0].attrs["strategy"] == "maxscore"
        assert "chunks" in spans[0].attrs and "offers" in spans[0].attrs
        chunks = telemetry.metrics.counter("retrieval.kernel.chunks").value
        assert chunks >= 0  # small shards may dispatch to the scalar
        # Cached repeat: no new span, no double-count.
        searcher.search(Query(query_id=1, terms=("t1", "t12")), telemetry)
        assert len(kernel_spans(telemetry)) == 1
        # A call without a session records nothing, into this session or
        # any other: the searcher keeps none between calls.
        searcher.search(Query(query_id=2, terms=("t41",)))
        assert len(kernel_spans(telemetry)) == 1
        other = Telemetry()
        searcher.search(Query(query_id=3, terms=("t2",)), other)
        assert len(kernel_spans(telemetry)) == 1
        assert len(kernel_spans(other)) == 1

    def test_telemetry_never_changes_results(self, shards):
        from repro.telemetry import Telemetry

        plain = ShardSearcher(shards[0], k=10, strategy="maxscore")
        traced = ShardSearcher(shards[0], k=10, strategy="maxscore")
        query = Query(query_id=0, terms=("t1", "t12"))
        assert (
            plain.search(query).fingerprint()
            == traced.search(query, Telemetry()).fingerprint()
        )


class TestShardContributions:
    def test_one_search_per_shard(self, shards):
        """The contribution labels reuse a single memoized search per
        shard — the rewrite removed the second per-shard pass."""
        ds = DistributedSearcher(shards, k=10)
        query = Query(query_id=0, terms=("t1", "t12"))
        ds.shard_contributions(query)
        assert [s.computations for s in ds.cache_stats()] == [1] * len(shards)
        # ...and the global merge afterwards is pure cache hits.
        ds.search(query)
        assert [s.computations for s in ds.cache_stats()] == [1] * len(shards)

    def test_first_shard_wins_on_duplicate_doc_ids(self):
        """Disjoint partitioning makes duplicates impossible in practice;
        the tie rule still pins label determinism if it is violated."""
        def tiny_shard(shard_id):
            builder = IndexBuilder(shard_id, analyzer=WhitespaceAnalyzer())
            builder.add(Document(doc_id=7, text="apple apple banana"))
            return builder.build()

        ds = DistributedSearcher([tiny_shard(0), tiny_shard(1)], k=2)
        counts = ds.shard_contributions(
            Query(query_id=0, terms=("apple", "banana"))
        )
        # The merge keeps both copies of doc 7; every ambiguous hit is
        # attributed to the lowest shard id.
        assert counts[0] == 2 and counts[1] == 0
