"""Unit + property tests for index-time term statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.term_stats import (
    TermStatsIndex,
    _docs_ever_in_topk,
    _local_maxima_mask,
    compute_term_stats,
)


class TestLocalMaxima:
    def test_simple_peak(self):
        mask = _local_maxima_mask(np.array([1.0, 3.0, 2.0]))
        assert mask.tolist() == [False, True, False]

    def test_plateau_counts_first(self):
        mask = _local_maxima_mask(np.array([1.0, 3.0, 3.0, 2.0]))
        assert mask.tolist() == [False, True, False, False]

    def test_endpoints(self):
        assert _local_maxima_mask(np.array([5.0, 1.0])).tolist() == [True, False]
        assert _local_maxima_mask(np.array([1.0, 5.0])).tolist() == [False, True]

    def test_single_element(self):
        assert _local_maxima_mask(np.array([2.0])).tolist() == [True]

    def test_empty(self):
        assert _local_maxima_mask(np.zeros(0)).size == 0

    def test_monotone_increasing_has_one_peak(self):
        mask = _local_maxima_mask(np.arange(10, dtype=float))
        assert mask.sum() == 1 and mask[-1]


class TestDocsEverInTopK:
    def test_ascending_all_enter(self):
        assert _docs_ever_in_topk(np.arange(10, dtype=float), 3) == 10

    def test_descending_only_first_k(self):
        assert _docs_ever_in_topk(np.arange(10, 0, -1, dtype=float), 3) == 3

    def test_k_larger_than_list(self):
        assert _docs_ever_in_topk(np.array([1.0, 2.0]), 10) == 2


class TestComputeTermStats:
    def test_aggregates(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        stats = compute_term_stats("t", scores, k=2, idf=1.5, upper_bound=5.0)
        assert stats.posting_length == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.max_score == 4.0
        assert stats.kth_score == 3.0  # 2nd largest
        assert stats.idf == 1.5
        assert stats.variance == pytest.approx(np.var(scores))

    def test_kth_score_short_list(self):
        stats = compute_term_stats("t", np.array([2.0, 5.0]), k=10, idf=1.0, upper_bound=5.0)
        assert stats.kth_score == 2.0  # fewer than k postings: min score

    def test_empty_scores(self):
        stats = compute_term_stats("t", np.zeros(0), k=5, idf=0.7, upper_bound=0.0)
        assert stats.posting_length == 0
        assert stats.max_score == 0.0
        assert stats.idf == 0.7

    def test_geometric_harmonic_means(self):
        scores = np.array([1.0, 4.0])
        stats = compute_term_stats("t", scores, k=1, idf=1.0, upper_bound=4.0)
        assert stats.geometric_mean == pytest.approx(2.0)
        assert stats.harmonic_mean == pytest.approx(1.6)

    def test_n_max_and_within_5pct(self):
        scores = np.array([10.0, 10.0, 9.6, 5.0])
        stats = compute_term_stats("t", scores, k=2, idf=1.0, upper_bound=10.0)
        assert stats.n_max_score == 2
        assert stats.docs_within_5pct_of_max == 3  # >= 9.5


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=60),
    k=st.integers(1, 15),
)
def test_term_stats_invariants(scores, k):
    arr = np.asarray(scores)
    stats = compute_term_stats("t", arr, k=k, idf=1.0, upper_bound=float(arr.max()))
    assert stats.posting_length == arr.size
    assert stats.first_quartile <= stats.median <= stats.third_quartile
    assert stats.harmonic_mean <= stats.geometric_mean + 1e-9
    assert stats.geometric_mean <= stats.mean + 1e-9
    assert stats.kth_score <= stats.max_score + 1e-12
    assert 1 <= stats.n_local_maxima <= arr.size
    assert stats.n_local_maxima_above_mean <= stats.n_local_maxima
    assert 0 <= stats.docs_ever_in_topk <= arr.size
    assert stats.docs_ever_in_topk >= min(k, arr.size)


class TestTermStatsIndex:
    def test_caches(self, shards):
        index = TermStatsIndex(shards[0], k=5)
        term = shards[0].terms()[0]
        first = index.get(term)
        assert index.get(term) is first
        assert len(index) == 1

    def test_missing_term_is_empty_stats(self, shards):
        index = TermStatsIndex(shards[0], k=5)
        stats = index.get("never-seen-term")
        assert stats.posting_length == 0

    def test_rejects_bad_k(self, shards):
        with pytest.raises(ValueError):
            TermStatsIndex(shards[0], k=0)
