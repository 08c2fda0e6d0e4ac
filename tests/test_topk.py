"""Unit + property tests for the top-K collector."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import TopKCollector


class TestTopK:
    def test_keeps_best_k(self):
        collector = TopKCollector(2)
        for doc, score in [(1, 1.0), (2, 3.0), (3, 2.0)]:
            collector.offer(doc, score)
        assert collector.results() == [(2, 3.0), (3, 2.0)]

    def test_tie_break_prefers_smaller_doc_id(self):
        collector = TopKCollector(1)
        collector.offer(7, 5.0)
        collector.offer(3, 5.0)
        assert collector.results() == [(3, 5.0)]

    def test_tie_break_insertion_order_independent(self):
        a = TopKCollector(2)
        b = TopKCollector(2)
        entries = [(1, 2.0), (2, 2.0), (3, 2.0)]
        for doc, score in entries:
            a.offer(doc, score)
        for doc, score in reversed(entries):
            b.offer(doc, score)
        assert a.results() == b.results()

    def test_threshold_before_full(self):
        collector = TopKCollector(3)
        collector.offer(1, 5.0)
        assert collector.threshold() == float("-inf")

    def test_threshold_after_full(self):
        collector = TopKCollector(2)
        collector.offer(1, 5.0)
        collector.offer(2, 3.0)
        assert collector.threshold() == 3.0

    def test_offer_returns_entry_status(self):
        collector = TopKCollector(1)
        assert collector.offer(1, 1.0)
        assert collector.offer(2, 2.0)
        assert not collector.offer(3, 0.5)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopKCollector(0)


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 500), st.floats(0, 100)), min_size=0, max_size=100
    ),
    k=st.integers(1, 12),
)
def test_matches_sort_reference(entries, k):
    """Collector output == dedup-free sort by (-score, doc_id) top-k."""
    collector = TopKCollector(k)
    for doc, score in entries:
        collector.offer(doc, score)
    expected = sorted(entries, key=lambda e: (-e[1], e[0]))[:k]
    got = collector.results()
    # The collector doesn't deduplicate doc ids (callers never offer twice),
    # so compare against the raw sorted reference.
    assert got == expected


@settings(max_examples=80, deadline=None)
@given(
    scores=st.lists(st.floats(0, 100), min_size=1, max_size=80),
    k=st.integers(1, 10),
)
def test_threshold_is_kth_best(scores, k):
    collector = TopKCollector(k)
    for i, score in enumerate(scores):
        collector.offer(i, score)
    if len(scores) < k:
        assert collector.threshold() == float("-inf")
    else:
        assert collector.threshold() == heapq.nlargest(k, scores)[-1]


class TestThresholdTieSemantics:
    """The heap-boundary tie rules the kernels' offer pre-filter relies on.

    The vectorized kernels skip collector offers with score strictly
    below the threshold on the grounds that they are guaranteed no-ops;
    scores *equal* to the threshold must still be offered because the
    doc-id tie-break can admit them.  These tests pin both halves of
    that contract at the exact boundary.
    """

    def test_equal_score_smaller_doc_enters_full_heap(self):
        collector = TopKCollector(2)
        assert collector.offer(10, 1.0)
        assert collector.offer(20, 1.0)
        # Ties threshold, smaller id than the incumbent root (doc 20).
        assert collector.offer(15, 1.0)
        assert collector.results() == [(10, 1.0), (15, 1.0)]
        assert collector.threshold() == 1.0

    def test_equal_score_larger_doc_is_rejected(self):
        collector = TopKCollector(2)
        collector.offer(10, 1.0)
        collector.offer(20, 1.0)
        assert not collector.offer(30, 1.0)
        assert collector.results() == [(10, 1.0), (20, 1.0)]

    def test_below_threshold_offer_is_a_noop(self):
        """The pre-filter theorem: score < threshold cannot change the
        heap, whatever its doc id."""
        collector = TopKCollector(2)
        collector.offer(10, 2.0)
        collector.offer(20, 1.0)
        before = collector.results()
        assert not collector.offer(0, 1.0 - 1e-12)
        assert collector.results() == before
        assert collector.threshold() == 1.0

    def test_threshold_unchanged_by_equal_score_replacement(self):
        """An admitted tie replaces the root but leaves the threshold
        float identical — the kernels compare thresholds by value to
        decide whether a segment restart is needed."""
        collector = TopKCollector(2)
        collector.offer(10, 1.0)
        collector.offer(20, 1.0)
        before = collector.threshold()
        assert collector.offer(15, 1.0)
        assert collector.threshold() == before

    def test_threshold_is_minus_inf_until_kth_insert(self):
        collector = TopKCollector(3)
        collector.offer(1, 5.0)
        collector.offer(2, 4.0)
        assert collector.threshold() == float("-inf")
        collector.offer(3, 3.0)
        assert collector.threshold() == 3.0
