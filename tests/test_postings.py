"""Unit + property tests for posting lists and cursors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BLOCK_SIZE
from repro.index.postings import END_OF_LIST, PostingList


def make_list(doc_ids, tfs=None):
    doc_ids = list(doc_ids)
    tfs = tfs or [1] * len(doc_ids)
    return PostingList(
        doc_ids=np.asarray(doc_ids, dtype=np.int64),
        tfs=np.asarray(tfs, dtype=np.int32),
    )


class TestPostingList:
    def test_length_and_max_tf(self):
        postings = make_list([1, 5, 9], [2, 7, 1])
        assert len(postings) == 3
        assert postings.max_tf == 7

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_list([3, 2, 5])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_list([2, 2])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PostingList(
                doc_ids=np.array([1, 2], dtype=np.int64),
                tfs=np.array([1], dtype=np.int32),
            )

    def test_empty_list(self):
        postings = make_list([])
        assert len(postings) == 0
        assert postings.max_tf == 0
        assert postings.cursor().doc() == END_OF_LIST


class TestCursor:
    def test_walks_in_order(self):
        cursor = make_list([2, 4, 8]).cursor()
        seen = []
        while cursor.doc() != END_OF_LIST:
            seen.append(cursor.doc())
            cursor.next()
        assert seen == [2, 4, 8]

    def test_next_geq_exact_hit(self):
        cursor = make_list([2, 4, 8]).cursor()
        assert cursor.next_geq(4) == 4
        assert cursor.tf() == 1

    def test_next_geq_lands_after_gap(self):
        cursor = make_list([2, 4, 8]).cursor()
        assert cursor.next_geq(5) == 8

    def test_next_geq_past_end(self):
        cursor = make_list([2, 4, 8]).cursor()
        assert cursor.next_geq(9) == END_OF_LIST
        assert cursor.exhausted()

    def test_next_geq_does_not_move_backwards(self):
        cursor = make_list([2, 4, 8]).cursor()
        cursor.next_geq(8)
        assert cursor.next_geq(3) == 8

    def test_position_and_remaining(self):
        cursor = make_list([2, 4, 8]).cursor()
        assert cursor.position == 0
        assert cursor.remaining() == 3
        cursor.next()
        assert cursor.position == 1
        assert cursor.remaining() == 2

    def test_score_requires_attachment(self):
        cursor = make_list([2]).cursor()
        with pytest.raises(AssertionError):
            cursor.score()
        cursor.scores = np.array([1.5])
        assert cursor.score() == 1.5


def test_shard_term_block_maxes_dominate_scores(shards):
    shard = shards[0]
    for term in shard.terms()[:10]:
        entry = shard.term(term)
        for i, score in enumerate(entry.scores):
            assert score <= entry.block_maxes[i // BLOCK_SIZE] + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    doc_ids=st.lists(st.integers(0, 10_000), min_size=1, max_size=80, unique=True),
    targets=st.lists(st.integers(0, 11_000), min_size=1, max_size=20),
)
def test_next_geq_matches_linear_scan(doc_ids, targets):
    """Galloping next_geq must land exactly where a linear scan would."""
    doc_ids = sorted(doc_ids)
    cursor = make_list(doc_ids).cursor()
    position = 0
    for target in sorted(targets):
        while position < len(doc_ids) and doc_ids[position] < target:
            position += 1
        expected = doc_ids[position] if position < len(doc_ids) else END_OF_LIST
        assert cursor.next_geq(target) == expected


@settings(max_examples=100, deadline=None)
@given(doc_ids=st.lists(st.integers(0, 5000), min_size=1, max_size=60, unique=True))
def test_full_walk_visits_everything(doc_ids):
    doc_ids = sorted(doc_ids)
    cursor = make_list(doc_ids).cursor()
    walked = []
    while not cursor.exhausted():
        walked.append(cursor.doc())
        cursor.next()
    assert walked == doc_ids


def test_next_geq_gallop_never_bisects_full_array(monkeypatch):
    """Regression: the gallop's exit bracket is clamped to the array tail,
    so the bisect always runs on the bracketed slice.  An earlier version
    fell back to bisecting the *whole* array when the gallop overshot,
    which silently degraded long-range skips from O(log gap) to
    O(log n) — invisible to correctness tests, so pin the slice sizes.
    """
    doc_ids = list(range(0, 4000, 3))
    full = len(doc_ids)
    cursor = make_list(doc_ids).cursor()
    assert cursor.next_geq(7) == 9  # move off position 0 first

    recorded = []
    real = np.searchsorted

    def recording(a, v, side="left", sorter=None):
        recorded.append(int(np.asarray(a).size))
        return real(a, v, side=side, sorter=sorter)

    monkeypatch.setattr(np, "searchsorted", recording)

    position = cursor.position
    for target in (10, 400, 1501, 3998, 5000):
        while position < full and doc_ids[position] < target:
            position += 1
        expected = doc_ids[position] if position < full else END_OF_LIST
        assert cursor.next_geq(target) == expected
    assert recorded, "skips above should have galloped + bisected"
    assert all(size < full for size in recorded)
