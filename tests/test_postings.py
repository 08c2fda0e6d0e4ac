"""Unit + property tests for posting columns and cursors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import PostingsArena
from repro.index.postings import END_OF_LIST, PostingCursor


def make_list(doc_ids, scores=None):
    """A one-term arena: the posting list of ``t``."""
    doc_ids = list(doc_ids)
    scores = [0.5] * len(doc_ids) if scores is None else scores
    return PostingsArena(["t"], [0, len(doc_ids)], doc_ids, scores, [0.5])


def make_cursor(doc_ids):
    return PostingCursor(make_list(doc_ids).run("t").doc_ids)


class TestPostingList:
    """A posting list is its term's arena slice; the arena refuses one
    that no cursor could walk."""

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_list([3, 2, 5])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_list([2, 2])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="unequal length"):
            make_list([1, 2], scores=[0.5])

    def test_empty_list(self):
        postings = make_list([])
        assert postings.n_postings == postings.run("t").size == 0
        assert make_cursor([]).doc() == END_OF_LIST


class TestCursor:
    def test_walks_in_order(self):
        cursor = make_cursor([2, 4, 8])
        seen = []
        while cursor.doc() != END_OF_LIST:
            seen.append(cursor.doc())
            cursor.next()
        assert seen == [2, 4, 8]

    def test_next_geq_exact_hit(self):
        cursor = make_cursor([2, 4, 8])
        assert cursor.next_geq(4) == 4

    def test_next_geq_lands_after_gap(self):
        cursor = make_cursor([2, 4, 8])
        assert cursor.next_geq(5) == 8

    def test_next_geq_past_end(self):
        cursor = make_cursor([2, 4, 8])
        assert cursor.next_geq(9) == END_OF_LIST
        assert cursor.exhausted()

    def test_next_geq_does_not_move_backwards(self):
        cursor = make_cursor([2, 4, 8])
        cursor.next_geq(8)
        assert cursor.next_geq(3) == 8

    def test_position_and_remaining(self):
        cursor = make_cursor([2, 4, 8])
        assert cursor.position == 0
        assert cursor.remaining() == 3
        cursor.next()
        assert cursor.position == 1
        assert cursor.remaining() == 2

    def test_score_requires_attachment(self):
        cursor = make_cursor([2])
        with pytest.raises(AssertionError):
            cursor.score()
        cursor.scores = np.array([1.5])
        assert cursor.score() == 1.5


@settings(max_examples=200, deadline=None)
@given(
    doc_ids=st.lists(st.integers(0, 10_000), min_size=1, max_size=80, unique=True),
    targets=st.lists(st.integers(0, 11_000), min_size=1, max_size=20),
)
def test_next_geq_matches_linear_scan(doc_ids, targets):
    """Galloping next_geq must land exactly where a linear scan would."""
    doc_ids = sorted(doc_ids)
    cursor = make_cursor(doc_ids)
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
    cursor = make_cursor(doc_ids)
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
    cursor = make_cursor(doc_ids)
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
