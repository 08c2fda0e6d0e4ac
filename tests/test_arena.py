"""Columnar postings arena: layout, validation, traversal state, round-trip.

The arena is the shard: sorted-term columns that every reader — the
vectorized kernels, the scalar references, the term statistics —
slices the same way.  A layout bug would surface as a subtle ranking
change, so the constructor refuses malformed columns outright, and
these tests compare every column against the documents it was built
from and against the store round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import (
    Document,
    IndexBuilder,
    PostingsArena,
    open_store,
    write_store,
)
from repro.text import WhitespaceAnalyzer

VOCAB = [f"w{i}" for i in range(10)]


@pytest.fixture(scope="module")
def shard():
    builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
    for doc_id in range(60):
        words = [VOCAB[(doc_id * 3 + j) % len(VOCAB)] for j in range(doc_id % 8 + 1)]
        builder.add(Document(doc_id=doc_id, text=" ".join(words)))
    return builder.build()


class TestLayout:
    def test_terms_sorted_and_complete(self, shard):
        arena = shard.arena
        assert arena.terms == sorted(shard.terms())
        assert arena.n_postings == int(arena.offsets[-1]) == arena.doc_ids.size

    def test_columns_match_posting_lists(self, shard):
        """Every term's arena slice lists exactly the documents holding it."""
        arena = shard.arena
        for term in shard.terms():
            run = arena.run(term)
            holders = [
                doc_id for doc_id in range(60)
                if term in {VOCAB[(doc_id * 3 + j) % len(VOCAB)]
                            for j in range(doc_id % 8 + 1)}
            ]
            assert run.doc_ids.tolist() == holders
            assert run.size == len(holders) == shard.doc_freq(term)
            np.testing.assert_array_equal(run.scores, shard.scores(term))
            assert run.upper_bound == shard.upper_bound(term)
            assert run.upper_bound >= run.scores.max()

    def test_slices_are_views_not_copies(self, shard):
        """Zero-copy contract: runs alias the arena columns."""
        arena = shard.arena
        run = arena.run(arena.terms[0])
        assert run.doc_ids.base is arena.doc_ids or run.doc_ids is arena.doc_ids

    def test_missing_term_returns_none(self, shard):
        assert shard.arena.run("definitely_not_indexed") is None
        assert not shard.arena.has_term("definitely_not_indexed")


class TestTraversalState:
    def test_runs_are_independent(self, shard):
        """Each run() call returns fresh state: kernels mutate ``pos`` in
        place, and duplicated query terms must traverse separately."""
        arena = shard.arena
        term = arena.terms[0]
        a, b = arena.run(term), arena.run(term)
        a.pos = a.size
        assert b.pos == 0
        assert a.exhausted() and not b.exhausted()
        assert b.remaining() == b.size

    def test_arena_is_cached_on_shard(self, shard):
        assert shard.arena is shard.arena


class TestStorageRoundTrip:
    def test_loaded_shard_has_identical_arena(self, shard, tmp_path):
        loaded = open_store(write_store(shard, tmp_path / "shard_0.store"))
        a, b = shard.arena, loaded.arena
        assert a.terms == b.terms
        for col in ("offsets", "upper_bounds"):
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
        np.testing.assert_array_equal(shard.global_dfs, loaded.global_dfs)
        assert a.doc_ids.dtype == np.int32  # 60 documents: every id fits
        for term in a.terms:
            want, got = a.run(term).widen(), b.run(term).widen()
            assert got.doc_ids.dtype == want.doc_ids.dtype == np.int64
            assert got.doc_ids.tobytes() == want.doc_ids.tobytes()
            assert got.scores.tobytes() == want.scores.tobytes()


def columns(*terms):
    """``(terms, offsets, doc_ids, scores, upper_bounds)`` for
    ``(term, doc_ids)`` pairs, scored 0.5 per posting."""
    names = [term for term, _ in terms]
    sizes = [len(docs) for _, docs in terms]
    doc_ids = [doc for _, docs in terms for doc in docs]
    return (
        names, np.cumsum([0] + sizes), doc_ids,
        [0.5] * len(doc_ids), [0.5] * len(names),
    )


GOOD = columns(("a", [1, 4, 9]), ("b", [0, 4]))


class TestConstructorRejects:
    """Every malformed column is a one-line ``ValueError`` at construction
    — never a misaligned slice that the kernel and the scalar paths then
    read differently."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("offsets", [1, 3, 5], r"offsets run 1\.\.5, expected 0\.\.5"),
            ("offsets", [0, 3, 4], r"offsets run 0\.\.4, expected 0\.\.5"),
            ("offsets", [0, 6, 5], "offsets decrease at term 'b' \\(5 after 6\\)"),
            ("offsets", [0, 5], "2 terms need 3 offsets"),
            ("scores", [0.5] * 4, "unequal length \\(5 doc ids, 4 scores\\)"),
            ("doc_ids", [1, 4, 9, 0], "unequal length \\(4 doc ids, 5 scores\\)"),
            ("upper_bounds", [0.5], "and 2 upper bounds, got 3 and 1"),
            ("terms", ["b", "a"], "unsorted term 'a' after 'b'"),
            ("terms", ["a", "a"], "duplicate term 'a' after 'a'"),
            ("doc_ids", [1, 9, 4, 0, 4], r"term 'a': doc_ids must be strictly increasing \(4 after 9\)"),
            ("doc_ids", [1, 4, 4, 0, 4], r"term 'a': doc_ids must be strictly increasing \(4 after 4\)"),
            ("doc_ids", [1, 4, 9, 0, 0], r"term 'b': doc_ids must be strictly increasing \(0 after 0\)"),
            ("doc_ids", [1, 4, 9, -2, 4], "term 'b': negative doc id -2"),
        ],
    )
    def test_malformed_columns(self, field, value, message):
        names = ("terms", "offsets", "doc_ids", "scores", "upper_bounds")
        given = dict(zip(names, GOOD))
        given[field] = value
        with pytest.raises(ValueError, match=message) as caught:
            PostingsArena(**given)
        assert "\n" not in str(caught.value)

    def test_well_formed_columns_pass_and_keep_their_dtypes(self):
        arena = PostingsArena(*GOOD)
        assert arena.doc_ids.dtype == np.int32  # every id fits: narrowed once
        assert arena.scores.dtype == np.float64
        assert arena.run("b").doc_ids.tolist() == [0, 4]
        wide = arena.run("b").widen()
        assert wide.doc_ids.dtype == np.int64 and wide.doc_ids.tolist() == [0, 4]
        assert PostingsArena([], [0], [], [], []).n_postings == 0

    def test_hand_built_term_with_fewer_scores_is_refused(self):
        """A term of 3 doc ids and 1 score would slice the next term's
        scores against the wrong doc ids."""
        with pytest.raises(ValueError, match="unequal length"):
            PostingsArena(
                ["a", "b"], [0, 3, 5], [1, 2, 3, 1, 4], [0.5] * 3, [0.5, 0.5],
            )
