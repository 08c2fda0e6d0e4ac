"""Columnar postings arena: layout, traversal state, storage round-trip.

The arena is the data layout the vectorized kernels trust blindly —
sorted-term columns whose slices must equal the per-term posting lists
posting-for-posting, score-for-score.  A layout bug here would surface
as a subtle ranking change, so these tests compare every column against
the cursor-level ground truth.
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
        """Every term's arena slice equals its cursor-level posting list."""
        arena = shard.arena
        for term in shard.terms():
            entry = shard.term(term)
            run = arena.run(term)
            np.testing.assert_array_equal(run.doc_ids, entry.postings.doc_ids)
            np.testing.assert_array_equal(
                arena.term_tfs(term), entry.postings.tfs
            )
            np.testing.assert_array_equal(run.scores, entry.scores)
            assert run.upper_bound == entry.upper_bound
            if entry.block_maxes is not None:
                np.testing.assert_array_equal(run.block_maxes, entry.block_maxes)
            assert run.size == len(entry.postings)

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

    def test_build_materializes_arena_eagerly(self):
        builder = IndexBuilder(3, analyzer=WhitespaceAnalyzer())
        builder.add(Document(doc_id=0, text="w0 w1"))
        built = builder.build()
        assert built._arena is not None


class TestStorageRoundTrip:
    def test_loaded_shard_has_identical_arena(self, shard, tmp_path):
        loaded = open_store(write_store(shard, tmp_path / "shard_0.store"))
        a, b = shard.arena, PostingsArena.from_shard(loaded)
        assert a.terms == b.terms
        for col in ("offsets", "doc_ids", "tfs", "scores",
                    "upper_bounds", "block_maxes", "block_offsets"):
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
        assert a.block_size == b.block_size

    def test_from_shard_rebuild_matches_cached(self, shard):
        rebuilt = PostingsArena.from_shard(shard)
        cached = shard.arena
        assert rebuilt.terms == cached.terms
        np.testing.assert_array_equal(rebuilt.doc_ids, cached.doc_ids)
        np.testing.assert_array_equal(rebuilt.scores, cached.scores)
