"""One doc-id width rule for both arena kinds.

A raw ``PostingsArena`` keeps its doc ids as ``int32`` when every id is
in ``[0, 2**31 - 1]`` and as ``int64`` otherwise — one dtype for the
whole arena, decided by ``arena.doc_id_dtype``, the helper the
compressed arena feeds its metadata bound.  Pinned here:

* the boundaries — a largest id of ``2**31 - 1`` is ``int32``, one id of
  ``2**31`` makes every run ``int64``, a negative id is still the
  constructor's one-line error;
* no copies — ``int32`` columns are adopted as given, and neither
  builder hands the constructor an ``int64`` doc-id column for a shard
  whose ids fit;
* the benchmark's shards hold 4 bytes per doc id;
* ``build_scaled_shards`` refuses degenerate sizes with one line;
* a Hypothesis property: the MaxScore kernel, ``exhaustive_search`` and
  both scalar references answer bit-identically on the same postings
  held as ``int32`` and as ``int64``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from conftest import hand_built_shard
from hypothesis import given
from hypothesis import strategies as st

import repro.experiments.bench_storage as bench_storage
import repro.index.builder as builder_module
from repro.experiments.bench_storage import build_scaled_shards
from repro.index import Document, IndexBuilder, PostingsArena
from repro.index.arena import doc_id_dtype
from repro.retrieval import (
    exhaustive_search,
    exhaustive_search_daat,
    maxscore_search,
    maxscore_search_kernel,
)
from repro.text import WhitespaceAnalyzer

INT32_MAX = 2**31 - 1


def arena_of(doc_ids, dtype=np.int64) -> PostingsArena:
    """One term ``a`` over ``doc_ids``, scored 0.5 per posting."""
    ids = np.asarray(doc_ids, dtype=dtype)
    return PostingsArena(["a"], [0, ids.size], ids, [0.5] * ids.size, [0.5])


# --------------------------------------------------------------- the rule
class TestWidthRule:
    @pytest.mark.parametrize(
        "lowest, highest, dtype",
        [
            (0, 0, np.int32),
            (0, INT32_MAX, np.int32),
            (0, INT32_MAX + 1, np.int64),
            (-1, 5, np.int64),
            (0, float(INT32_MAX), np.int32),  # the compressed arena's float bound
            (0, float(INT32_MAX) + 1, np.int64),
        ],
    )
    def test_doc_id_dtype(self, lowest, highest, dtype):
        assert doc_id_dtype(lowest, highest) is dtype

    def test_largest_int32_id_stays_int32(self):
        arena = arena_of([0, 7, INT32_MAX])
        assert arena.doc_ids.dtype == np.int32
        assert arena.run("a").doc_ids.tolist() == [0, 7, INT32_MAX]

    def test_one_id_past_int32_widens_the_whole_arena(self):
        arena = PostingsArena(
            ["a", "b"], [0, 2, 4], [1, 2, 3, 2**31], [0.5] * 4, [0.5, 0.5]
        )
        assert arena.doc_ids.dtype == np.int64
        for term in ("a", "b"):
            assert arena.run(term).doc_ids.dtype == np.int64
        assert arena.run("b").doc_ids.tolist() == [3, 2**31]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_id_is_still_a_one_line_error(self, dtype):
        with pytest.raises(ValueError, match="term 'a': negative doc id -3") as caught:
            arena_of([-3, 4], dtype)
        assert "\n" not in str(caught.value)

    def test_empty_arena_is_int32(self):
        assert PostingsArena([], [0], [], [], []).doc_ids.dtype == np.int32


# ------------------------------------------------------------- no copies
class TestNoWideCopy:
    def test_int32_column_is_adopted_without_a_copy(self):
        ids = np.array([2, 5, 11], dtype=np.int32)
        assert np.shares_memory(arena_of(ids, np.int32).doc_ids, ids)

    @pytest.fixture
    def handed(self, monkeypatch):
        """The doc-id dtypes each builder passes the arena constructor."""
        seen = []

        def spy(terms, offsets, doc_ids, scores, upper_bounds):
            seen.append(doc_ids.dtype)
            arena = PostingsArena(terms, offsets, doc_ids, scores, upper_bounds)
            assert np.shares_memory(arena.doc_ids, doc_ids)
            return arena

        monkeypatch.setattr(builder_module, "PostingsArena", spy)
        monkeypatch.setattr(bench_storage, "PostingsArena", spy)
        return seen

    def test_index_builder_writes_int32(self, handed):
        builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
        for doc_id, text in ((4, "a b"), (9, "b c"), (INT32_MAX, "a c")):
            builder.add(Document(doc_id=doc_id, text=text))
        assert builder.build().arena.doc_ids.dtype == np.int32
        assert handed == [np.int32]

    def test_index_builder_writes_int64_past_int32(self, handed):
        builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
        for doc_id in (4, 2**31):
            builder.add(Document(doc_id=doc_id, text="a"))
        assert builder.build().arena.run("a").doc_ids.tolist() == [4, 2**31]
        assert handed == [np.int64]

    def test_scaled_shards_write_int32(self, handed):
        build_scaled_shards(2, 50, 6, seed=1)
        assert handed == [np.int32, np.int32]


def test_benchmark_shards_hold_four_bytes_per_doc_id():
    for shard in build_scaled_shards(4, 150_000, 96, 0):
        assert shard.arena.doc_ids.dtype == np.int32
        assert shard.arena.doc_ids.nbytes == 4 * shard.arena.n_postings


# ----------------------------------------------------- degenerate sizes
@pytest.mark.parametrize(
    "sizes, name",
    [
        ((1, 1, 4, 0), "docs_per_shard must be at least 2, got 1"),
        ((1, 0, 4, 0), "docs_per_shard must be at least 2, got 0"),
        ((-1, 10, 4, 0), "n_shards must be at least 0, got -1"),
        ((1, 10, -2, 0), "vocab_size must be at least 0, got -2"),
    ],
)
def test_scaled_shards_refuse_degenerate_sizes(sizes, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        with pytest.raises(ValueError, match=name) as caught:
            build_scaled_shards(*sizes)
    assert "\n" not in str(caught.value)


def test_scaled_shards_accept_the_smallest_sizes():
    assert build_scaled_shards(0, 2, 4, 0) == []
    assert build_scaled_shards(1, 10, 0, 0)[0].arena.n_terms == 0
    (shard,) = build_scaled_shards(1, 2, 3, 0)
    assert shard.arena.doc_ids.tolist() == [0, 1] * 3


# ----------------------------------------------------- answers unchanged
def forced_kernel(shard, terms, k):
    return maxscore_search_kernel(shard, terms, k, min_postings=0)


SEARCHES = (forced_kernel, maxscore_search, exhaustive_search, exhaustive_search_daat)

TERMS = ["a", "b", "c", "d"]

postings = st.dictionaries(
    st.sampled_from(TERMS),
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(0, 200), st.integers(INT32_MAX - 200, INT32_MAX)
            ),
            st.sampled_from([0.25, 0.5, 1.0, 1.75, 3.0]),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda posting: posting[0],
    ),
    min_size=1,
)


@given(
    postings,
    st.lists(st.sampled_from(TERMS + ["oov"]), min_size=1, max_size=5),
    st.integers(1, 12),
)
def test_int32_and_int64_columns_answer_bit_identically(columns, query, k):
    columns = {
        term: ([doc for doc, _ in sorted(pairs)], [s for _, s in sorted(pairs)])
        for term, pairs in columns.items()
    }
    narrow = hand_built_shard(columns)
    wide = hand_built_shard(columns)
    wide.arena.doc_ids = wide.arena.doc_ids.astype(np.int64)  # forced wide
    assert narrow.arena.doc_ids.dtype == np.int32
    for search in SEARCHES:
        assert (
            search(narrow, list(query), k).fingerprint()
            == search(wide, list(query), k).fingerprint()
        ), search.__name__
