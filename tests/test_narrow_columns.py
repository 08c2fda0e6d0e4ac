"""The decode LRU's narrow columns and the kernels that read them.

A compressed arena keeps a term's doc ids in one arena-wide dtype
(``int32`` when the per-term metadata proves every id fits) and its
scores as codebook indices behind a gather-on-read ``CodedScores``
column.  Pinned here:

* values — for every term the narrow run carries the raw arena's doc ids
  and hands out its exact float64 score bits by slice, index array and
  int;
* the fallback — one doc id of 2**31 or more makes *every* run of the
  arena ``int64`` and the kernel still equals the raw shard;
* the needle rule — ``maxscore_search_kernel`` never searches a doc-id
  column with a needle of another dtype (a Python int against ``int32``
  makes numpy upcast the whole column per call);
* two Hypothesis properties: the gather-on-read column equals
  ``book[codes][key]`` bit for bit, and ``decode_stats.bytes`` is the
  ``nbytes`` of what the LRU retains under any budget and access order.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import hand_built_shard, shard_columns
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.bench_storage import build_scaled_shards
from repro.index import (
    CodedScores,
    CompressedPostingsArena,
    open_store_buffer,
    serialize_shard,
)
from repro.retrieval import maxscore_search_kernel

QUERIES = [
    ["t000", "t001"],
    ["t001", "t002", "t007"],
    ["t000", "t003", "t005", "t010"],
    ["t002", "t004"],
    ["t006"],
    ["t000", "oov"],
]


def bits(scores) -> bytes:
    return np.asarray(scores, dtype=np.float64).tobytes()


@pytest.fixture(scope="module")
def shard():
    return build_scaled_shards(1, 9000, 16, seed=5)[0]


@pytest.fixture(scope="module")
def blob(shard) -> bytes:
    return serialize_shard(shard)


# ------------------------------------------------------------------ values
class TestNarrowRunValues:
    def test_every_term_reads_the_raw_columns(self, shard, blob):
        lazy = open_store_buffer(blob)
        arena = lazy.arena
        assert arena.doc_dtype == np.int32
        coded = 0
        for term in shard.terms():
            raw = shard.arena.run(term)
            run = arena.run(term)
            assert run.size == raw.size and len(run.scores) == raw.size
            assert run.doc_ids.dtype == np.int32
            np.testing.assert_array_equal(run.doc_ids, raw.doc_ids)
            coded += isinstance(run.scores, CodedScores)
            picks = np.arange(raw.size - 1, -1, -3)  # descending: unsorted
            for key in (slice(raw.size // 3, raw.size - 1), picks, raw.size // 2):
                assert bits(run.scores[key]) == bits(raw.scores[key]), (term, key)
            assert bits(run.scores) == bits(raw.scores)
        assert coded >= 8  # the head terms are codebook-scored

    def test_lazy_term_is_the_in_memory_term(self, shard, blob):
        lazy = open_store_buffer(blob)
        assert shard.arena.doc_ids.dtype == np.int32
        for term in shard.terms():
            want, got = shard.arena.run(term).widen(), lazy.arena.run(term).widen()
            for have, expect, dtype in (
                (got.doc_ids, want.doc_ids, np.int64),
                (got.scores, want.scores, np.float64),
            ):
                assert type(have) is np.ndarray and have.dtype == dtype
                assert have.tobytes() == expect.tobytes()

    def test_widen_is_a_no_op_on_a_raw_run(self, shard):
        """On a raw run whose ids exceed ``int32`` (an ``int64`` arena);
        a raw ``int32`` run is copied wide instead."""
        run = with_far_document(shard, 2**31).arena.run("t000")
        doc_ids, scores = run.doc_ids, run.scores
        assert doc_ids.dtype == np.int64
        assert run.widen() is run
        assert run.doc_ids is doc_ids and run.scores is scores
        narrow = shard.arena.run("t000")
        assert narrow.doc_ids.dtype == np.int32
        assert narrow.widen().doc_ids.dtype == np.int64


# ---------------------------------------------------------------- fallback
def with_far_document(shard, doc_id: int):
    """``shard``'s terms plus one term holding ``doc_id``, as a new shard."""
    columns = shard_columns(shard)
    columns["far"] = ([3, doc_id], [0.25, 0.5])
    return hand_built_shard(
        columns, shard_id=shard.shard_id, n_docs=shard.n_docs,
        avg_doc_length=shard.avg_doc_length, total_tokens=shard.total_tokens,
        n_docs_global=shard.n_docs_global,
    )


class TestInt64Fallback:
    @pytest.mark.parametrize("doc_id", [2**31, 2**40 + 7])
    def test_one_far_doc_id_widens_every_run(self, shard, doc_id):
        memory = with_far_document(shard, doc_id)
        lazy = open_store_buffer(serialize_shard(memory))
        arena = lazy.arena
        assert arena.doc_dtype == np.int64
        for term in memory.terms():
            run = arena.run(term)
            assert run.doc_ids.dtype == np.int64, term  # never per term
            np.testing.assert_array_equal(run.doc_ids, memory.arena.run(term).doc_ids)
        assert arena.run("far").doc_ids.tolist() == [3, doc_id]
        for terms in QUERIES + [["far", "t000"], ["t003", "far", "t001"]]:
            want = maxscore_search_kernel(memory, list(terms), 10, min_postings=0)
            got = maxscore_search_kernel(lazy, list(terms), 10, min_postings=0)
            assert got.fingerprint() == want.fingerprint(), terms

    def test_the_bound_not_the_values_decides(self):
        """The rule reads metadata only, so it is conservative: ids that
        would fit but whose ``first + (count - 1) * 2**width`` bound does
        not are kept ``int64``."""
        def arena_of(doc_ids):
            n = len(doc_ids)
            shard = hand_built_shard(
                {"t": (doc_ids, np.linspace(0.1, 0.9, n))}
            )
            return CompressedPostingsArena.from_arena(shard.arena)

        top = 2**31 - 1
        # first 0, one gap of 2**31 - 2 stored in 31 bits: bound 2**31.
        assert arena_of([0, top]).doc_dtype == np.int64
        # first 2**31 - 1 alone: the bound is the id itself and fits.
        assert arena_of([top]).doc_dtype == np.int32
        # first 2**31 - 3, one gap of 1 (stored 0, width 1): bound 2**31 - 1.
        fits = arena_of([top - 2, top - 1])
        assert fits.doc_dtype == np.int32
        assert fits.run("t").doc_ids.tolist() == [top - 2, top - 1]
        assert arena_of([top, top + 1]).doc_dtype == np.int64


# ------------------------------------------------------------- needle rule
class TypedNeedles(np.ndarray):
    """A doc-id column that refuses a needle of another dtype.

    The priority makes ``np.concatenate`` keep the subclass, so the
    kernel's merged candidate block is guarded like the runs' own
    columns; ``np.searchsorted(a, v)`` lands here too (it calls the
    method)."""

    __array_priority__ = 1.0
    scalar_searches = 0

    def searchsorted(self, v, side="left", sorter=None):
        needle = np.asarray(v)
        assert needle.dtype == self.dtype, (
            f"{needle.dtype} needle on a {self.dtype} column: numpy would "
            "upcast the whole column for this one call"
        )
        if needle.ndim == 0:
            TypedNeedles.scalar_searches += 1
        return self.view(np.ndarray).searchsorted(v, side=side, sorter=sorter)


class NarrowStub:
    """The one thing the kernel needs of a shard — ``arena.run`` — with
    every run's doc ids an ``int32`` :class:`TypedNeedles`."""

    def __init__(self, shard) -> None:
        self.arena = self
        self._runs = shard.arena.run

    def run(self, term: str):
        run = self._runs(term)
        if run is not None:
            run.doc_ids = run.doc_ids.astype(np.int32).view(TypedNeedles)
        return run


class TestNeedlesCarryTheColumnDtype:
    def test_the_guard_bites(self, shard):
        column = NarrowStub(shard).run("t000").doc_ids
        column.searchsorted(np.int32(5))
        column.searchsorted(column[:3])
        merged = np.concatenate([column[:4], column[2:6]])
        assert type(merged) is type(merged[merged > 0]) is TypedNeedles
        for haystack in (column, merged):
            for needle in (5, int(column[3]), np.int64(5)):
                with pytest.raises(AssertionError, match="needle"):
                    haystack.searchsorted(needle)
                with pytest.raises(AssertionError, match="needle"):
                    np.searchsorted(haystack, needle)

    @pytest.mark.parametrize("chunk", [64, 4096])
    def test_maxscore_kernel_searches_with_typed_needles(self, shard, chunk):
        """Fails the day a needle goes through ``int()`` again."""
        stub = NarrowStub(shard)
        TypedNeedles.scalar_searches = 0
        for terms in QUERIES:
            for k in (1, 10):
                want = maxscore_search_kernel(
                    shard, list(terms), k, chunk=chunk, min_postings=0
                )
                got = maxscore_search_kernel(
                    stub, list(terms), k, chunk=chunk, min_postings=0
                )
                assert got.fingerprint() == want.fingerprint(), (terms, k)
        # The horizon cut (`bound`) and the cursor roll-forward
        # (`stop_doc`) both ran, many times, under the guard.
        assert TypedNeedles.scalar_searches > 100


# -------------------------------------------------------------- properties
CODE_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def coded_columns(draw):
    book = draw(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, width=64),
                st.sampled_from([0.0, -0.0, 1.5, 1.5]),
            ),
            min_size=1, max_size=40,
        )
    )
    codes = draw(
        st.lists(st.integers(0, len(book) - 1), min_size=0, max_size=60)
    )
    dtype = draw(st.sampled_from(CODE_DTYPES))
    return np.array(book, dtype=np.float64), np.array(codes, dtype=dtype)


class TestCodedScoresProperty:
    @given(column=coded_columns(), data=st.data())
    def test_reads_equal_the_gathered_column_bitwise(self, column, data):
        book, codes = column
        scores = CodedScores(codes, book)
        wide = book[codes]
        n = codes.size
        assert len(scores) == scores.size == n
        assert scores.nbytes == codes.nbytes
        assert bits(scores) == wide.tobytes()
        lo = data.draw(st.integers(0, n), label="lo")
        hi = data.draw(st.integers(lo, n), label="hi")
        got = scores[lo:hi]
        assert got.dtype == np.float64 and got.tobytes() == wide[lo:hi].tobytes()
        if n:
            index = st.integers(0, n - 1)
            unsorted = np.array(
                data.draw(st.lists(index, max_size=30), label="picks"), dtype=np.int64
            )
            for picks in (unsorted, np.sort(unsorted)):
                assert scores[picks].tobytes() == wide[picks].tobytes()
            at = data.draw(index, label="at")
            assert bits(scores[at]) == wide[at].tobytes()
            assert float(scores[at]) == wide[at] or wide[at] != wide[at]


class TestDecodeBytesProperty:
    @pytest.fixture(scope="class")
    def small(self):
        """1 500 documents, 12 terms: codebook- and raw-scored entries of
        12 to 4 500 bytes."""
        shard = build_scaled_shards(1, 1500, 12, seed=11)[0]
        blob = serialize_shard(shard)
        full = open_store_buffer(blob)
        sizes = {}
        for term in sorted(shard.terms()):
            full.arena.run(term)
            sizes[term] = full.arena.decode_stats.bytes - sum(sizes.values())
        return blob, sizes

    @given(data=st.data())
    def test_bytes_are_what_the_lru_retains(self, small, data):
        blob, sizes = small
        terms = sorted(sizes)
        budget = data.draw(
            st.sampled_from(
                [0, 1, max(sizes.values()), sum(sizes.values())]
            ) | st.integers(0, sum(sizes.values())),
            label="budget",
        )
        accesses = data.draw(
            st.lists(st.sampled_from(terms), max_size=40), label="accesses"
        )
        arena = open_store_buffer(blob, cache_bytes=budget).arena
        for done, term in enumerate(accesses, start=1):
            arena.run(term)
            stats = arena.decode_stats
            retained = list(arena._cache.values())
            assert stats.entries == len(retained)
            assert stats.bytes == sum(
                doc_ids.nbytes
                + (scores.codes if isinstance(scores, CodedScores) else scores).nbytes
                for doc_ids, scores, _ in retained
            )
            assert stats.bytes == sum(sizes[terms_of] for terms_of in (
                arena.terms[tid] for tid in arena._cache
            ))
            assert stats.bytes <= budget or stats.entries == 1
            assert stats.hits + stats.misses == done
            assert stats.misses - stats.evictions == stats.entries
        if budget >= sum(sizes.values()):
            assert arena.decode_stats.evictions == 0
            assert arena.decode_stats.misses == len(set(accesses))
