"""Column-lazy decode: what a store-backed query pays for, and retains.

* The query path reads two posting columns, doc ids and scores — all a
  format-2 store holds per posting.  A store-backed shard answers the
  kernel, the scalar references and the term statistics
  bit-identically to memory.
* What the LRU retains per posting is the doc id at the arena's dtype
  plus the codebook index at the narrowest width: 6 bytes for ``int32``
  ids and a codebook of at most 2**16 values.
* Nothing but the LRU keeps decoded postings.  The arena's
  ``cache_bytes`` is the only bound on them, so touching every term
  under a 1-byte budget retains the LRU's single floor entry and no
  more — and the columns ``TermRun.widen()`` makes die with the run.
* The packed file is at most half the raw ``(int64 doc, float64
  score)`` columns.  The ratio grows with shard size (3.58x at
  the repo benchmark's 150k docs, where ``index.compression_ratio``
  tracks it); the 9 000-doc shard here is the small end that must
  still clear 2x.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.experiments.bench_storage import build_scaled_shards
from repro.index import (
    TermStatsIndex,
    open_store,
    open_store_buffer,
    serialize_shard,
    store_info,
    write_store,
)
from repro.retrieval import (
    exhaustive_search,
    exhaustive_search_daat,
    maxscore_search,
    maxscore_search_kernel,
)

QUERIES = [
    ["t000", "t001"],
    ["t001", "t002", "t007"],
    ["t000", "t003", "t005", "t010"],
    ["t002", "t004"],
    ["t000", "oov"],
]


@pytest.fixture(scope="module")
def shard():
    # Every query above totals >= 2 048 postings: the kernel runs
    # vectorized (below that floor it dispatches to the scalar
    # evaluator, which reads the same two columns).
    return build_scaled_shards(1, 9000, 16, seed=5)[0]


class TestQueryPathReadsNoTfs:
    """Format 2 stores no term frequencies: the two posting columns are
    everything a query, and the term statistics, read."""

    def test_kernels_equal_memory_from_the_store(self, shard, tmp_path):
        lazy = open_store(write_store(shard, tmp_path / "s.store"))
        for terms in QUERIES:
            assert (
                maxscore_search_kernel(lazy, list(terms), 10).fingerprint()
                == maxscore_search_kernel(shard, list(terms), 10).fingerprint()
            ), terms
        assert lazy.arena.decode_stats.misses > 0

    def test_scalar_readers_equal_memory_from_the_store(self, shards):
        """The analyzer-built shards' queries sit below the kernel's
        2 048-posting floor: every reader here walks the scalar path."""
        memory = shards[0]
        lazy = open_store_buffer(serialize_shard(memory))
        vocabulary = memory.terms()
        for i in range(0, len(vocabulary) - 2, 3):
            terms = vocabulary[i : i + 3]
            for search in (
                maxscore_search, maxscore_search_kernel,
                exhaustive_search, exhaustive_search_daat,
            ):
                assert (
                    search(lazy, list(terms), 10).fingerprint()
                    == search(memory, list(terms), 10).fingerprint()
                ), (search.__name__, terms)
        want, got = TermStatsIndex(memory), TermStatsIndex(lazy)
        for term in vocabulary + ["oov"]:
            assert got.get(term) == want.get(term)

    def test_lru_entry_is_doc_plus_code_itemsize_per_posting(self, shard):
        lazy = open_store_buffer(serialize_shard(shard))
        arena = lazy.arena
        run = arena.run("t000")
        assert not hasattr(run, "tfs")
        # 9 000 documents and a codebook of 257..65 536 distinct scores:
        # int32 ids (4 B) + uint16 codes (2 B) = 6 B per posting, where
        # the int64 + float64 columns took 16.
        assert 8 < arena.score_widths[arena.terms.index("t000")] <= 16
        assert run.doc_ids.dtype == arena.doc_dtype == np.int32
        assert run.scores.codes.dtype == np.uint16
        per_posting = run.doc_ids.itemsize + run.scores.codes.itemsize
        assert per_posting == 4 + 2
        assert arena.decode_stats.bytes == per_posting * run.size
        # The codebook is a view of the store, not a retained copy.
        assert np.shares_memory(run.scores.book, arena.score_books)


def test_packed_store_is_at_most_half_the_raw_columns(shard, tmp_path):
    info = store_info(write_store(shard, tmp_path / "s.store"))
    assert info["compression_ratio"] >= 2.0


class TestTermKeepsNoMemo:
    def test_one_byte_budget_retains_one_entry(self, shards):
        """``shards`` are the session's small analyzer-built shards: every
        query on them takes the scalar path."""
        shard = shards[0]
        lazy = open_store_buffer(serialize_shard(shard), cache_bytes=1)
        decoded, handed_out = [], []
        assert shard.arena.doc_ids.dtype == np.int32
        for term in sorted(shard.terms()):
            want, got = shard.arena.run(term).widen(), lazy.arena.run(term).widen()
            assert got.doc_ids.dtype == np.int64
            assert got.doc_ids.tobytes() == want.doc_ids.tobytes()
            assert got.scores.dtype == np.float64
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got.upper_bound == want.upper_bound
            # What the LRU retains for the term (its one entry right now)
            # and the widened doc ids the run made from it.
            ((doc_ids, _, _),) = lazy.arena._cache.values()
            assert doc_ids.dtype == np.int32 and doc_ids is not got.doc_ids
            decoded.append(weakref.ref(doc_ids))
            handed_out.append(weakref.ref(got.doc_ids))
            del want, got, doc_ids
        gc.collect()
        alive = [ref for ref in decoded if ref() is not None]
        assert alive == [decoded[-1]]  # the LRU's one-entry floor
        assert all(ref() is None for ref in handed_out)  # nobody kept a wide copy
        stats = lazy.arena.decode_stats
        assert stats.entries == 1
        assert stats.misses == len(decoded) and stats.evictions == len(decoded) - 1

    def test_scalar_answers_stay_bit_equal_under_the_squeeze(self, shards):
        shard = shards[0]
        lazy = open_store_buffer(serialize_shard(shard), cache_bytes=1)
        vocabulary = sorted(shard.terms())
        for i in range(0, len(vocabulary) - 2, 3):
            terms = vocabulary[i : i + 3]
            for search in (maxscore_search, exhaustive_search):
                assert (
                    search(lazy, list(terms), 10).fingerprint()
                    == search(shard, list(terms), 10).fingerprint()
                )
        assert lazy.arena.decode_stats.entries == 1
