"""The compressed ``.store`` format: bit-packing, arenas, persistence.

Three layers under test, bottom up:

* ``pack_bits``/``unpack_bits`` — fixed-width little-endian packing into
  uint64 words must round-trip any value that fits the width.
* ``CompressedPostingsArena`` — delta/bit-packed doc ids and codebook
  scores must decode to the *exact* int64/float64 columns the
  uncompressed arena holds (same bits, including -0.0), reject
  malformed inputs, and bound its decode LRU by bytes.
* ``serialize_shard``/``open_store``/``open_store_buffer`` — the on-disk
  and shared-memory forms are the same bytes, open in O(1) (nothing
  materialized per term), survive adversarial columns, and fail loudly
  on corrupt headers.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from conftest import hand_built_shard
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.engine import RunResult, SearchCluster
from repro.experiments.bench_storage import build_scaled_shards
from repro.experiments.testbed import Scale
from repro.index import (
    CompressedPostingsArena,
    Document,
    IndexBuilder,
    IndexShard,
    PostingsArena,
    bits_for,
    build_shards,
    open_store,
    open_store_buffer,
    open_stores,
    pack_bits,
    pack_shards,
    partition_topical,
    serialize_shard,
    store_info,
    unpack_bits,
    write_store,
)
from repro.index.arena import RAW_POSTING_BYTES
from repro.policies.exhaustive import ExhaustivePolicy
from repro.retrieval import (
    Query,
    QueryTrace,
    maxscore_search,
    maxscore_search_kernel,
)
from repro.scoring.similarity import BM25Similarity
from repro.text import WhitespaceAnalyzer
from repro.workloads import SyntheticCorpus

VOCAB = [f"w{i}" for i in range(12)]


def build_shard(word_lists: list[list[str]]) -> IndexShard:
    builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
    for doc_id, words in enumerate(word_lists):
        builder.add(Document(doc_id=doc_id, text=" ".join(words)))
    return builder.build()


def make_shard(term_columns: dict[str, tuple[list[int], list[int]]]) -> IndexShard:
    """A hand-built shard from ``{term: (doc_ids, tfs)}``, BM25-scored
    over documents of length 10."""
    return hand_built_shard({
        name: (
            doc_ids,
            BM25Similarity.scores(np.asarray(tfs), np.full(len(doc_ids), 10.0),
                                  len(doc_ids), 100, 10.0),
        )
        for name, (doc_ids, tfs) in term_columns.items()
    })


def assert_columns_equal(shard: IndexShard, reopened: IndexShard) -> None:
    """Every term's decoded columns must be bit-equal, dtypes included."""
    assert sorted(reopened.terms()) == sorted(shard.terms())
    for name in shard.terms():
        original = shard.arena.run(name)
        loaded = reopened.arena.run(name).widen()
        np.testing.assert_array_equal(loaded.doc_ids, original.doc_ids)
        # Bitwise float equality (repr-level fingerprints depend on it).
        np.testing.assert_array_equal(
            loaded.scores.view(np.int64), original.scores.view(np.int64)
        )
        assert loaded.doc_ids.dtype == np.int64
        assert loaded.scores.dtype == np.float64
        assert loaded.upper_bound == original.upper_bound
    np.testing.assert_array_equal(reopened.global_dfs, shard.global_dfs)


# ------------------------------------------------------------- bit packing
class TestBitPacking:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=2**62 - 1), max_size=80)
    )
    def test_roundtrip_any_fitting_width(self, values):
        arr = np.asarray(values, dtype=np.int64)
        width = bits_for(int(arr.max()) if arr.size else 0)
        words = pack_bits(arr, width)
        np.testing.assert_array_equal(unpack_bits(words, arr.size, width), arr)

    def test_bits_for_floor_and_cap(self):
        assert bits_for(0) == 1
        assert bits_for(1) == 1
        assert bits_for(2) == 2
        assert bits_for(2**62 - 1) == 62
        with pytest.raises(ValueError):
            bits_for(2**63)

    def test_pack_rejects_values_wider_than_width(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([8], dtype=np.int64), 3)

    def test_word_boundary_crossing(self):
        # Width 7 over 20 values straddles word boundaries repeatedly.
        arr = np.arange(20, dtype=np.int64) * 6 + 1
        words = pack_bits(arr, 7)
        np.testing.assert_array_equal(unpack_bits(words, 20, 7), arr)


# ------------------------------------------------------- compressed arena
class TestCompressedArena:
    def test_roundtrip_matches_uncompressed(self):
        shard = build_shard(
            [[VOCAB[min(j, i % 12)] for j in range(i % 7 + 1)] for i in range(50)]
        )
        arena = shard.arena
        packed = CompressedPostingsArena.from_arena(arena)
        assert packed.n_terms == arena.n_terms
        assert packed.n_postings == arena.n_postings
        assert packed.doc_dtype == np.int32  # 50 documents: every id fits
        for term in shard.terms():
            raw = arena.run(term)
            run = packed.run(term)
            assert run.doc_ids.dtype == packed.doc_dtype
            np.testing.assert_array_equal(run.doc_ids, raw.doc_ids)
            # The score column hands out the raw float64 bits, whole ...
            assert np.asarray(run.scores).tobytes() == raw.scores.tobytes()
            # ... and by slice, index array and int, as a kernel reads it.
            picks = np.arange(raw.size - 1, -1, -2)
            for key in (slice(1, raw.size), picks, raw.size - 1):
                got = np.asarray(run.scores[key])
                assert got.dtype == np.float64
                assert got.tobytes() == raw.scores[key].tobytes()
            assert run.upper_bound == raw.upper_bound
            # widen() is the raw arena's columns widened, dtypes included.
            assert raw.doc_ids.dtype == np.int32  # the raw arena narrows too
            wide, raw_wide = packed.run(term).widen(), arena.run(term).widen()
            assert wide.doc_ids.dtype == raw_wide.doc_ids.dtype == np.int64
            assert wide.doc_ids.tobytes() == raw_wide.doc_ids.tobytes()
            assert wide.scores.tobytes() == raw_wide.scores.tobytes()

    def test_empty_and_single_posting_terms(self):
        shard = make_shard(
            {
                "empty": ([], []),
                "single": ([7], [3]),
                "pair": ([1, 9], [1, 2]),
            }
        )
        packed = CompressedPostingsArena.from_arena(shard.arena)
        assert packed.run("empty").doc_ids.size == 0
        single = packed.run("single")
        np.testing.assert_array_equal(single.doc_ids, [7])
        assert single.scores[0] == shard.arena.run("single").scores[0]
        pair = packed.run("pair")
        np.testing.assert_array_equal(pair.doc_ids, [1, 9])

    def test_maximal_doc_id_delta(self):
        # One gap of nearly 2**62: the widest delta the format can see.
        shard = make_shard({"wide": ([0, 2**62 - 1], [1, 1])})
        packed = CompressedPostingsArena.from_arena(shard.arena)
        np.testing.assert_array_equal(
            packed.run("wide").doc_ids, [0, 2**62 - 1]
        )

    def test_non_monotonic_doc_ids_rejected(self):
        """Caught where the columns are built: no arena, raw or packed,
        ever holds them."""
        with pytest.raises(ValueError, match="strictly increasing") as caught:
            PostingsArena(["bad"], [0, 2], [9, 3], [0.5, 0.5], [0.5])
        assert str(caught.value) == (
            "term 'bad': doc_ids must be strictly increasing (3 after 9)"
        )

    def test_negative_doc_id_rejected(self):
        with pytest.raises(ValueError) as caught:
            PostingsArena(["neg"], [0, 1], [-4], [0.5], [0.5])
        assert str(caught.value) == "term 'neg': negative doc id -4"

    def test_negative_zero_scores_survive(self):
        """-0.0 != 0.0 under repr(); the codebook must not merge them."""
        shard = hand_built_shard({"z": ([1, 2, 3], [0.0, -0.0, 0.0])})
        packed = CompressedPostingsArena.from_arena(shard.arena)
        decoded = packed.run("z").scores
        assert [repr(s) for s in decoded.tolist()] == ["0.0", "-0.0", "0.0"]

    def test_decode_cache_bounded_and_counted(self):
        shard = build_shard([[VOCAB[i % 12]] * 3 for i in range(60)])
        packed = CompressedPostingsArena.from_arena(
            shard.arena, cache_bytes=2048
        )
        for term in sorted(shard.terms()) * 2:
            packed.run(term)
        stats = packed.decode_stats
        assert stats.bytes <= 2048 or stats.entries == 1
        assert stats.hits + stats.misses == 2 * len(shard.terms())
        assert stats.misses >= len(shard.terms())

    def test_decode_evictions_counted(self):
        """A budget below any single column pins the LRU at its one-entry
        floor, so every subsequent decode evicts the previous term —
        and the counter must account for exactly those."""
        shard = build_shard([[VOCAB[i % 12]] * 3 for i in range(60)])
        packed = CompressedPostingsArena.from_arena(
            shard.arena, cache_bytes=1
        )
        for term in sorted(shard.terms()):
            packed.run(term)
        stats = packed.decode_stats
        assert stats.entries == 1
        assert stats.evictions == stats.misses - stats.entries

    def test_set_cache_budget_shrink_evicts_immediately(self):
        shard = build_shard([[VOCAB[i % 12]] * 3 for i in range(60)])
        packed = CompressedPostingsArena.from_arena(shard.arena)
        decoded = {
            t: np.asarray(packed.run(t).scores).tobytes()
            for t in sorted(shard.terms())
        }
        assert packed.decode_stats.evictions == 0
        packed.set_cache_budget(1)
        stats = packed.decode_stats
        assert stats.entries == 1
        assert stats.evictions == stats.misses - stats.entries
        # Eviction only drops cached columns — re-decodes stay bit-exact.
        for term, want in decoded.items():
            assert np.asarray(packed.run(term).scores).tobytes() == want

    def test_negative_cache_budget_rejected(self):
        shard = build_shard([[VOCAB[i % 12]] * 3 for i in range(60)])
        packed = CompressedPostingsArena.from_arena(shard.arena)
        with pytest.raises(ValueError, match="non-negative"):
            packed.set_cache_budget(-5)

    def test_negative_cache_budget_rejected_where_it_is_given(self, tmp_path):
        """Every entry point that takes a budget refuses a negative one
        with ``set_cache_budget``'s message; none clamps it to 0."""
        shard = build_shard([[VOCAB[i % 12]] * 3 for i in range(60)])
        arena = shard.arena
        blob = serialize_shard(shard)
        pack_shards([shard], tmp_path)
        fields = {
            name: getattr(CompressedPostingsArena.from_arena(arena), name)
            for name in CompressedPostingsArena.__slots__
            if not name.startswith("_") and name != "doc_dtype"
        }
        message = "decode cache budget must be non-negative, got -5"
        for give in (
            lambda: CompressedPostingsArena(**fields, cache_bytes=-5),
            lambda: CompressedPostingsArena.from_arena(arena, cache_bytes=-5),
            lambda: open_store(tmp_path / "shard_0.store", cache_bytes=-5),
            lambda: open_stores(tmp_path, cache_bytes=-5),
            lambda: open_store_buffer(blob, cache_bytes=-5),
        ):
            with pytest.raises(ValueError) as caught:
                give()
            assert str(caught.value) == message
        # Zero stays legal: the LRU degrades to its one-entry floor.
        assert open_store_buffer(blob, cache_bytes=0).arena.run(VOCAB[0]) is not None


# ------------------------------------------------------------ persistence
class TestStoreRoundTrip:
    @pytest.fixture(scope="class")
    def shard(self):
        return build_shard(
            [[VOCAB[min(j, i % 12)] for j in range(i % 7 + 1)] for i in range(60)]
        )

    def test_file_roundtrip(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        reopened = open_store(path)
        assert_columns_equal(shard, reopened)
        assert reopened.shard_id == shard.shard_id
        assert reopened.n_docs == shard.n_docs
        assert reopened.n_docs_global == shard.n_docs_global
        assert reopened.avg_doc_length == shard.avg_doc_length
        assert reopened.total_tokens == shard.total_tokens

    def test_buffer_is_same_bytes_as_file(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        blob = serialize_shard(shard)
        assert path.read_bytes() == blob
        reopened = open_store_buffer(blob)
        assert_columns_equal(shard, reopened)

    def test_open_is_lazy(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        reopened = open_store(path)
        assert reopened.arena.decode_stats.misses == 0
        reopened.arena.run(VOCAB[0])
        assert reopened.arena.decode_stats.misses == 1
        reopened.arena.run(VOCAB[0])  # no memo: the decode LRU is the only holder
        assert reopened.arena.decode_stats.hits == 1

    def test_search_fingerprints_match(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        reopened = open_store(path)
        for terms in ([VOCAB[0], VOCAB[1]], [VOCAB[3]], ["oov"]):
            want = maxscore_search(shard, list(terms), 10).fingerprint()
            assert maxscore_search(reopened, list(terms), 10).fingerprint() == want
            assert (
                maxscore_search_kernel(reopened, list(terms), 10).fingerprint()
                == maxscore_search_kernel(shard, list(terms), 10).fingerprint()
            )

    def test_adversarial_columns_roundtrip(self, tmp_path):
        shard = make_shard(
            {
                "empty": ([], []),
                "one": ([2**61], [24]),
                "wide": ([0, 2**62 - 1], [1, 1]),
                "dense": (list(range(64)), [1] * 64),
            }
        )
        reopened = open_store(write_store(shard, tmp_path / "adv.store"))
        assert_columns_equal(shard, reopened)

    def test_corrupt_magic_rejected(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            open_store(path)

    def test_truncated_file_rejected(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError):
            open_store(path)

    def test_newline_in_term_rejected(self):
        shard = make_shard({"bad\nterm": ([1], [1])})
        with pytest.raises(ValueError, match="newline"):
            serialize_shard(shard)

    def test_pack_and_open_directory(self, tmp_path):
        shards = [
            build_shard([[VOCAB[i % 12]] * (s + 1) for i in range(20)])
            for s in range(3)
        ]
        for shard_id, shard in enumerate(shards):
            shard.shard_id = shard_id
        paths = pack_shards(shards, tmp_path / "packed")
        assert [p.name for p in paths] == [
            "shard_0.store", "shard_1.store", "shard_2.store",
        ]
        reopened = open_stores(tmp_path / "packed")
        assert [s.shard_id for s in reopened] == [0, 1, 2]
        for shard, loaded in zip(shards, reopened):
            assert_columns_equal(shard, loaded)
        with pytest.raises(FileNotFoundError, match="no shard stores"):
            open_stores(tmp_path / "nope")

    def test_repack_over_other_shard_ids_is_refused(self, tmp_path):
        """A smaller index packed over a larger one would leave the old
        tail behind, and ``open_stores`` would search the mix."""
        four = [build_shard([[VOCAB[s]] * 3]) for s in range(4)]
        for shard_id, shard in enumerate(four):
            shard.shard_id = shard_id
        pack_shards(four, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError) as caught:
            pack_shards(four[:2], tmp_path)
        message = str(caught.value)
        assert "\n" not in message
        assert str(tmp_path / "shard_2.store") in message and "stale" in message
        # Nothing written, nothing deleted.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # Overwriting the same ids stays allowed.
        assert len(pack_shards(four, tmp_path)) == 4

    def test_pack_refuses_a_shard_id_given_twice(self, tmp_path):
        """Two shards with one id would both be written to the same file,
        the second over the first, and ``open_stores`` would find one."""
        twins = [build_scaled_shards(1, 500, 8, seed)[0] for seed in (0, 1)]
        with pytest.raises(ValueError) as caught:
            pack_shards(twins, tmp_path / "packed")
        message = str(caught.value)
        assert "\n" not in message and "shard id 0 is given twice" in message
        assert not (tmp_path / "packed").exists()  # nothing written

    def test_unknown_similarity_rejected_on_open(self, shard):
        blob = serialize_shard(shard).replace(b"BM25Similarity", b"BM52Similarity")
        with pytest.raises(ValueError, match="unknown similarity 'BM52Similarity'"):
            open_store_buffer(blob)

    def test_other_bm25_parameters_rejected_on_open(self, shard):
        """The stored scores are BM25 at ``K1``/``B``: a record naming BM25
        with another parameter is refused, in one line."""
        blob = serialize_shard(shard)
        assert blob.count(b'"k1":0.9') == 1
        with pytest.raises(ValueError) as caught:
            open_store_buffer(blob.replace(b'"k1":0.9', b'"k1":1.2'))
        message = str(caught.value)
        assert "\n" not in message
        assert message.startswith("buffer: meta.similarity: ")
        assert "'k1': 1.2" in message

    def test_stray_file_name_in_directory_is_a_named_error(self, shard, tmp_path):
        pack_shards([shard], tmp_path)
        stray = tmp_path / "shard_backup.store"
        stray.write_bytes((tmp_path / "shard_0.store").read_bytes())
        with pytest.raises(ValueError) as caught:
            open_stores(tmp_path)
        message = str(caught.value)
        assert "\n" not in message
        assert str(stray) in message and "shard_<id>.store" in message
        stray.unlink()
        assert [s.shard_id for s in open_stores(tmp_path)] == [0]

    def test_store_info(self, shard, tmp_path):
        path = write_store(shard, tmp_path / "s.store")
        info = store_info(path)
        assert info["meta"]["n_docs"] == shard.n_docs
        assert info["file_bytes"] == path.stat().st_size
        # A raw posting is an int64 doc id and a float64 score, defined
        # once: the report and the arena's own accounting agree.
        assert RAW_POSTING_BYTES == 16
        assert info["raw_column_bytes"] == info["meta"]["n_postings"] * 16
        assert info["raw_column_bytes"] == open_store(path).arena.raw_nbytes
        assert info["compression_ratio"] > 0


# --------------------------------------------------------------- byte pins
#: sha-256 of ``serialize_shard(build_scaled_shards(1, 20000, 48, 0)[0])``.
SCALED_STORE_SHA256 = "51527658c0b1dbcd8e78f9bd2b912e3f453d2eb4f61fb3f154c0574c58b1d76f"
#: sha-256 of the eight ``Scale.unit`` stores, concatenated in shard-id order.
UNIT_STORES_SHA256 = "1bbf6adf813c37bde657b701102ac7c5381007a6900ca75880bdf7016cd79846"


class TestStoreBytes:
    """The ``.store`` image is pinned: a change to the header writer, the
    packer or the scores that moves one byte fails here."""

    def test_scaled_shard_store_is_pinned(self):
        blob = serialize_shard(build_scaled_shards(1, 20000, 48, 0)[0])
        assert hashlib.sha256(blob).hexdigest() == SCALED_STORE_SHA256

    def test_unit_stores_are_pinned(self):
        scale = Scale.unit()
        corpus = SyntheticCorpus(scale.corpus)
        shards = build_shards(
            partition_topical(corpus.documents, scale.n_shards, seed=scale.seed),
            analyzer=WhitespaceAnalyzer(),
        )
        digest = hashlib.sha256()
        for shard in sorted(shards, key=lambda shard: shard.shard_id):
            digest.update(serialize_shard(shard))
        assert digest.hexdigest() == UNIT_STORES_SHA256


# ------------------------------------------------- store-backed cluster runs
def make_trace() -> QueryTrace:
    rng = random.Random(23)
    return QueryTrace(
        "store-backed",
        [
            Query(
                query_id=i,
                terms=tuple(
                    dict.fromkeys(f"t{rng.randint(0, 50)}" for _ in range(3))
                ),
                arrival_time=i * 0.01,
            )
            for i in range(12)
        ],
    )


def run_fingerprint(run: RunResult) -> str:
    lines = [run.policy_name, repr(run.power)]
    for record in run.records:
        lines.append(
            f"{record.query.query_id}|{record.latency_ms!r}|"
            f"{record.result.fingerprint()}"
        )
    return "\n".join(lines)


class TestStoreBackedCluster:
    def test_store_backed_cluster_decode_counters(self, shards, tmp_path):
        pack_shards(shards, tmp_path)
        lazy = open_stores(tmp_path)
        run = SearchCluster(lazy, k=10).run_trace(make_trace(), ExhaustivePolicy())
        assert run.decode_misses > 0  # compressed shards actually decoded
        reference = SearchCluster(shards, k=10).run_trace(
            make_trace(), ExhaustivePolicy()
        )
        assert run_fingerprint(run) == run_fingerprint(reference)
        assert reference.decode_hits == reference.decode_misses == 0

    def test_decode_cache_size_squeezes_without_changing_results(
        self, shards, tmp_path
    ):
        """A 1-byte budget pins every compressed shard's decode LRU at its
        one-entry floor — evictions happen and are surfaced on the run,
        while the merged results stay bit-identical (the cache is purely
        a wall-clock artifact)."""
        pack_shards(shards, tmp_path)
        cluster = SearchCluster(open_stores(tmp_path), k=10)
        for shard in cluster.shards:
            shard.arena.set_cache_budget(1)
        squeezed = cluster.run_trace(make_trace(), ExhaustivePolicy())
        assert squeezed.decode_evictions > 0
        reference = SearchCluster(shards, k=10).run_trace(
            make_trace(), ExhaustivePolicy()
        )
        assert run_fingerprint(squeezed) == run_fingerprint(reference)
        assert reference.decode_evictions == 0


# -------------------------------------------------- property-based sweep
documents = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=25),
    min_size=1,
    max_size=40,
)


class TestPropertyRoundTrip:
    @given(docs=documents)
    def test_serialize_reopen_is_identity(self, docs):
        shard = build_shard(docs)
        reopened = open_store_buffer(serialize_shard(shard))
        assert_columns_equal(shard, reopened)
        assert reopened.total_tokens == shard.total_tokens
