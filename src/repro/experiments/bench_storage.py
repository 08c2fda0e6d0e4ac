"""Storage-plane benchmark: compressed mmap stores.

Measures the three claims the compressed ``.store`` format makes, at a
scale (hundreds of thousands of docs per shard) where they matter:

* **Compression** — delta/bit-packed doc ids, packed tfs and
  codebook-coded scores shrink the posting columns by >=2x versus the raw
  ``(int64 doc, int32 tf, float64 score)`` triple.
* **O(1) open** — ``open_stores`` memory-maps the packed columns and
  materializes nothing per term; cold-open time is independent of corpus
  size.
* **Bit-identity under compression** — every kernel strategy over the
  lazy compressed shards fingerprints identically to the in-memory
  uncompressed shards.

``benchmarks/run_bench_storage.py`` drives this, pins seeds and records
the machine fingerprint into ``BENCH_storage.json``; CI gates on the
compression ratio and bit-identity.

The corpus is built by direct column construction (no text analysis):
per-term document frequencies follow a Zipf-like power law, membership
is a seeded uniform draw, and scores are real BM25 over the drawn tfs
and doc lengths, so posting columns have the value distributions the
compressor actually faces (long head postings, low-cardinality tf,
codebook-friendly score repeats).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.index import IndexShard, ShardTerm, open_stores, pack_shards, store_info
from repro.index.postings import PostingList
from repro.retrieval import (
    Query,
    block_max_wand_search_kernel,
    conjunctive_search_kernel,
    maxscore_search,
    maxscore_search_kernel,
    wand_search_kernel,
)
from repro.scoring.similarity import BM25Similarity

N_SHARDS = 4
DOCS_PER_SHARD = 150_000
VOCAB_SIZE = 96
N_QUERIES = 8
K = 10
SEED = 42

KERNELS = {
    "maxscore": maxscore_search_kernel,
    "wand": wand_search_kernel,
    "block_max_wand": block_max_wand_search_kernel,
    "conjunctive": conjunctive_search_kernel,
}


@dataclass(frozen=True)
class MachineFingerprint:
    """Where a benchmark record came from (perf numbers are host-bound)."""

    platform: str
    python: str
    numpy: str
    cpu_count: int

    @classmethod
    def capture(cls) -> "MachineFingerprint":
        return cls(
            platform=platform.platform(),
            python=platform.python_version(),
            numpy=np.__version__,
            cpu_count=os.cpu_count() or 1,
        )


@dataclass
class StorageBenchResult:
    n_shards: int
    docs_per_shard: int
    vocab_size: int
    n_queries: int
    k: int
    seed: int
    machine: MachineFingerprint
    # Compression accounting (store files vs raw posting columns).
    packed_bytes: int = 0
    raw_column_bytes: int = 0
    compression_ratio: float = 0.0
    # Cold open.
    cold_open_ms: float = 0.0
    terms_materialized_on_open: int = 0
    # Kernel-on-compressed vs scalar reference (maxscore pair).
    reference_ms: float = 0.0
    kernel_ms: float = 0.0
    kernel_speedup: float = 0.0
    # Bit-identity: every kernel strategy, compressed vs uncompressed.
    strategies_bit_identical: dict[str, bool] = field(default_factory=dict)
    # Decode LRU counters after the kernel sweep.
    decode_hits: int = 0
    decode_misses: int = 0
    decode_hit_rate: float = 0.0

    @property
    def bit_identical(self) -> bool:
        return all(self.strategies_bit_identical.values())


def build_scaled_shards(
    n_shards: int = N_SHARDS,
    docs_per_shard: int = DOCS_PER_SHARD,
    vocab_size: int = VOCAB_SIZE,
    seed: int = SEED,
) -> list[IndexShard]:
    """Column-direct synthetic shards (no analyzer, no per-doc loop).

    Term *i*'s document frequency is ``docs_per_shard / (i + 2)`` — a
    Zipf-like head/tail split — membership is a seeded sort-free uniform
    draw, tfs are geometric-ish small integers, and scores are genuine
    BM25 over the shard's drawn doc lengths.  Deterministic per
    (shard_id, seed).
    """
    similarity = BM25Similarity()
    shards: list[IndexShard] = []
    for shard_id in range(n_shards):
        rng = np.random.default_rng(seed * 1_000_003 + shard_id)
        base = shard_id * docs_per_shard
        doc_len_values = rng.integers(64, 512, size=docs_per_shard)
        avg_len = float(doc_len_values.mean())
        total_tokens = int(doc_len_values.sum())
        terms: dict[str, ShardTerm] = {}
        for t in range(vocab_size):
            df = max(2, docs_per_shard // (t + 2))
            members = np.sort(rng.choice(docs_per_shard, size=df, replace=False))
            doc_ids = (base + members).astype(np.int64)
            tfs = np.minimum(
                rng.geometric(0.45, size=df).astype(np.int64), 24
            )
            scores = similarity.scores(
                tfs,
                doc_len_values[members],
                doc_freq=df,
                n_docs=docs_per_shard * n_shards,
                avg_doc_length=avg_len,
            ).astype(np.float64)
            name = f"t{t:03d}"
            terms[name] = ShardTerm(
                term=name,
                postings=PostingList(
                    doc_ids=doc_ids, tfs=tfs.astype(np.int32)
                ),
                scores=scores,
                upper_bound=float(scores.max()),
                global_doc_freq=df * n_shards,
            )
        doc_lengths = dict(
            zip(range(base, base + docs_per_shard), doc_len_values.tolist())
        )
        shards.append(
            IndexShard(
                shard_id=shard_id,
                n_docs=docs_per_shard,
                avg_doc_length=avg_len,
                total_tokens=total_tokens,
                doc_lengths=doc_lengths,
                similarity=similarity,
                n_docs_global=docs_per_shard * n_shards,
                _terms=terms,
            )
        )
    return shards


def sample_queries(
    n_queries: int = N_QUERIES,
    vocab_size: int = VOCAB_SIZE,
    seed: int = SEED,
) -> list[Query]:
    """2-4 term queries biased toward the head of the Zipf vocabulary."""
    rng = np.random.default_rng(seed)
    queries = []
    for qid in range(n_queries):
        n_terms = int(rng.integers(2, 5))
        ids = np.minimum(
            rng.geometric(0.08, size=n_terms) - 1, vocab_size - 1
        )
        terms = tuple(dict.fromkeys(f"t{t:03d}" for t in ids.tolist()))
        queries.append(Query(query_id=qid, terms=terms))
    return queries


def _sweep_ms(fn, shards, queries: list[Query], k: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for query in queries:
            for shard in shards:
                fn(shard, list(query.terms), k)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run(
    n_shards: int = N_SHARDS,
    docs_per_shard: int = DOCS_PER_SHARD,
    vocab_size: int = VOCAB_SIZE,
    n_queries: int = N_QUERIES,
    k: int = K,
    seed: int = SEED,
    repeats: int = 2,
    store_dir: str | Path | None = None,
) -> StorageBenchResult:
    """Build, pack, reopen and measure; see the module docstring."""
    import tempfile

    result = StorageBenchResult(
        n_shards=n_shards,
        docs_per_shard=docs_per_shard,
        vocab_size=vocab_size,
        n_queries=n_queries,
        k=k,
        seed=seed,
        machine=MachineFingerprint.capture(),
    )
    shards = build_scaled_shards(n_shards, docs_per_shard, vocab_size, seed)
    queries = sample_queries(n_queries, vocab_size, seed)

    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_bench_storage_")
        directory = Path(tmp.name)
    else:
        tmp = None
        directory = Path(store_dir)
    try:
        paths = pack_shards(shards, directory)
        for path in paths:
            info = store_info(path)
            result.packed_bytes += info["file_bytes"]
            result.raw_column_bytes += info["raw_column_bytes"]
        result.compression_ratio = result.raw_column_bytes / result.packed_bytes

        t0 = time.perf_counter()
        lazy = open_stores(directory)
        result.cold_open_ms = (time.perf_counter() - t0) * 1e3
        result.terms_materialized_on_open = sum(
            shard.arena.decode_stats.misses for shard in lazy
        )

        # Bit-identity: every kernel strategy, compressed vs uncompressed.
        for name, kernel in KERNELS.items():
            result.strategies_bit_identical[name] = all(
                kernel(cold, list(q.terms), k).fingerprint()
                == kernel(hot, list(q.terms), k).fingerprint()
                for q in queries
                for cold, hot in zip(lazy, shards)
            )

        # Kernel-on-compressed speedup vs the scalar reference, plus a
        # scalar cross-check (the reference walks the same lazy shard).
        ref_ok = all(
            maxscore_search(cold, list(q.terms), k).fingerprint()
            == maxscore_search_kernel(cold, list(q.terms), k).fingerprint()
            for q in queries
            for cold in lazy
        )
        result.strategies_bit_identical["maxscore_scalar_on_compressed"] = ref_ok
        result.reference_ms = _sweep_ms(
            maxscore_search, lazy, queries, k, repeats
        )
        result.kernel_ms = _sweep_ms(
            maxscore_search_kernel, lazy, queries, k, repeats
        )
        result.kernel_speedup = result.reference_ms / result.kernel_ms

        for shard in lazy:
            stats = shard.arena.decode_stats
            result.decode_hits += stats.hits
            result.decode_misses += stats.misses
        touched = result.decode_hits + result.decode_misses
        result.decode_hit_rate = (
            result.decode_hits / touched if touched else 0.0
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return result


def format_report(result: StorageBenchResult) -> str:
    lines = [
        "Storage plane — compressed mmap stores",
        (
            f"  corpus: {result.n_shards} shards x {result.docs_per_shard} docs"
            f"   queries: {result.n_queries} (k={result.k})"
            f"   host: {result.machine.cpu_count} cpu(s)"
        ),
        (
            f"  compression: {result.packed_bytes / 1e6:.2f} MB packed vs "
            f"{result.raw_column_bytes / 1e6:.2f} MB raw columns "
            f"({result.compression_ratio:.2f}x)"
        ),
        (
            f"  cold open: {result.cold_open_ms:.2f} ms for "
            f"{result.n_shards} shards "
            f"({result.terms_materialized_on_open} terms materialized)"
        ),
        (
            f"  maxscore on compressed: ref {result.reference_ms:.1f} ms   "
            f"kernel {result.kernel_ms:.1f} ms   "
            f"speedup {result.kernel_speedup:.2f}x"
        ),
        (
            f"  decode LRU: {result.decode_hits} hits / "
            f"{result.decode_misses} misses "
            f"({result.decode_hit_rate:.1%} hit rate)"
        ),
    ]
    for name, ok in result.strategies_bit_identical.items():
        lines.append(f"  bit-identical[{name}]: {ok}")
    return "\n".join(lines)


def write_json(result: StorageBenchResult, path: str | Path) -> None:
    """Write the result as the ``BENCH_storage.json`` perf record."""
    Path(path).write_text(json.dumps(asdict(result), indent=2) + "\n")
