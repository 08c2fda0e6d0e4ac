"""Column-direct synthetic shards at the scale the storage plane targets.

``build_scaled_shards`` is the corpus of the repo benchmark's
``search_cold``/``search_store`` workloads (``bench/search.py``) and of
the store/kernel identity suites.  No text analysis and no
per-document loop: per-term document frequencies follow a Zipf-like
power law, membership is a seeded uniform draw, and scores are real
BM25 over the drawn tfs and doc lengths, so posting columns have the
value distributions the compressor actually faces (long head
postings, codebook-friendly score repeats).
"""

from __future__ import annotations

import numpy as np

from repro.index import IndexShard, PostingsArena
from repro.index.arena import doc_id_dtype
from repro.scoring.similarity import BM25Similarity

N_SHARDS = 4
DOCS_PER_SHARD = 150_000
VOCAB_SIZE = 96
SEED = 42


def build_scaled_shards(
    n_shards: int = N_SHARDS,
    docs_per_shard: int = DOCS_PER_SHARD,
    vocab_size: int = VOCAB_SIZE,
    seed: int = SEED,
) -> list[IndexShard]:
    """Column-direct synthetic shards (no analyzer, no per-doc loop).

    Term *i*'s document frequency is ``docs_per_shard / (i + 2)`` — a
    Zipf-like head/tail split — membership is a seeded sort-free uniform
    draw, and scores are genuine BM25 over geometric-ish small tfs and the
    shard's drawn doc lengths (neither is kept).  Deterministic per
    (shard_id, seed).  Every term draws at least two documents, so
    ``docs_per_shard`` must be at least 2.  Doc ids run ``0 ..
    n_shards * docs_per_shard - 1``; the doc-id columns are allocated in
    the arena's final dtype from that bound.
    """
    for name, value, least in (
        ("n_shards", n_shards, 0),
        ("docs_per_shard", docs_per_shard, 2),
        ("vocab_size", vocab_size, 0),
    ):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    id_dtype = doc_id_dtype(0, n_shards * docs_per_shard - 1)
    similarity = BM25Similarity()
    shards: list[IndexShard] = []
    names = [f"t{t:03d}" for t in range(vocab_size)]
    # Term t is drawn t-th (the draw order fixes every value) and written
    # at its rank in sorted order, into columns preallocated from the dfs.
    order = sorted(range(vocab_size), key=names.__getitem__)
    rank = np.empty(vocab_size, dtype=np.int64)
    rank[order] = np.arange(vocab_size)
    dfs = np.array(
        [max(2, docs_per_shard // (t + 2)) for t in range(vocab_size)],
        dtype=np.int64,
    )
    offsets = np.zeros(vocab_size + 1, dtype=np.int64)
    np.cumsum(dfs[order], out=offsets[1:])
    for shard_id in range(n_shards):
        rng = np.random.default_rng(seed * 1_000_003 + shard_id)
        base = shard_id * docs_per_shard
        lengths = rng.integers(64, 512, size=docs_per_shard)
        avg_len = float(lengths.mean())
        total_tokens = int(lengths.sum())
        doc_ids = np.empty(int(offsets[-1]), dtype=id_dtype)
        scores = np.empty(int(offsets[-1]), dtype=np.float64)
        upper_bounds = np.empty(vocab_size, dtype=np.float64)
        for t in range(vocab_size):
            df, at = int(dfs[t]), int(rank[t])
            lo, hi = int(offsets[at]), int(offsets[at + 1])
            members = np.sort(rng.choice(docs_per_shard, size=df, replace=False))
            doc_ids[lo:hi] = base + members
            tfs = np.minimum(rng.geometric(0.45, size=df).astype(np.int64), 24)
            scores[lo:hi] = similarity.scores(
                tfs,
                lengths[members],
                doc_freq=df,
                n_docs=docs_per_shard * n_shards,
                avg_doc_length=avg_len,
            )
            upper_bounds[at] = scores[lo:hi].max()
        shards.append(
            IndexShard(
                shard_id=shard_id,
                n_docs=docs_per_shard,
                avg_doc_length=avg_len,
                total_tokens=total_tokens,
                arena=PostingsArena(
                    [names[t] for t in order], offsets, doc_ids, scores,
                    upper_bounds,
                ),
                global_dfs=np.diff(offsets) * n_shards,
                n_docs_global=docs_per_shard * n_shards,
            )
        )
    return shards
