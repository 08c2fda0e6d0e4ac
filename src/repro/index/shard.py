"""The per-ISN index shard.

A shard is the complete, immutable index an Index Serving Node searches:
term dictionary, posting lists, precomputed per-posting scores, per-term
upper bounds, and the collection statistics BM25 needs.  The
postings live once, as the columns of the shard's arena.  Scores
are precomputed at build time (they depend only on shard-static quantities),
which is both faster and exactly what impact-ordered production indexes do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.index.arena import CompressedPostingsArena, PostingsArena
from repro.scoring.similarity import BM25Similarity


@dataclass(eq=False)
class IndexShard:
    """Immutable searchable index for one ISN.

    The shard is its ``arena`` — a raw :class:`PostingsArena` built in
    memory or a :class:`CompressedPostingsArena` opened from a store —
    plus one per-term column, ``global_dfs``, aligned with
    ``arena.terms``.  Every term accessor below reads those columns, for
    both arena kinds.

    Attributes
    ----------
    shard_id:
        Position of this shard in the cluster (the paper's "ISN-j").
    n_docs, avg_doc_length, total_tokens:
        Collection statistics, fixed at build time.
    arena:
        The posting columns, in sorted-term order.
    global_dfs:
        Per-term document frequency the scores were computed with (the
        collection's under distributed statistics), floored at the
        shard's own.
    """

    shard_id: int
    n_docs: int
    avg_doc_length: float
    total_tokens: int
    arena: PostingsArena | CompressedPostingsArena
    global_dfs: np.ndarray = field(repr=False)
    n_docs_global: int = 0

    def __post_init__(self) -> None:
        local = np.diff(self.arena.offsets)
        if np.shape(self.global_dfs) != local.shape:
            raise ValueError(
                f"global_dfs: {np.size(self.global_dfs)} values for "
                f"{local.size} terms"
            )
        self.global_dfs = np.maximum(
            np.asarray(self.global_dfs, dtype=np.int64), local
        )
        if self.n_docs_global < self.n_docs:
            self.n_docs_global = self.n_docs

    def _tid(self, term: str) -> int | None:
        return self.arena._term_ids.get(term)

    def has_term(self, term: str) -> bool:
        return self.arena.has_term(term)

    def doc_freq(self, term: str) -> int:
        tid = self._tid(term)
        if tid is None:
            return 0
        return int(self.arena.offsets[tid + 1] - self.arena.offsets[tid])

    def idf(self, term: str) -> float:
        """IDF under the statistics the index was built with (global when
        distributed stats were used, local otherwise)."""
        tid = self._tid(term)
        df = int(self.global_dfs[tid]) if tid is not None else 0
        return BM25Similarity.idf(df, max(self.n_docs_global, 1))

    def scores(self, term: str) -> np.ndarray | None:
        run = self.arena.run(term)
        return np.asarray(run.scores) if run is not None else None

    def upper_bound(self, term: str) -> float:
        tid = self._tid(term)
        return float(self.arena.upper_bounds[tid]) if tid is not None else 0.0

    def vocabulary_size(self) -> int:
        return self.arena.n_terms

    def terms(self) -> list[str]:
        """Every term of the shard, in sorted order."""
        return list(self.arena.terms)

    def __len__(self) -> int:
        return self.n_docs
