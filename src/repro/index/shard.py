"""The per-ISN index shard.

A shard is the complete, immutable index an Index Serving Node searches:
term dictionary, posting lists, precomputed per-posting scores, per-term
upper bounds, and the collection statistics every similarity needs.  The
postings live once, as the columns of the shard's arena.  Scores
are precomputed at build time (they depend only on shard-static quantities),
which is both faster and exactly what impact-ordered production indexes do.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.index.arena import CompressedPostingsArena, PostingsArena
from repro.index.postings import PostingList
from repro.scoring.similarity import Similarity


class DocLengths(Mapping[int, int]):
    """Global doc id -> analyzed token count, held as two ``int64`` columns.

    ``ids`` is strictly increasing and ``lengths`` non-negative, both
    read-only; a lookup is one binary search.  The columns cost 16 bytes
    per document where a dict of Python ints costs about 80, and they are
    exactly what the ``.store`` format packs.
    """

    __slots__ = ("ids", "lengths")

    def __init__(self, ids: np.ndarray, lengths: np.ndarray) -> None:
        # Views, so freezing them leaves the caller's arrays writable.
        ids = np.asarray(ids, dtype=np.int64).view()
        lengths = np.asarray(lengths, dtype=np.int64).view()
        if ids.ndim != 1 or lengths.shape != ids.shape:
            raise ValueError(
                f"doc lengths: {ids.size} ids but {lengths.size} lengths"
            )
        gaps = np.diff(ids)
        if gaps.size and int(gaps.min()) <= 0:
            at = int(np.argmax(gaps <= 0))
            problem = "duplicate" if gaps[at] == 0 else "unsorted"
            raise ValueError(
                f"doc lengths: {problem} id {int(ids[at + 1])} after "
                f"{int(ids[at])}; ids must be strictly increasing"
            )
        if lengths.size and int(lengths.min()) < 0:
            at = int(np.argmin(lengths))
            raise ValueError(
                f"doc lengths: negative length {int(lengths[at])} "
                f"for id {int(ids[at])}"
            )
        ids.flags.writeable = False
        lengths.flags.writeable = False
        self.ids = ids
        self.lengths = lengths

    def __getitem__(self, doc_id: int) -> int:
        if isinstance(doc_id, (int, np.integer)):
            pos = int(np.searchsorted(self.ids, doc_id))
            if pos < self.ids.size and self.ids[pos] == doc_id:
                return int(self.lengths[pos])
        raise KeyError(doc_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return self.ids.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DocLengths):
            return np.array_equal(self.ids, other.ids) and np.array_equal(
                self.lengths, other.lengths
            )
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"DocLengths({self.ids.size} docs)"


@dataclass(frozen=True)
class ShardTerm:
    """One term's postings, a view over its shard's arena columns.

    ``global_doc_freq`` is the term's document frequency across the whole
    collection when the index was built with distributed statistics
    (Solr's global-IDF mode); it equals the local ``doc_freq`` otherwise.
    ``block_maxes`` holds the maximum score within each ``BLOCK_SIZE``-
    posting block; it is part of the ``.store`` format-1 layout, and no
    traversal reads it.
    """

    term: str
    postings: PostingList
    scores: np.ndarray
    upper_bound: float
    global_doc_freq: int
    block_maxes: np.ndarray


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
    doc_lengths:
        Global doc id -> analyzed token count, for documents on this shard.
    similarity:
        The ranking function the stored scores were computed with.
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
    doc_lengths: DocLengths
    similarity: Similarity
    arena: PostingsArena | CompressedPostingsArena
    global_dfs: np.ndarray = field(repr=False)
    n_docs_global: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.doc_lengths, DocLengths):
            raise TypeError(
                "doc_lengths must be a DocLengths, got "
                f"{type(self.doc_lengths).__name__}"
            )
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

    def term(self, term: str) -> ShardTerm | None:
        """``term``'s postings widened to ``int64``/``float64``, or None.

        Built per call over ``arena.run(term)`` and ``arena.term_tfs(term)``
        and never kept: on a compressed arena the decode LRU is the only
        thing that holds decoded postings.  The search paths read the
        arena directly; this is the whole-term view tests and tools use.
        """
        tid = self._tid(term)
        if tid is None:
            return None
        run = self.arena.run(term)
        tfs = self.arena.term_tfs(term)
        assert run is not None and tfs is not None
        run.widen()
        return ShardTerm(
            term=term,
            postings=PostingList(doc_ids=run.doc_ids, tfs=tfs),
            scores=np.asarray(run.scores),
            upper_bound=run.upper_bound,
            global_doc_freq=int(self.global_dfs[tid]),
            block_maxes=run.block_maxes,
        )

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
        return self.similarity.idf(df, max(self.n_docs_global, 1))

    def postings(self, term: str) -> PostingList | None:
        entry = self.term(term)
        return entry.postings if entry is not None else None

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

    def contains_doc(self, doc_id: int) -> bool:
        return doc_id in self.doc_lengths

    def __len__(self) -> int:
        return self.n_docs
