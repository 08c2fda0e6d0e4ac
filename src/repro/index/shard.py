"""The per-ISN index shard.

A shard is the complete, immutable index an Index Serving Node searches:
term dictionary, posting lists, precomputed per-posting scores, per-term
upper bounds, and the collection statistics every similarity needs.  Scores
are precomputed at build time (they depend only on shard-static quantities),
which is both faster and exactly what impact-ordered production indexes do.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.index.arena import PostingsArena
from repro.index.postings import PostingList
from repro.scoring.similarity import Similarity


BLOCK_SIZE = 64
"""Postings per block for block-max metadata (Ding & Suel, SIGIR'11)."""


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


@dataclass
class ShardTerm:
    """Everything the shard stores for one term.

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
    global_doc_freq: int = 0
    block_maxes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.global_doc_freq < len(self.postings):
            self.global_doc_freq = len(self.postings)
        if self.block_maxes is None and self.scores.size:
            n_blocks = (self.scores.size + BLOCK_SIZE - 1) // BLOCK_SIZE
            padded = np.full(n_blocks * BLOCK_SIZE, -np.inf)
            padded[: self.scores.size] = self.scores
            self.block_maxes = padded.reshape(n_blocks, BLOCK_SIZE).max(axis=1)

    @property
    def doc_freq(self) -> int:
        return len(self.postings)


@dataclass
class IndexShard:
    """Immutable searchable index for one ISN.

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
    """

    shard_id: int
    n_docs: int
    avg_doc_length: float
    total_tokens: int
    doc_lengths: DocLengths
    similarity: Similarity
    n_docs_global: int = 0
    _terms: dict[str, ShardTerm] = field(default_factory=dict)
    _arena: PostingsArena | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.doc_lengths, DocLengths):
            raise TypeError(
                "doc_lengths must be a DocLengths, got "
                f"{type(self.doc_lengths).__name__}"
            )
        if self.n_docs_global < self.n_docs:
            self.n_docs_global = self.n_docs

    @property
    def arena(self) -> PostingsArena:
        """The columnar postings arena the vectorized kernels search.

        Built once (the index is immutable) and cached; the index builder
        and the shard loader touch this eagerly so no query pays the
        packing cost.  Shards assembled by hand (tests) build it lazily on
        first search.
        """
        if self._arena is None:
            self._arena = PostingsArena.from_shard(self)
        return self._arena

    def has_term(self, term: str) -> bool:
        return term in self._terms

    def term(self, term: str) -> ShardTerm | None:
        return self._terms.get(term)

    def doc_freq(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry.doc_freq if entry is not None else 0

    def idf(self, term: str) -> float:
        """IDF under the statistics the index was built with (global when
        distributed stats were used, local otherwise)."""
        entry = self._terms.get(term)
        df = entry.global_doc_freq if entry is not None else 0
        return self.similarity.idf(df, max(self.n_docs_global, 1))

    def postings(self, term: str) -> PostingList | None:
        entry = self._terms.get(term)
        return entry.postings if entry is not None else None

    def scores(self, term: str) -> np.ndarray | None:
        entry = self._terms.get(term)
        return entry.scores if entry is not None else None

    def upper_bound(self, term: str) -> float:
        entry = self._terms.get(term)
        return entry.upper_bound if entry is not None else 0.0

    def vocabulary_size(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms.keys())

    def contains_doc(self, doc_id: int) -> bool:
        return doc_id in self.doc_lengths

    def __len__(self) -> int:
        return self.n_docs
