"""Columnar postings arena: one shard's index as flat numpy columns.

An :class:`~repro.index.shard.IndexShard` *is* its arena: the index
builders write every posting list of the shard once, at build time,
into contiguous ``doc_ids``/``scores`` columns with per-term offset
slices and one upper bound per term.  Nothing else holds a second copy.
The vectorized kernels in :mod:`repro.retrieval.kernels` operate
directly on these columns with ``searchsorted`` + masked gathers, and
the cursor-based references walk the same slices; a query only pays for
building a handful of :class:`TermRun` slice views.

Terms are laid out in sorted order, which is also the term order of the
on-disk ``.store`` layout of :mod:`repro.index.store`.  Doc ids are
``int32`` when every id of the shard fits and ``int64`` otherwise
(:func:`doc_id_dtype`), so a raw posting holds 12 bytes, not 16.

:class:`CompressedPostingsArena` is the same columnar index behind a
compressed encoding: doc ids are delta + bit-packed per term and scores
are dictionary-encoded against a per-term float64 codebook (with a
verified raw fallback).  ``run`` decodes the two columns with
vectorized shifts/masks and keeps them *at the width they need*: doc
ids in one arena-wide dtype (the raw arena's rule, :func:`doc_id_dtype`,
fed a bound proved from the per-term metadata), scores as the unpacked
codebook indices behind a :class:`CodedScores` column that gathers the
float64 values — the raw arena's exact bits — only for the postings a
kernel reads.  A size-bounded LRU keeps hot terms decoded, at 6 bytes
per posting for ``int32`` ids under a codebook of at most 2**16 scores.
The packed streams are plain flat arrays, which is what lets
:mod:`repro.index.store` memory-map them straight off disk.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

RAW_POSTING_BYTES = 16
"""Reference width of one posting: an ``int64`` doc id + a ``float64`` score.

The yardstick of ``compression_ratio`` and ``raw_column_bytes``, kept
fixed so ratios stay comparable: a raw arena whose ids fit ``int32``
holds 12 bytes per posting (:func:`doc_id_dtype`).
"""

_INT32_MAX = int(np.iinfo(np.int32).max)


def doc_id_dtype(lowest: float, highest: float) -> type[np.signedinteger]:
    """The doc-id dtype of an arena whose ids lie in ``[lowest, highest]``.

    ``int32`` when ``0 <= lowest`` and ``highest <= 2**31 - 1``, else
    ``int64`` — one dtype for the whole arena, never per term, so the runs
    of a query always share it and no ``searchsorted`` mixes widths.  The
    one width rule of both arena kinds: the raw arena passes its ids'
    min/max (a builder, the largest id it will write), the compressed
    arena the bound its metadata proves; an empty arena passes ``(0, 0)``.
    """
    return np.int32 if lowest >= 0 and highest <= _INT32_MAX else np.int64


class CodedScores:
    """A score column kept as codebook indices, gathered on read.

    ``scores[key]`` — a slice, an index array or an int — is
    ``book.take(codes[key])``: the float64 bits the raw arena holds,
    produced for the postings a kernel actually scores instead of for
    every posting of the term.  ``np.asarray(scores)`` is the whole
    column.  ``nbytes`` counts the codes only: the codebook is a view of
    the packed store, not something a cache retains.
    """

    __slots__ = ("codes", "book")

    def __init__(self, codes: np.ndarray, book: np.ndarray) -> None:
        self.codes = codes
        self.book = book

    @property
    def size(self) -> int:
        return self.codes.size

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, key: "slice | np.ndarray | int") -> np.ndarray:
        return self.book.take(self.codes[key])

    def __array__(
        self, dtype: "np.dtype | None" = None, copy: bool | None = None
    ) -> np.ndarray:
        scores = self.book.take(self.codes)
        return scores if dtype is None else scores.astype(dtype, copy=False)


@dataclass
class TermRun:
    """One query term's live traversal state over the arena columns.

    ``doc_ids``/``scores`` are the two posting columns and ``pos`` is the
    cursor position within them (the kernels mutate it in place).
    ``doc_ids`` is in its arena's one dtype (:func:`doc_id_dtype`; the
    runs of one arena never mix).  Over a raw arena both are zero-copy
    views, scores ``float64``; over a compressed arena they come as its
    LRU keeps them, ``scores`` as a :class:`CodedScores` gather-on-read
    column.  :meth:`widen` turns either into ``int64``/``float64`` arrays
    for readers that go posting by posting.
    """

    term: str
    doc_ids: np.ndarray
    scores: np.ndarray | CodedScores
    upper_bound: float
    size: int
    pos: int = 0

    def remaining(self) -> int:
        return max(self.size - self.pos, 0)

    def exhausted(self) -> bool:
        return self.pos >= self.size

    def widen(self) -> "TermRun":
        """Make both columns ``int64``/``float64`` arrays, once, in place.

        For the per-document sequential readers: one pass over the run
        costs less than boxing every element out of a narrow or coded
        column.  A no-op (the same views) only on a run whose ids are
        already ``int64``: a raw arena's ``int32`` ids are copied wide.
        """
        self.doc_ids = self.doc_ids.astype(np.int64, copy=False)
        self.scores = np.asarray(self.scores)
        return self


class PostingsArena:
    """Immutable columnar view of one shard's complete inverted index.

    The one constructor of a raw arena: the index builders write these
    columns directly, and everything else about the shard's postings
    (term statistics, the kernels, ``.store`` packing) reads them.
    The columns are checked here, vectorized, so a malformed index is a
    one-line ``ValueError`` when it is built, never a misaligned slice
    later.

    Attributes
    ----------
    terms:
        Every term of the shard, sorted and unique.
    offsets:
        ``offsets[i]:offsets[i+1]`` slices term *i*'s postings out of the
        columns.
    doc_ids, scores:
        All posting lists concatenated in ``terms`` order: per term,
        strictly increasing non-negative doc ids and ``float64`` scores.
        The ids are ``int32`` when every one fits, else ``int64``
        (:func:`doc_id_dtype`): ``int32`` input is adopted as given,
        anything else is read as ``int64`` and narrowed once.
    upper_bounds:
        Per-term global score upper bounds, aligned with ``terms``.
    """

    __slots__ = (
        "terms", "offsets", "doc_ids", "scores", "upper_bounds", "_term_ids",
    )

    def __init__(
        self,
        terms: list[str],
        offsets: np.ndarray,
        doc_ids: np.ndarray,
        scores: np.ndarray,
        upper_bounds: np.ndarray,
    ) -> None:
        self.terms = list(terms)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        ids = np.asarray(doc_ids)
        if ids.dtype != np.int32:
            ids = ids.astype(np.int64, copy=False)
        bounds = (ids.min(), ids.max()) if ids.size else (0, 0)
        self.doc_ids = ids.astype(doc_id_dtype(*bounds), copy=False)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.upper_bounds = np.asarray(upper_bounds, dtype=np.float64)
        self._check()
        self._term_ids = {term: i for i, term in enumerate(self.terms)}

    def _check(self) -> None:
        """One-line ``ValueError`` for the first malformed column found."""
        terms, offsets, doc_ids = self.terms, self.offsets, self.doc_ids
        n = doc_ids.size
        if offsets.shape != (len(terms) + 1,) or self.upper_bounds.shape != (
            len(terms),
        ):
            raise ValueError(
                f"arena: {len(terms)} terms need {len(terms) + 1} offsets and "
                f"{len(terms)} upper bounds, got {offsets.size} and "
                f"{self.upper_bounds.size}"
            )
        if doc_ids.ndim != 1 or self.scores.shape != (n,):
            raise ValueError(
                f"arena: columns of unequal length ({doc_ids.size} doc ids, "
                f"{self.scores.size} scores)"
            )
        if offsets[0] != 0 or offsets[-1] != n:
            raise ValueError(
                f"arena: offsets run {int(offsets[0])}..{int(offsets[-1])}, "
                f"expected 0..{n} (the column length)"
            )
        steps = np.diff(offsets)
        if (steps < 0).any():
            at = int(np.argmin(steps))
            raise ValueError(
                f"arena: offsets decrease at term {terms[at]!r} "
                f"({int(offsets[at + 1])} after {int(offsets[at])})"
            )
        for before, after in zip(terms, terms[1:]):
            if before >= after:
                problem = "duplicate" if before == after else "unsorted"
                raise ValueError(
                    f"arena: {problem} term {after!r} after {before!r}; "
                    "terms must be sorted and unique"
                )

        def term_at(pos: int) -> str:
            return terms[int(np.searchsorted(offsets, pos, side="right")) - 1]

        if n and doc_ids.min() < 0:
            at = int(np.argmin(doc_ids))
            raise ValueError(
                f"term {term_at(at)!r}: negative doc id {int(doc_ids[at])}"
            )
        # Doc ids rise within a term; a term's first posting may drop.
        rises = doc_ids[1:] > doc_ids[:-1]
        firsts = offsets[1:-1]
        rises[firsts[(firsts > 0) & (firsts < n)] - 1] = True
        if not rises.all():
            at = int(np.argmin(rises)) + 1
            raise ValueError(
                f"term {term_at(at)!r}: doc_ids must be strictly increasing "
                f"({int(doc_ids[at])} after {int(doc_ids[at - 1])})"
            )

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_postings(self) -> int:
        return int(self.offsets[-1])

    def has_term(self, term: str) -> bool:
        return term in self._term_ids

    def run(self, term: str) -> TermRun | None:
        """A fresh traversal state for ``term`` (None when absent).

        Each call returns an independent :class:`TermRun` — duplicated
        query terms traverse separately, exactly like independent
        cursors.
        """
        tid = self._term_ids.get(term)
        if tid is None:
            return None
        lo, hi = int(self.offsets[tid]), int(self.offsets[tid + 1])
        return TermRun(
            term=term,
            doc_ids=self.doc_ids[lo:hi],
            scores=self.scores[lo:hi],
            upper_bound=float(self.upper_bounds[tid]),
            size=hi - lo,
        )

    def __repr__(self) -> str:
        return f"PostingsArena({self.n_terms} terms, {self.n_postings} postings)"


# ----------------------------------------------------------- bit packing
#
# Fixed-width little-endian packing into uint64 words.  Every packed
# segment carries one trailing zero pad word so the decoder can always
# gather word ``wi + 1`` unconditionally; widths are capped at 63 bits so
# every shift stays in [0, 63] (numpy shifts by >= 64 are undefined).

_MAX_BITS = 63


def bits_for(max_value: int) -> int:
    """Smallest usable bit width for values in ``[0, max_value]`` (>= 1)."""
    if max_value < 0:
        raise ValueError("bit-packed values must be non-negative")
    width = int(max_value).bit_length()
    if width > _MAX_BITS:
        raise ValueError(f"value {max_value} needs {width} bits (max {_MAX_BITS})")
    return max(width, 1)


def packed_words(n_values: int, width: int) -> int:
    """Word count of a packed segment, including the trailing pad word."""
    return (n_values * width + 63) // 64 + 1


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative ints into ``width``-bit fields of uint64 words."""
    if not 1 <= width <= _MAX_BITS:
        raise ValueError(f"width must be in [1, {_MAX_BITS}], got {width}")
    n = int(values.size)
    words = np.zeros(packed_words(n, width), dtype=np.uint64)
    if n == 0:
        return words
    v = np.ascontiguousarray(values, dtype=np.int64)
    if int(v.min()) < 0 or int(v.max()) >> width:
        raise ValueError(f"values do not fit in {width} bits")
    u = v.view(np.uint64)
    pos = np.arange(0, n * width, width, dtype=np.uint64)
    wi = (pos >> np.uint64(6)).view(np.int64)
    bo = pos & np.uint64(63)
    # The word index never decreases: OR-reduce each run of fields that
    # start in the same word and store the run's word once.
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(wi[1:], wi[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    words[wi[starts]] = np.bitwise_or.reduceat(u << bo, starts)
    # A field straddling a word boundary spills its high bits into the
    # next word (the pad word absorbs the final spill); at most one field
    # straddles each boundary, so the targets are unique.
    spill = np.flatnonzero(bo > np.uint64(64 - width))
    if spill.size:
        words[wi[spill] + 1] |= u[spill] >> (np.uint64(64) - bo[spill])
    return words


def unpack_bits(words: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``n`` values as an int64 array.

    ``words`` is only read; the result is a fresh, writable array.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # One scratch buffer serves as bit position, bit offset and
    # complementary shift in turn; every pass below is in place.
    pos = np.arange(0, n * width, width, dtype=np.uint64)
    wi = (pos >> np.uint64(6)).view(np.int64)
    pos &= np.uint64(63)
    out = words.take(wi)
    out >>= pos
    wi += 1
    hi = words.take(wi)
    # The high word moves left by 64 - bo in two steps, 63 - bo then 1,
    # so every shift count stays in [0, 63] and the bo == 0 lanes (where
    # the high word contributes nothing) shift themselves out to zero.
    np.subtract(np.uint64(63), pos, out=pos)
    hi <<= pos
    hi <<= np.uint64(1)
    out |= hi
    out &= np.uint64((1 << width) - 1)
    return out.view(np.int64)


@dataclass(frozen=True)
class DecodeStats:
    """LRU decode-cache counters for one :class:`CompressedPostingsArena`."""

    hits: int
    misses: int
    entries: int
    bytes: int
    evictions: int = 0


_SCORE_RAW = 0
_SCORE_CODEBOOK = 1

DEFAULT_DECODE_CACHE_BYTES = 256 << 20
"""Default decode-LRU budget: decoded columns kept per arena (bytes)."""


def _checked_budget(cache_bytes: int) -> int:
    if cache_bytes < 0:
        raise ValueError(
            f"decode cache budget must be non-negative, got {cache_bytes}"
        )
    return int(cache_bytes)


def _doc_dtype(
    offsets: np.ndarray, first_docs: np.ndarray, doc_widths: np.ndarray
) -> type[np.signedinteger]:
    """:func:`doc_id_dtype` of the id bound the metadata proves.

    O(terms), nothing decoded: each of a term's ``count - 1`` stored gaps
    is below ``2**width``, so its ids end at or below ``first + (count -
    1) * 2**width``.  Float64 is exact far beyond the ``int32`` range the
    bound is compared against and cannot overflow at any legal width.
    """
    if len(first_docs) == 0:
        return doc_id_dtype(0, 0)
    gaps = np.maximum(np.diff(offsets) - 1, 0).astype(np.float64)
    last = first_docs + np.ldexp(gaps, doc_widths.astype(np.int64))
    return doc_id_dtype(first_docs.min(), last.max())


class CompressedPostingsArena:
    """Delta/bit-packed :class:`PostingsArena` with per-term lazy decode.

    Same query-facing surface as the raw arena (``run``/``has_term``/
    ``terms``), but the columns live packed: ``run`` decodes
    one term's doc ids and scores on demand through a byte-bounded LRU
    and returns a :class:`TermRun` over what the LRU keeps — the raw
    arena's doc ids in ``doc_dtype`` and its scores, bit for bit, behind
    a :class:`CodedScores` column — so the kernels are bit-identical on
    either arena.

    ``doc_dtype`` is one dtype for the whole arena, decided at
    construction from the per-term metadata without decoding anything:
    a term's last doc id is at most ``first_docs[t] + (count - 1) *
    2**doc_widths[t]`` (every stored gap is below ``2**width``), and
    :func:`doc_id_dtype` — the raw arena's rule — turns the bound over
    every term into ``int32`` or ``int64``.  Never per term: the runs of
    one query always share a dtype, so no kernel comparison or
    ``searchsorted`` ever mixes widths.

    Encoding, per term with ``n`` postings:

    * **doc_ids** — ``first_docs[t]`` plus ``n - 1`` gaps, each stored as
      ``delta - 1`` (doc ids are strictly increasing) in
      ``doc_widths[t]``-bit fields; decoded with a cumulative sum.
    * **scores** — a sorted float64 codebook of the distinct values plus
      bit-packed codebook indices, *verified bitwise* against the source
      at build time; terms where the codebook does not pay for itself (or
      fails the bitwise check, e.g. ``-0.0``) store raw float64.

    All packed streams are flat arrays sliced by per-term offsets, so the
    whole structure maps 1:1 onto the on-disk TOC of
    :mod:`repro.index.store` and can be backed by ``np.memmap`` columns.
    """

    __slots__ = (
        "terms", "offsets", "first_docs",
        "doc_widths", "doc_words", "doc_word_offsets",
        "score_kinds", "score_widths",
        "score_raw", "score_raw_offsets",
        "score_books", "score_book_offsets",
        "score_words", "score_word_offsets",
        "upper_bounds", "doc_dtype",
        "_term_ids", "_cache", "_cache_bytes", "_cache_budget",
        "_lock", "_hits", "_misses", "_evictions",
    )

    def __init__(
        self,
        terms: list[str],
        offsets: np.ndarray,
        first_docs: np.ndarray,
        doc_widths: np.ndarray,
        doc_words: np.ndarray,
        doc_word_offsets: np.ndarray,
        score_kinds: np.ndarray,
        score_widths: np.ndarray,
        score_raw: np.ndarray,
        score_raw_offsets: np.ndarray,
        score_books: np.ndarray,
        score_book_offsets: np.ndarray,
        score_words: np.ndarray,
        score_word_offsets: np.ndarray,
        upper_bounds: np.ndarray,
        cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
    ) -> None:
        self.terms = terms
        self.offsets = offsets
        self.first_docs = first_docs
        self.doc_widths = doc_widths
        self.doc_words = doc_words
        self.doc_word_offsets = doc_word_offsets
        self.score_kinds = score_kinds
        self.score_widths = score_widths
        self.score_raw = score_raw
        self.score_raw_offsets = score_raw_offsets
        self.score_books = score_books
        self.score_book_offsets = score_book_offsets
        self.score_words = score_words
        self.score_word_offsets = score_word_offsets
        self.upper_bounds = upper_bounds
        self.doc_dtype = _doc_dtype(offsets, first_docs, doc_widths)
        self._term_ids = {term: i for i, term in enumerate(terms)}
        # Decoded-column LRU: tid -> (doc_ids, scores, nbytes).
        self._cache: OrderedDict[
            int, tuple[np.ndarray, np.ndarray | CodedScores, int]
        ] = OrderedDict()
        self._cache_bytes = 0
        self._cache_budget = _checked_budget(cache_bytes)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------ build
    @classmethod
    def from_arena(
        cls,
        arena: PostingsArena,
        cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
    ) -> "CompressedPostingsArena":
        """Compress a raw arena (bit-exact: ``run`` round-trips verbatim)."""
        _checked_budget(cache_bytes)  # before the work, not after it
        n = arena.n_terms
        first_docs = np.zeros(n, dtype=np.int64)
        doc_widths = np.ones(n, dtype=np.uint8)
        score_kinds = np.zeros(n, dtype=np.uint8)
        score_widths = np.ones(n, dtype=np.uint8)
        doc_word_offsets = np.zeros(n + 1, dtype=np.int64)
        score_raw_offsets = np.zeros(n + 1, dtype=np.int64)
        score_book_offsets = np.zeros(n + 1, dtype=np.int64)
        score_word_offsets = np.zeros(n + 1, dtype=np.int64)
        doc_chunks: list[np.ndarray] = []
        raw_chunks: list[np.ndarray] = []
        book_chunks: list[np.ndarray] = []
        idx_chunks: list[np.ndarray] = []
        for tid in range(n):
            lo, hi = int(arena.offsets[tid]), int(arena.offsets[tid + 1])
            count = hi - lo
            docs = np.ascontiguousarray(arena.doc_ids[lo:hi], dtype=np.int64)
            scores = np.ascontiguousarray(arena.scores[lo:hi], dtype=np.float64)
            # -- doc ids: first + (delta - 1) gaps (the raw arena's
            # constructor checked them non-negative and strictly increasing)
            if count:
                first_docs[tid] = docs[0]
            if count > 1:
                gaps = np.diff(docs)
                gaps -= 1
                doc_widths[tid] = bits_for(int(gaps.max()))
                doc_chunks.append(pack_bits(gaps, int(doc_widths[tid])))
            else:
                doc_chunks.append(np.zeros(packed_words(0, 1), dtype=np.uint64))
            doc_word_offsets[tid + 1] = doc_word_offsets[tid] + doc_chunks[-1].size
            # -- scores: codebook when it pays AND round-trips bitwise
            encoded = False
            if count:
                book, idx = np.unique(scores, return_inverse=True)
                width = bits_for(max(int(book.size) - 1, 0))
                cost = book.size * 64 + packed_words(count, width) * 64
                if cost < count * 64 and np.array_equal(
                    book[idx].view(np.int64), scores.view(np.int64)
                ):
                    encoded = True
                    score_kinds[tid] = _SCORE_CODEBOOK
                    score_widths[tid] = width
                    book_chunks.append(book)
                    idx_chunks.append(pack_bits(idx.astype(np.int64), width))
                    score_book_offsets[tid + 1] = (
                        score_book_offsets[tid] + book.size
                    )
                    score_word_offsets[tid + 1] = (
                        score_word_offsets[tid] + idx_chunks[-1].size
                    )
                    score_raw_offsets[tid + 1] = score_raw_offsets[tid]
            if not encoded:
                raw_chunks.append(scores)
                score_raw_offsets[tid + 1] = score_raw_offsets[tid] + count
                score_book_offsets[tid + 1] = score_book_offsets[tid]
                score_word_offsets[tid + 1] = score_word_offsets[tid]

        def _cat(chunks: list[np.ndarray], dtype: type) -> np.ndarray:
            return (
                np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)
            )

        return cls(
            terms=list(arena.terms),
            offsets=np.asarray(arena.offsets, dtype=np.int64).copy(),
            first_docs=first_docs,
            doc_widths=doc_widths,
            doc_words=_cat(doc_chunks, np.uint64),
            doc_word_offsets=doc_word_offsets,
            score_kinds=score_kinds,
            score_widths=score_widths,
            score_raw=_cat(raw_chunks, np.float64),
            score_raw_offsets=score_raw_offsets,
            score_books=_cat(book_chunks, np.float64),
            score_book_offsets=score_book_offsets,
            score_words=_cat(idx_chunks, np.uint64),
            score_word_offsets=score_word_offsets,
            upper_bounds=np.asarray(arena.upper_bounds, dtype=np.float64).copy(),
            cache_bytes=cache_bytes,
        )

    # ----------------------------------------------------------- decode
    def _decode(self, tid: int) -> tuple[np.ndarray, np.ndarray | CodedScores]:
        count = int(self.offsets[tid + 1]) - int(self.offsets[tid])
        doc_ids = np.empty(count, dtype=self.doc_dtype)
        if count == 0:
            return doc_ids, np.zeros(0, dtype=np.float64)
        doc_ids[0] = self.first_docs[tid]
        if count > 1:
            wlo, whi = int(self.doc_word_offsets[tid]), int(self.doc_word_offsets[tid + 1])
            gaps = unpack_bits(
                self.doc_words[wlo:whi], count - 1, int(self.doc_widths[tid])
            )
            # Stored gaps are delta - 1; seeding the first with the first
            # doc id lets one cumsum write the ids into their final buffer
            # (and final width: the sums fit ``doc_dtype`` by construction).
            gaps += 1
            gaps[0] += doc_ids[0]
            np.cumsum(gaps, out=doc_ids[1:])
        scores: np.ndarray | CodedScores
        if self.score_kinds[tid] == _SCORE_CODEBOOK:
            blo, bhi = (
                int(self.score_book_offsets[tid]),
                int(self.score_book_offsets[tid + 1]),
            )
            wlo, whi = (
                int(self.score_word_offsets[tid]),
                int(self.score_word_offsets[tid + 1]),
            )
            width = int(self.score_widths[tid])
            idx = unpack_bits(self.score_words[wlo:whi], count, width)
            # Kept as indices, in the narrowest unsigned dtype the width
            # allows: the float64 column is never materialized here.
            scores = CodedScores(
                idx.astype(np.min_scalar_type((1 << width) - 1)),
                self.score_books[blo:bhi],
            )
        else:
            rlo, rhi = (
                int(self.score_raw_offsets[tid]),
                int(self.score_raw_offsets[tid + 1]),
            )
            scores = self.score_raw[rlo:rhi]
        return doc_ids, scores

    def columns(self, tid: int) -> tuple[np.ndarray, np.ndarray | CodedScores]:
        """Decoded (doc_ids, scores) for term ``tid``, LRU-cached."""
        with self._lock:
            entry = self._cache.get(tid)
            if entry is not None:
                self._hits += 1
                self._cache.move_to_end(tid)
                return entry[0], entry[1]
            self._misses += 1
        doc_ids, scores = self._decode(tid)
        nbytes = doc_ids.nbytes + scores.nbytes
        with self._lock:
            if tid not in self._cache:
                self._cache[tid] = (doc_ids, scores, nbytes)
                self._cache_bytes += nbytes
                while self._cache_bytes > self._cache_budget and len(self._cache) > 1:
                    _, evicted = self._cache.popitem(last=False)
                    self._cache_bytes -= evicted[2]
                    self._evictions += 1
        return doc_ids, scores

    def set_cache_budget(self, cache_bytes: int) -> None:
        """Re-size the decode LRU in place (evicting down if shrunk).

        At least one entry always survives — the same floor the insert
        path keeps, so a budget smaller than any single column degrades
        to "cache exactly the last decoded term", never to thrashing on
        the entry being returned.
        """
        budget = _checked_budget(cache_bytes)
        with self._lock:
            self._cache_budget = budget
            while self._cache_bytes > self._cache_budget and len(self._cache) > 1:
                _, evicted = self._cache.popitem(last=False)
                self._cache_bytes -= evicted[2]
                self._evictions += 1

    @property
    def decode_stats(self) -> DecodeStats:
        with self._lock:
            return DecodeStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._cache),
                bytes=self._cache_bytes,
                evictions=self._evictions,
            )

    # ------------------------------------------------------------ query
    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_postings(self) -> int:
        return int(self.offsets[-1])

    def has_term(self, term: str) -> bool:
        return term in self._term_ids

    def run(self, term: str) -> TermRun | None:
        """A fresh :class:`TermRun` over the LRU's columns (or None)."""
        tid = self._term_ids.get(term)
        if tid is None:
            return None
        doc_ids, scores = self.columns(tid)
        return TermRun(
            term=term,
            doc_ids=doc_ids,
            scores=scores,
            upper_bound=float(self.upper_bounds[tid]),
            size=doc_ids.size,
        )

    # ------------------------------------------------------- accounting
    @property
    def packed_nbytes(self) -> int:
        """Bytes of the packed posting columns plus per-term metadata."""
        return sum(
            int(getattr(self, name).nbytes)
            for name in (
                "offsets", "first_docs",
                "doc_widths", "doc_words", "doc_word_offsets",
                "score_kinds", "score_widths",
                "score_raw", "score_raw_offsets",
                "score_books", "score_book_offsets",
                "score_words", "score_word_offsets",
            )
        )

    @property
    def raw_nbytes(self) -> int:
        """The same postings at :data:`RAW_POSTING_BYTES` (``int64`` +
        ``float64``) each: the reference, not what a raw arena holds."""
        return self.n_postings * RAW_POSTING_BYTES

    @property
    def compression_ratio(self) -> float:
        packed = self.packed_nbytes
        return self.raw_nbytes / packed if packed else 1.0

    def __repr__(self) -> str:
        return (
            f"CompressedPostingsArena({self.n_terms} terms, "
            f"{self.n_postings} postings, {self.compression_ratio:.2f}x)"
        )
