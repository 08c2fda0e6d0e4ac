"""Versioned raw-column shard store: mmap-backed, O(1) to open.

One shard serializes to a single ``.store`` file::

    MAGIC (8 bytes) | header length (uint64 LE) | header JSON | pad
    | raw array sections, each 64-byte aligned |

The header JSON carries the format version, the shard metadata (ids,
collection statistics, similarity config) and a table of contents: one
``{name, dtype, count, offset}`` entry per array.  The arrays are the
*packed* columns of :class:`~repro.index.arena.CompressedPostingsArena`
written verbatim — delta/bit-packed doc ids, bit-packed tfs, codebook
scores — plus per-term upper bounds, block-max metadata, global document
frequencies and bit-packed document lengths.

Opening a store (:func:`open_store`) builds a :class:`LazyIndexShard`
whose columns are ``np.memmap`` views at the TOC offsets: no postings
are materialized, no pages are read beyond the header, and a term's
postings are only decoded (through the arena's LRU) when a query first
touches the term.  The identical byte layout can instead live in any
in-memory buffer — :func:`serialize_shard` produces the bytes,
:func:`open_store_buffer` attaches to them with zero-copy
``np.frombuffer`` views.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.index.arena import (
    DEFAULT_DECODE_CACHE_BYTES,
    CompressedPostingsArena,
    bits_for,
    pack_bits,
    unpack_bits,
)
from repro.index.postings import PostingList
from repro.index.shard import IndexShard, ShardTerm
from repro.index.storage import _similarity_config, _similarity_from_config

MAGIC = b"RPROSTOR"
FORMAT_VERSION = 1
_ALIGN = 64

#: TOC name -> numpy dtype of every array section, in file order.
_ARRAY_DTYPES: dict[str, str] = {
    "terms_blob": "u1",
    "offsets": "i8",
    "first_docs": "i8",
    "doc_widths": "u1",
    "doc_words": "u8",
    "doc_word_offsets": "i8",
    "tf_widths": "u1",
    "tf_words": "u8",
    "tf_word_offsets": "i8",
    "score_kinds": "u1",
    "score_widths": "u1",
    "score_raw": "f8",
    "score_raw_offsets": "i8",
    "score_books": "f8",
    "score_book_offsets": "i8",
    "score_words": "u8",
    "score_word_offsets": "i8",
    "upper_bounds": "f8",
    "global_dfs": "i8",
    "block_maxes": "f8",
    "block_offsets": "i8",
    "doc_len_id_words": "u8",
    "doc_len_val_words": "u8",
}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _compressed_arena(shard: IndexShard) -> CompressedPostingsArena:
    arena = shard.arena
    if isinstance(arena, CompressedPostingsArena):
        return arena
    return CompressedPostingsArena.from_arena(arena)


def _global_dfs(shard: IndexShard, terms: list[str]) -> np.ndarray:
    stored = getattr(shard, "global_dfs", None)
    if stored is not None:
        return np.ascontiguousarray(stored, dtype=np.int64)
    dfs = np.zeros(len(terms), dtype=np.int64)
    for i, term in enumerate(terms):
        entry = shard.term(term)
        dfs[i] = entry.global_doc_freq if entry is not None else 0
    return dfs


def serialize_shard(shard: IndexShard) -> bytes:
    """The complete ``.store`` byte image of ``shard`` (file == buffer)."""
    carena = _compressed_arena(shard)
    terms = carena.terms
    for term in terms:
        if "\n" in term:
            raise ValueError(f"term {term!r} contains a newline")
    terms_blob = np.frombuffer(
        "\n".join(terms).encode("utf-8"), dtype=np.uint8
    )
    # Document lengths: sorted ids delta-packed (gap - 1, strictly
    # increasing), values bit-packed raw.
    ids = np.asarray(sorted(shard.doc_lengths), dtype=np.int64)
    values = np.asarray(
        [shard.doc_lengths[int(d)] for d in ids], dtype=np.int64
    )
    if ids.size and int(values.min()) < 0:
        raise ValueError("negative document length")
    doc_len_first = int(ids[0]) if ids.size else 0
    if ids.size > 1:
        gaps = np.diff(ids)
        if int(gaps.min()) <= 0:
            raise ValueError("doc_lengths ids must be unique")
        gaps -= 1
        id_width = bits_for(int(gaps.max()))
        id_words = pack_bits(gaps, id_width)
    else:
        id_width = 1
        id_words = pack_bits(np.zeros(0, dtype=np.int64), 1)
    val_width = bits_for(int(values.max())) if ids.size else 1
    val_words = pack_bits(values, val_width)

    arrays: dict[str, np.ndarray] = {
        "terms_blob": terms_blob,
        "offsets": carena.offsets,
        "first_docs": carena.first_docs,
        "doc_widths": carena.doc_widths,
        "doc_words": carena.doc_words,
        "doc_word_offsets": carena.doc_word_offsets,
        "tf_widths": carena.tf_widths,
        "tf_words": carena.tf_words,
        "tf_word_offsets": carena.tf_word_offsets,
        "score_kinds": carena.score_kinds,
        "score_widths": carena.score_widths,
        "score_raw": carena.score_raw,
        "score_raw_offsets": carena.score_raw_offsets,
        "score_books": carena.score_books,
        "score_book_offsets": carena.score_book_offsets,
        "score_words": carena.score_words,
        "score_word_offsets": carena.score_word_offsets,
        "upper_bounds": carena.upper_bounds,
        "global_dfs": _global_dfs(shard, terms),
        "block_maxes": carena.block_maxes,
        "block_offsets": carena.block_offsets,
        "doc_len_id_words": id_words,
        "doc_len_val_words": val_words,
    }
    meta = {
        "shard_id": shard.shard_id,
        "n_docs": shard.n_docs,
        "avg_doc_length": shard.avg_doc_length,
        "total_tokens": shard.total_tokens,
        "n_docs_global": shard.n_docs_global,
        "similarity": _similarity_config(shard.similarity),
        "block_size": carena.block_size,
        "n_terms": carena.n_terms,
        "n_postings": carena.n_postings,
        "n_doc_lengths": int(ids.size),
        "doc_len_first": doc_len_first,
        "doc_len_id_width": id_width,
        "doc_len_val_width": val_width,
    }
    # Lay out the sections first (offsets depend on the header length,
    # which depends on the offsets) by iterating to a fixed point on the
    # header size — two passes suffice because only the digits change.
    toc = [
        {"name": name, "dtype": _ARRAY_DTYPES[name], "count": int(arr.size)}
        for name, arr in arrays.items()
    ]
    header_len = 0
    for _ in range(8):
        offset = _align(len(MAGIC) + 8 + header_len)
        for entry in toc:
            entry["offset"] = offset
            nbytes = entry["count"] * np.dtype(entry["dtype"]).itemsize
            offset = _align(offset + nbytes)
        header_json = json.dumps(
            {"format_version": FORMAT_VERSION, "meta": meta, "arrays": toc},
            separators=(",", ":"),
        ).encode("utf-8")
        if len(header_json) == header_len:
            break
        header_len = len(header_json)
    total = offset
    buf = bytearray(total)
    buf[: len(MAGIC)] = MAGIC
    struct.pack_into("<Q", buf, len(MAGIC), header_len)
    buf[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len] = header_json
    for entry in toc:
        arr = np.ascontiguousarray(
            arrays[entry["name"]], dtype=np.dtype(entry["dtype"])
        )
        start = entry["offset"]
        buf[start : start + arr.nbytes] = arr.tobytes()
    return bytes(buf)


def write_store(shard: IndexShard, path: str | Path) -> Path:
    """Write one shard as a single ``.store`` file; returns the path."""
    path = Path(path)
    path.write_bytes(serialize_shard(shard))
    return path


def _parse_header(head: bytes, origin: str) -> tuple[dict, list[dict]]:
    if head[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{origin}: not a shard store (bad magic)")
    (header_len,) = struct.unpack_from("<Q", head, len(MAGIC))
    start = len(MAGIC) + 8
    if start + header_len > len(head):
        raise ValueError(f"{origin}: truncated store header")
    header = json.loads(head[start : start + header_len].decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{origin}: unsupported store format "
            f"{header.get('format_version')!r}"
        )
    return header["meta"], header["arrays"]


def _build_shard(
    meta: dict,
    arrays: dict[str, np.ndarray],
    cache_bytes: int,
    store_path: Path | None,
) -> "LazyIndexShard":
    terms_blob = bytes(np.asarray(arrays["terms_blob"], dtype=np.uint8))
    terms = terms_blob.decode("utf-8").split("\n") if terms_blob else []
    arena = CompressedPostingsArena(
        terms=terms,
        offsets=arrays["offsets"],
        first_docs=arrays["first_docs"],
        doc_widths=arrays["doc_widths"],
        doc_words=arrays["doc_words"],
        doc_word_offsets=arrays["doc_word_offsets"],
        tf_widths=arrays["tf_widths"],
        tf_words=arrays["tf_words"],
        tf_word_offsets=arrays["tf_word_offsets"],
        score_kinds=arrays["score_kinds"],
        score_widths=arrays["score_widths"],
        score_raw=arrays["score_raw"],
        score_raw_offsets=arrays["score_raw_offsets"],
        score_books=arrays["score_books"],
        score_book_offsets=arrays["score_book_offsets"],
        score_words=arrays["score_words"],
        score_word_offsets=arrays["score_word_offsets"],
        upper_bounds=arrays["upper_bounds"],
        block_maxes=arrays["block_maxes"],
        block_offsets=arrays["block_offsets"],
        block_size=int(meta["block_size"]),
        cache_bytes=cache_bytes,
    )
    return LazyIndexShard(
        shard_id=int(meta["shard_id"]),
        n_docs=int(meta["n_docs"]),
        avg_doc_length=float(meta["avg_doc_length"]),
        total_tokens=int(meta["total_tokens"]),
        n_docs_global=int(meta["n_docs_global"]),
        similarity=_similarity_from_config(meta["similarity"]),
        arena=arena,
        global_dfs=arrays["global_dfs"],
        doc_len_spec=(
            int(meta["n_doc_lengths"]),
            int(meta["doc_len_first"]),
            int(meta["doc_len_id_width"]),
            int(meta["doc_len_val_width"]),
            arrays["doc_len_id_words"],
            arrays["doc_len_val_words"],
        ),
        store_path=store_path,
    )


def open_store(
    path: str | Path,
    cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
) -> "LazyIndexShard":
    """Open a ``.store`` file as a :class:`LazyIndexShard` in O(1).

    Every column is an ``np.memmap`` view at its TOC offset: nothing is
    read beyond the header until a query decodes a term.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(len(MAGIC) + 8)
        if len(head) < len(MAGIC) + 8:
            raise ValueError(f"{path}: truncated store header")
        (header_len,) = struct.unpack_from("<Q", head, len(MAGIC))
        fh.seek(0)
        head = fh.read(len(MAGIC) + 8 + header_len)
    meta, toc = _parse_header(head, str(path))
    arrays = {
        entry["name"]: np.memmap(
            path,
            dtype=np.dtype(entry["dtype"]),
            mode="r",
            offset=int(entry["offset"]),
            shape=(int(entry["count"]),),
        )
        for entry in toc
    }
    return _build_shard(meta, arrays, cache_bytes, path)


def open_store_buffer(
    buf: "bytes | bytearray | memoryview",
    cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
) -> "LazyIndexShard":
    """Attach to a serialized store living in a buffer (zero-copy views).

    The in-memory inverse of :func:`serialize_shard`; the arrays are
    ``np.frombuffer`` views, so ``buf`` must outlive the shard.
    """
    head = bytes(memoryview(buf)[: len(MAGIC) + 8])
    if len(head) < len(MAGIC) + 8:
        raise ValueError("buffer: truncated store header")
    (header_len,) = struct.unpack_from("<Q", head, len(MAGIC))
    meta, toc = _parse_header(
        bytes(memoryview(buf)[: len(MAGIC) + 8 + header_len]), "buffer"
    )
    arrays = {
        entry["name"]: np.frombuffer(
            buf,
            dtype=np.dtype(entry["dtype"]),
            count=int(entry["count"]),
            offset=int(entry["offset"]),
        )
        for entry in toc
    }
    return _build_shard(meta, arrays, cache_bytes, None)


def store_info(path: str | Path) -> dict:
    """Header metadata plus file/compression accounting for one store."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(len(MAGIC) + 8)
        (header_len,) = struct.unpack_from("<Q", head, len(MAGIC))
        fh.seek(0)
        head = fh.read(len(MAGIC) + 8 + header_len)
    meta, toc = _parse_header(head, str(path))
    file_bytes = path.stat().st_size
    raw_bytes = int(meta["n_postings"]) * 20
    return {
        "path": str(path),
        "meta": meta,
        "file_bytes": file_bytes,
        "raw_column_bytes": raw_bytes,
        "compression_ratio": raw_bytes / file_bytes if file_bytes else 0.0,
        "arrays": toc,
    }


def pack_shards(shards: list[IndexShard], directory: str | Path) -> list[Path]:
    """Write every shard as ``shard_<id>.store`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [
        write_store(shard, directory / f"shard_{shard.shard_id}.store")
        for shard in shards
    ]


def open_stores(
    directory: str | Path,
    cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
) -> list["LazyIndexShard"]:
    """Open every ``shard_*.store`` in ``directory``, ordered by shard id."""
    directory = Path(directory)
    paths = sorted(
        directory.glob("shard_*.store"), key=lambda p: int(p.stem.split("_")[1])
    )
    if not paths:
        raise FileNotFoundError(f"no shard stores in {directory}")
    return [open_store(path, cache_bytes=cache_bytes) for path in paths]


class LazyIndexShard(IndexShard):
    """An :class:`IndexShard` whose postings live in a compressed store.

    Construction is O(1): the arena columns are memmap/buffer views and
    nothing is decoded up front.  ``term()`` materializes a
    :class:`ShardTerm` on first touch (the scalar evaluators and the
    MaxScore kernel's small-query dispatch floor both need one), reusing
    the arena's decoded columns; materialized terms are kept in
    ``_terms`` like any hand-built shard.  Concurrent first touches of
    one term may build the entry twice — both copies are identical views
    of the same decoded arrays, so the benign race never changes a
    result.

    ``store_path`` is the backing file (None for in-memory buffers).
    """

    def __init__(
        self,
        *,
        shard_id: int,
        n_docs: int,
        avg_doc_length: float,
        total_tokens: int,
        n_docs_global: int,
        similarity: object,
        arena: CompressedPostingsArena,
        global_dfs: np.ndarray,
        doc_len_spec: tuple[int, int, int, int, np.ndarray, np.ndarray],
        store_path: Path | None = None,
    ) -> None:
        # Deliberately not calling the dataclass __init__: doc_lengths is
        # a lazily-decoded property here, not a field.
        self.shard_id = shard_id
        self.n_docs = n_docs
        self.avg_doc_length = avg_doc_length
        self.total_tokens = total_tokens
        self.similarity = similarity
        self.n_docs_global = max(n_docs_global, n_docs)
        self._terms: dict[str, ShardTerm] = {}
        self._arena = arena
        self.global_dfs = global_dfs
        self._doc_len_spec = doc_len_spec
        self._doc_len_ids: np.ndarray | None = None
        self._doc_len_values: np.ndarray | None = None
        self._doc_lengths_dict: dict[int, int] | None = None
        self.store_path = store_path

    # ------------------------------------------------------ term access
    @property
    def arena(self) -> CompressedPostingsArena:  # type: ignore[override]
        return self._arena

    def has_term(self, term: str) -> bool:
        return self._arena.has_term(term)

    def term(self, term: str) -> ShardTerm | None:
        entry = self._terms.get(term)
        if entry is not None:
            return entry
        tid = self._arena._term_ids.get(term)
        if tid is None:
            return None
        run = self._arena.run(term)
        assert run is not None
        entry = ShardTerm(
            term=term,
            postings=PostingList(doc_ids=run.doc_ids, tfs=run.tfs),
            scores=run.scores,
            upper_bound=run.upper_bound,
            global_doc_freq=int(self.global_dfs[tid]),
            block_maxes=np.asarray(run.block_maxes),
        )
        self._terms[term] = entry
        return entry

    def doc_freq(self, term: str) -> int:
        tid = self._arena._term_ids.get(term)
        if tid is None:
            return 0
        return int(self._arena.offsets[tid + 1] - self._arena.offsets[tid])

    def idf(self, term: str) -> float:
        tid = self._arena._term_ids.get(term)
        df = int(self.global_dfs[tid]) if tid is not None else 0
        return self.similarity.idf(df, max(self.n_docs_global, 1))

    def postings(self, term: str) -> PostingList | None:
        entry = self.term(term)
        return entry.postings if entry is not None else None

    def scores(self, term: str) -> np.ndarray | None:
        entry = self.term(term)
        return entry.scores if entry is not None else None

    def upper_bound(self, term: str) -> float:
        tid = self._arena._term_ids.get(term)
        return float(self._arena.upper_bounds[tid]) if tid is not None else 0.0

    def vocabulary_size(self) -> int:
        return self._arena.n_terms

    def terms(self) -> list[str]:
        return list(self._arena.terms)

    # ---------------------------------------------------- doc lengths
    def _decode_doc_lens(self) -> tuple[np.ndarray, np.ndarray]:
        if self._doc_len_ids is None:
            n, first, id_width, val_width, id_words, val_words = (
                self._doc_len_spec
            )
            ids = np.empty(n, dtype=np.int64)
            if n:
                ids[0] = first
                if n > 1:
                    gaps = unpack_bits(id_words, n - 1, id_width)
                    np.add(gaps, 1, out=gaps)
                    ids[1:] = gaps
                    np.cumsum(ids, out=ids)
            self._doc_len_ids = ids
            self._doc_len_values = unpack_bits(val_words, n, val_width)
        assert self._doc_len_values is not None
        return self._doc_len_ids, self._doc_len_values

    @property
    def doc_lengths(self) -> dict[int, int]:  # type: ignore[override]
        if self._doc_lengths_dict is None:
            ids, values = self._decode_doc_lens()
            self._doc_lengths_dict = dict(
                zip(ids.tolist(), values.tolist())
            )
        return self._doc_lengths_dict

    def contains_doc(self, doc_id: int) -> bool:
        ids, _ = self._decode_doc_lens()
        pos = int(np.searchsorted(ids, doc_id))
        return pos < ids.size and int(ids[pos]) == doc_id

    def __repr__(self) -> str:
        return (
            f"LazyIndexShard(shard_id={self.shard_id}, n_docs={self.n_docs}, "
            f"store={str(self.store_path) if self.store_path else '<buffer>'})"
        )
