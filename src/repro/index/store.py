"""Versioned raw-column shard store: mmap-backed, nothing decoded at open.

One shard serializes to a single ``.store`` file::

    MAGIC (8 bytes) | header length (uint64 LE) | header JSON | pad
    | raw array sections, each 64-byte aligned |

The header JSON carries the format version, the shard metadata (ids,
collection statistics, the BM25 record) and a table of contents: one
``{name, dtype, count, offset}`` entry per array, in the fixed order of
``_ARRAY_DTYPES``, each section starting at the 64-byte boundary after
the previous one's end.  The arrays are the *packed* columns of
:class:`~repro.index.arena.CompressedPostingsArena` written verbatim —
delta/bit-packed doc ids and codebook scores — plus per-term upper
bounds and global document frequencies: exactly what a search and the
term statistics read.  A store of another format version is refused at
open; ``repro index build`` regenerates it.

Opening a store (:func:`open_store`) builds a :class:`LazyIndexShard`
whose columns are zero-copy views of read-only memory maps at the TOC
offsets: no postings are materialized, and a term's postings are only
decoded (through the arena's LRU) when a query first touches the term.
What decode trusts is verified once at open, vectorized over the
per-term metadata — header length, TOC layout, offsets, widths, word
counts — so a truncated or structurally corrupt store is a
one-line ``ValueError`` naming the file and the field, never an
``IndexError``, an unbounded allocation or a silently different answer.
The checks stop at structure: value columns (first doc ids, upper
bounds, codebooks, the packed words themselves) carry no checksum, so a
flipped value there is a different index, not a detected fault.  The
identical byte layout can instead live in any in-memory buffer —
:func:`serialize_shard` produces the bytes, :func:`open_store_buffer`
attaches to them with zero-copy ``np.frombuffer`` views and the same
checks.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.index.arena import (
    _MAX_BITS,
    DEFAULT_DECODE_CACHE_BYTES,
    RAW_POSTING_BYTES,
    CompressedPostingsArena,
    packed_words,
)
from repro.index.shard import IndexShard
from repro.scoring.similarity import B, K1

#: ``meta.similarity``: the ranking function the stored scores came from.
#: Every store carries exactly this record; any other is refused at open.
SIMILARITY = {"name": "BM25Similarity", "params": {"k1": K1, "b": B}}

MAGIC = b"RPROSTOR"
FORMAT_VERSION = 2
_ALIGN = 64
_PREFIX = len(MAGIC) + 8

#: TOC name -> numpy dtype of every array section, in file order.
_ARRAY_DTYPES: dict[str, str] = {
    "terms_blob": "u1",
    "offsets": "i8",
    "first_docs": "i8",
    "doc_widths": "u1",
    "doc_words": "u8",
    "doc_word_offsets": "i8",
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
}

#: Arrays holding exactly one element per term (``*offsets`` hold one more).
_PER_TERM = frozenset({
    "first_docs", "doc_widths", "score_kinds", "score_widths",
    "upper_bounds", "global_dfs",
})

_INT64 = (-(1 << 63), (1 << 63) - 1)
_COUNT = (0, _INT64[1])

#: Integer header fields -> inclusive legal range.
_META_RANGES: dict[str, tuple[int, int]] = {
    "shard_id": _INT64,
    "n_docs": _COUNT,
    "total_tokens": _COUNT,
    "n_docs_global": _COUNT,
    "n_terms": _COUNT,
    "n_postings": _COUNT,
}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _compressed_arena(shard: IndexShard) -> CompressedPostingsArena:
    arena = shard.arena
    if isinstance(arena, CompressedPostingsArena):
        return arena
    return CompressedPostingsArena.from_arena(arena)


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

    arrays: dict[str, np.ndarray] = {
        "terms_blob": terms_blob,
        "offsets": carena.offsets,
        "first_docs": carena.first_docs,
        "doc_widths": carena.doc_widths,
        "doc_words": carena.doc_words,
        "doc_word_offsets": carena.doc_word_offsets,
        "score_kinds": carena.score_kinds,
        "score_widths": carena.score_widths,
        "score_raw": carena.score_raw,
        "score_raw_offsets": carena.score_raw_offsets,
        "score_books": carena.score_books,
        "score_book_offsets": carena.score_book_offsets,
        "score_words": carena.score_words,
        "score_word_offsets": carena.score_word_offsets,
        "upper_bounds": carena.upper_bounds,
        "global_dfs": shard.global_dfs,
    }
    meta = {
        "shard_id": shard.shard_id,
        "n_docs": shard.n_docs,
        "avg_doc_length": shard.avg_doc_length,
        "total_tokens": shard.total_tokens,
        "n_docs_global": shard.n_docs_global,
        "similarity": SIMILARITY,
        "n_terms": carena.n_terms,
        "n_postings": carena.n_postings,
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


def _bad(origin: str, field: str, problem: str) -> ValueError:
    return ValueError(f"{origin}: {field}: {problem}")


def _header_len(prefix: bytes, size: int, origin: str) -> int:
    """The header length read from the fixed prefix, checked against ``size``."""
    if len(prefix) < _PREFIX:
        raise ValueError(f"{origin}: truncated store header")
    if prefix[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{origin}: not a shard store (bad magic)")
    (header_len,) = struct.unpack_from("<Q", prefix, len(MAGIC))
    if _PREFIX + header_len > size:
        raise _bad(
            origin, "header_len",
            f"{header_len} bytes do not fit a {size}-byte store (truncated?)",
        )
    return header_len


def _is_int(value: object, lo: int, hi: int) -> bool:
    return type(value) is int and lo <= value <= hi


def _parse_header(
    header_json: bytes, size: int, origin: str
) -> tuple[dict, list[dict]]:
    """Meta and TOC of a ``size``-byte store, checked against the layout.

    The TOC must list exactly the arrays of ``_ARRAY_DTYPES``, in file
    order with their dtypes, each at the offset :func:`serialize_shard`
    lays it out at and ending inside the store.
    """
    try:
        header = json.loads(header_json.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise _bad(origin, "header", f"not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise _bad(origin, "header", "not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{origin}: store format {header.get('format_version')!r}, this "
            f"reader supports format {FORMAT_VERSION}; rebuild the stores "
            "with `repro index build`"
        )
    meta, toc = header.get("meta"), header.get("arrays")
    if not isinstance(meta, dict):
        raise _bad(origin, "meta", "not a JSON object")
    for key, (lo, hi) in _META_RANGES.items():
        if not _is_int(meta.get(key), lo, hi):
            raise _bad(
                origin, f"meta.{key}",
                f"expected an integer in [{lo}, {hi}], got {meta.get(key)!r}",
            )
    if not isinstance(meta.get("avg_doc_length"), (int, float)):
        raise _bad(
            origin, "meta.avg_doc_length",
            f"expected a number, got {meta.get('avg_doc_length')!r}",
        )
    if not isinstance(toc, list) or len(toc) != len(_ARRAY_DTYPES):
        raise _bad(origin, "arrays", f"expected {len(_ARRAY_DTYPES)} TOC entries")
    offset = _align(_PREFIX + len(header_json))
    for entry, (name, dtype) in zip(toc, _ARRAY_DTYPES.items()):
        if not isinstance(entry, dict) or entry.get("name") != name:
            raise _bad(origin, f"arrays[{name}]", "missing or out of order")
        if entry.get("dtype") != dtype:
            raise _bad(
                origin, f"arrays[{name}].dtype",
                f"expected {dtype!r}, got {entry.get('dtype')!r}",
            )
        if not _is_int(entry.get("count"), *_COUNT):
            raise _bad(
                origin, f"arrays[{name}].count",
                f"expected a non-negative integer, got {entry.get('count')!r}",
            )
        if entry.get("offset") != offset:
            raise _bad(
                origin, f"arrays[{name}].offset",
                f"expected {offset}, got {entry.get('offset')!r}",
            )
        end = offset + entry["count"] * np.dtype(dtype).itemsize
        if end > size:
            raise _bad(
                origin, f"arrays[{name}]",
                f"ends at byte {end} of a {size}-byte store (truncated?)",
            )
        offset = _align(end)
    return meta, toc


def _steps(
    origin: str, name: str, arrays: dict[str, np.ndarray], total: int
) -> np.ndarray:
    """Per-term steps of offsets array ``name``: 0-based, monotone, ending at ``total``."""
    offsets = arrays[name]
    if int(offsets[0]) != 0 or int(offsets.min()) < 0:
        raise _bad(origin, name, "must start at 0 and stay non-negative")
    steps = np.diff(offsets)
    if steps.size and int(steps.min()) < 0:
        raise _bad(origin, name, "must be non-decreasing")
    if int(offsets[-1]) != total:
        raise _bad(origin, name, f"ends at {int(offsets[-1])}, expected {total}")
    return steps


def _check_structure(
    meta: dict, toc: list[dict], arrays: dict[str, np.ndarray], origin: str
) -> None:
    """Everything decode trusts, verified once: O(n_terms), nothing per posting.

    After this, no per-term slice can leave its array, no width can
    break a shift, and no count can size an allocation beyond what the
    store's own byte length pays for.  Value columns (``first_docs``,
    ``upper_bounds``, codebooks, the packed words) are data, not
    structure: without checksums a flipped value is a different index,
    not a detectable fault.
    """
    counts = {entry["name"]: entry["count"] for entry in toc}
    n_terms, n_postings = meta["n_terms"], meta["n_postings"]
    for name, count in counts.items():
        per_term = (
            n_terms + 1 if name.endswith("offsets")
            else n_terms if name in _PER_TERM
            else count
        )
        if count != per_term:
            raise _bad(
                origin, f"arrays[{name}].count",
                f"expected {per_term} for {n_terms} terms, got {count}",
            )
    # Every gap costs at least one bit, so the words present bound the
    # postings a header may claim (and keep the products below in int64).
    if n_postings > 64 * counts["doc_words"] + n_terms:
        raise _bad(
            origin, "meta.n_postings",
            f"{n_postings} postings cannot fit {counts['doc_words']} doc words",
        )
    sizes = _steps(origin, "offsets", arrays, n_postings)
    widths = {}
    for name in ("doc_widths", "score_widths"):
        widths[name] = arrays[name].astype(np.int64)
        if not ((widths[name] >= 1) & (widths[name] <= _MAX_BITS)).all():
            raise _bad(origin, name, f"every width must be in [1, {_MAX_BITS}]")
    kinds = arrays["score_kinds"]
    if not (kinds <= 1).all():
        raise _bad(origin, "score_kinds", "every kind must be 0 (raw) or 1 (codebook)")
    booked = kinds == 1
    expected = {
        "doc_word_offsets": (
            "doc_words",
            packed_words(np.maximum(sizes - 1, 0), widths["doc_widths"]),
        ),
        "score_word_offsets": (
            "score_words",
            np.where(booked, packed_words(sizes, widths["score_widths"]), 0),
        ),
        "score_raw_offsets": ("score_raw", np.where(booked, 0, sizes)),
    }
    for name, (column, want) in expected.items():
        if not np.array_equal(_steps(origin, name, arrays, counts[column]), want):
            raise _bad(
                origin, name, "steps disagree with the term sizes and widths"
            )
    books = _steps(origin, "score_book_offsets", arrays, counts["score_books"])
    if not (books >= booked).all():
        raise _bad(origin, "score_book_offsets", "codebook-scored term has no codebook")


def _open(
    header_json: bytes, size: int, origin: str, view
) -> tuple[dict, list[dict], dict[str, np.ndarray]]:
    """Checked meta, TOC and arrays of a ``size``-byte store.

    ``view(dtype, count, offset)`` returns one section as a zero-copy
    array; it is only called with extents the TOC check found in range.
    """
    meta, toc = _parse_header(header_json, size, origin)
    arrays = {
        entry["name"]: view(np.dtype(entry["dtype"]), entry["count"], entry["offset"])
        for entry in toc
    }
    _check_structure(meta, toc, arrays, origin)
    return meta, toc, arrays


def _open_file(path: Path) -> tuple[dict, list[dict], dict[str, np.ndarray]]:
    size = path.stat().st_size
    with path.open("rb") as fh:
        header_len = _header_len(fh.read(_PREFIX), size, str(path))
        header_json = fh.read(header_len)

        def view(dtype: np.dtype, count: int, offset: int) -> np.ndarray:
            # A base-class view of the mapping (which keeps its own file
            # descriptor): still zero-copy and lazy, but per-term reads
            # and word gathers skip ``np.memmap``'s Python-level
            # ``__getitem__``/``__array_finalize__``.
            return np.asarray(
                np.memmap(fh, dtype=dtype, mode="r", offset=offset, shape=(count,))
            )

        return _open(header_json, size, str(path), view)


def _build_shard(
    meta: dict,
    arrays: dict[str, np.ndarray],
    cache_bytes: int,
    store_path: Path | None,
) -> "LazyIndexShard":
    origin = str(store_path) if store_path else "buffer"
    try:
        terms_blob = arrays["terms_blob"].tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _bad(origin, "terms_blob", "not valid UTF-8") from None
    terms = terms_blob.split("\n") if terms_blob else []
    if len(terms) != meta["n_terms"]:
        raise _bad(
            origin, "terms_blob",
            f"holds {len(terms)} terms, expected {meta['n_terms']}",
        )
    arena = CompressedPostingsArena(
        terms=terms,
        offsets=arrays["offsets"],
        first_docs=arrays["first_docs"],
        doc_widths=arrays["doc_widths"],
        doc_words=arrays["doc_words"],
        doc_word_offsets=arrays["doc_word_offsets"],
        score_kinds=arrays["score_kinds"],
        score_widths=arrays["score_widths"],
        score_raw=arrays["score_raw"],
        score_raw_offsets=arrays["score_raw_offsets"],
        score_books=arrays["score_books"],
        score_book_offsets=arrays["score_book_offsets"],
        score_words=arrays["score_words"],
        score_word_offsets=arrays["score_word_offsets"],
        upper_bounds=arrays["upper_bounds"],
        cache_bytes=cache_bytes,
    )
    record = meta.get("similarity")
    if record != SIMILARITY:
        name = record.get("name") if isinstance(record, dict) else record
        if name == SIMILARITY["name"]:
            problem = f"params {record.get('params')!r}, expected {SIMILARITY['params']!r}"
        else:
            problem = f"unknown similarity {name!r}"
        raise _bad(origin, "meta.similarity", problem)
    return LazyIndexShard(
        shard_id=meta["shard_id"],
        n_docs=meta["n_docs"],
        avg_doc_length=float(meta["avg_doc_length"]),
        total_tokens=meta["total_tokens"],
        arena=arena,
        global_dfs=arrays["global_dfs"],
        n_docs_global=meta["n_docs_global"],
        store_path=store_path,
    )


def open_store(
    path: str | Path,
    cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
) -> "LazyIndexShard":
    """Open a ``.store`` file as a :class:`LazyIndexShard` in O(n_terms).

    Every column is a read-only view of a memory map at its TOC
    offset.  The header and the per-term metadata are checked here (see
    :func:`_check_structure`); no posting is read until a query decodes
    a term.  A malformed store raises ``ValueError`` naming the file and
    the field.
    """
    path = Path(path)
    meta, _, arrays = _open_file(path)
    return _build_shard(meta, arrays, cache_bytes, path)


def open_store_buffer(
    buf: "bytes | bytearray | memoryview",
    cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
) -> "LazyIndexShard":
    """Attach to a serialized store living in a buffer (zero-copy views).

    The in-memory inverse of :func:`serialize_shard`, checked like
    :func:`open_store`; the arrays are ``np.frombuffer`` views, so
    ``buf`` must outlive the shard.
    """
    raw = memoryview(buf).cast("B")
    header_len = _header_len(bytes(raw[:_PREFIX]), raw.nbytes, "buffer")
    meta, _, arrays = _open(
        bytes(raw[_PREFIX : _PREFIX + header_len]), raw.nbytes, "buffer",
        lambda dtype, count, offset: np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
        ),
    )
    return _build_shard(meta, arrays, cache_bytes, None)


def store_info(path: str | Path) -> dict:
    """Header metadata plus file/compression accounting for one store.

    ``raw_column_bytes`` is the postings at :data:`RAW_POSTING_BYTES`
    (an ``int64`` id + a ``float64`` score) each — the fixed reference
    ``compression_ratio`` divides, not the resident size of a raw arena,
    whose ids are ``int32`` when they fit.
    """
    path = Path(path)
    meta, toc, _ = _open_file(path)
    file_bytes = path.stat().st_size
    raw_bytes = meta["n_postings"] * RAW_POSTING_BYTES
    return {
        "path": str(path),
        "meta": meta,
        "file_bytes": file_bytes,
        "raw_column_bytes": raw_bytes,
        "compression_ratio": raw_bytes / file_bytes if file_bytes else 0.0,
        "arrays": toc,
    }


def pack_shards(shards: list[IndexShard], directory: str | Path) -> list[Path]:
    """Write every shard as ``shard_<id>.store`` under ``directory``.

    ``open_stores`` searches every ``shard_*.store`` it finds, so a store
    left by an earlier pack whose id is not being rewritten would be
    mixed into this index: that raises, and nothing is written or deleted.
    So does a shard id given twice, whose second store would overwrite
    the first.
    """
    directory = Path(directory)
    ids = [shard.shard_id for shard in shards]
    for shard_id in ids:
        if ids.count(shard_id) > 1:
            raise ValueError(
                f"{directory}: shard id {shard_id} is given twice among the "
                f"{len(shards)} shards being packed"
            )
    directory.mkdir(parents=True, exist_ok=True)
    written = {f"shard_{shard_id}.store" for shard_id in ids}
    # Shorter names first: shard_8 is named before shard_10.
    for path in sorted(
        directory.glob("shard_*.store"), key=lambda p: (len(p.name), p.name)
    ):
        if path.name not in written:
            raise ValueError(
                f"{path}: stale shard store, not among the {len(shards)} "
                "being packed; pack into an empty directory"
            )
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
    paths: list[tuple[int, Path]] = []
    for path in directory.glob("shard_*.store"):
        shard_id = path.stem[len("shard_"):]
        if not shard_id.isdecimal():
            raise ValueError(
                f"{path}: not a shard store name (expected shard_<id>.store)"
            )
        paths.append((int(shard_id), path))
    if not paths:
        raise FileNotFoundError(f"no shard stores in {directory}")
    return [open_store(path, cache_bytes=cache_bytes) for _, path in sorted(paths)]


@dataclass(eq=False)
class LazyIndexShard(IndexShard):
    """An :class:`IndexShard` opened from a ``.store``.

    Its arena is a :class:`CompressedPostingsArena` over zero-copy views
    of the store bytes: opening decodes nothing, and the arena's
    ``cache_bytes`` is the only thing that bounds, or holds, decoded
    postings.  ``store_path`` is the backing file (None for in-memory
    buffers).
    """

    store_path: Path | None = None

    def __repr__(self) -> str:
        return (
            f"LazyIndexShard(shard_id={self.shard_id}, n_docs={self.n_docs}, "
            f"store={str(self.store_path) if self.store_path else '<buffer>'})"
        )
