"""Hostile ``.store`` input: structural corruption is caught at open.

``open_store``/``open_store_buffer``/``store_info`` verify once, before
any posting is decoded, everything decode later trusts: the header
length, the TOC (names, dtypes, counts, canonical offsets, extents), the
structural header fields and every per-term offsets/width/kind array.
The sweep below mutates each of those fields in an otherwise canonical
store and accepts exactly two outcomes: a one-line ``ValueError`` naming
the store and the field, or — where the mutation left the structure
consistent — answers bit-identical to the pristine store.  Any other
exception type, and any different top-k, fails.

Value columns (``first_docs``, ``upper_bounds``, codebooks, the packed
words) are data, not structure: the format carries no checksums, so a
flipped value there is a different index and is out of scope here.
"""

from __future__ import annotations

import copy
import json
import resource
import struct
from time import perf_counter

import numpy as np
import pytest
from conftest import hand_built_shard, shard_columns

from repro.experiments.bench_storage import build_scaled_shards
from repro.index import (
    open_store,
    open_store_buffer,
    serialize_shard,
    store_info,
)
from repro.index.store import _ARRAY_DTYPES
from repro.retrieval import (
    exhaustive_search,
    maxscore_search,
    maxscore_search_kernel,
)

SEED = 17
PREFIX = 16  # magic + header length
QUERIES = [
    ["t000", "t001"],  # above the MaxScore kernel's scalar-dispatch floor
    ["t000", "t002", "t009"],
    ["t003", "t004"],  # codebook + raw scores, scalar path
    ["t020", "single", "empty"],
    ["t011"],
]
#: One open + one answer sweep takes milliseconds; a case that needs this
#: long allocated or looped on a corrupt count.
CASE_SECONDS = 20.0


@pytest.fixture(autouse=True)
def allocation_cap():
    """An allocation bomb must fail its test, not get the runner killed:
    cap the address space 1 GiB above current use for the test's duration,
    so a corrupt count that reached ``np.arange`` raises ``MemoryError``."""
    try:
        with open("/proc/self/statm") as fh:
            in_use = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:  # no procfs: the wall-clock guard is all there is
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (in_use + (1 << 30), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def build_blob() -> bytes:
    shard = build_scaled_shards(1, 3000, 24, SEED)[0]
    columns = shard_columns(shard)
    columns["empty"] = ([], [])
    columns["single"] = ([41], [0.75])
    fields = ("shard_id", "n_docs", "avg_doc_length", "total_tokens",
              "n_docs_global")
    return serialize_shard(hand_built_shard(
        columns, **{name: getattr(shard, name) for name in fields}
    ))


def answers(shard) -> list[str]:
    out = []
    for terms in QUERIES:
        out.append(maxscore_search_kernel(shard, list(terms), 10).fingerprint())
        out.append(maxscore_search(shard, list(terms), 10).fingerprint())
        out.append(exhaustive_search(shard, list(terms), 10).fingerprint())
    return out


def split(blob: bytes) -> tuple[dict, dict[str, bytes]]:
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[PREFIX : PREFIX + header_len])
    sections = {}
    for entry in header["arrays"]:
        nbytes = entry["count"] * np.dtype(entry["dtype"]).itemsize
        sections[entry["name"]] = blob[entry["offset"] : entry["offset"] + nbytes]
    return header, sections


def align(offset: int) -> int:
    return (offset + 63) // 64 * 64


def assemble(header: dict, sections: dict[str, bytes], edit=None) -> bytes:
    """The canonical file for ``sections`` with ``edit`` applied to its header.

    Lays the sections out the way ``serialize_shard`` does (fixed point on
    the header length) and applies ``edit`` to the header last, so the
    result differs from a well-formed store in the edited fields only —
    even when the edit changes the header's length.
    """
    header = copy.deepcopy(header)
    header_len = 0
    for _ in range(8):
        offset = align(PREFIX + header_len)
        for entry in header["arrays"]:
            entry["offset"] = offset
            offset = align(offset + len(sections[entry["name"]]))
        edited = copy.deepcopy(header)
        if edit is not None:
            edit(edited)
        raw = json.dumps(edited, separators=(",", ":")).encode("utf-8")
        if len(raw) == header_len:
            break
        header_len = len(raw)
    buf = bytearray(offset)
    buf[:8] = b"RPROSTOR"
    struct.pack_into("<Q", buf, 8, header_len)
    buf[PREFIX : PREFIX + header_len] = raw
    for entry in header["arrays"]:
        data = sections[entry["name"]]
        buf[entry["offset"] : entry["offset"] + len(data)] = data
    return bytes(buf)


@pytest.fixture(scope="module")
def pristine() -> bytes:
    return build_blob()


@pytest.fixture(scope="module")
def parts(pristine):
    return split(pristine)


@pytest.fixture(scope="module")
def reference(pristine) -> list[str]:
    return answers(open_store_buffer(pristine))


def outcome(blob: bytes, reference: list[str], field: str) -> str:
    """``"rejected"`` or ``"identical"``; anything else fails the test."""
    started = perf_counter()
    try:
        shard = open_store_buffer(blob)
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message and message.startswith("buffer: "), message
        result = "rejected"
    else:
        assert answers(shard) == reference, f"{field}: different answers"
        result = "identical"
    elapsed = perf_counter() - started
    assert elapsed < CASE_SECONDS, f"{field}: took {elapsed:.1f} s"
    return result


class TestHelpers:
    def test_assemble_reproduces_the_writer(self, pristine, parts):
        assert assemble(*parts) == pristine

    def test_store_covers_every_decode_branch(self, pristine):
        arena = open_store_buffer(pristine).arena
        sizes = np.diff(arena.offsets)
        assert {0, 1} <= set(sizes.tolist()) and sizes.max() > 1024
        assert set(arena.score_kinds.tolist()) == {0, 1}


class TestStructuralSweep:
    def test_header_len(self, pristine, reference):
        (stored,) = struct.unpack_from("<Q", pristine, 8)
        for value in (0, stored - 1, stored, stored + 1, 2**62, 2**64 - 1):
            blob = bytearray(pristine)
            struct.pack_into("<Q", blob, 8, value)
            got = outcome(bytes(blob), reference, f"header_len={value}")
            assert got == ("identical" if value == stored else "rejected")

    def test_toc_offset_count_dtype(self, parts, reference):
        header, sections = parts
        for index, entry in enumerate(header["arrays"]):
            edits = [
                (field, value)
                for field in ("offset", "count")
                for value in (-1, 0, entry[field] + 1, 2**62, None, "7", 1.5, True)
            ]
            edits += [
                ("dtype", dtype)
                for dtype in ("u1", "i8", "u8", "f8", "i4", "O", "bogus", None)
            ]
            edits += [("name", "bogus"), ("name", None)]
            for field, value in edits:

                def edit(mutated, index=index, field=field, value=value):
                    mutated["arrays"][index][field] = value

                got = outcome(
                    assemble(header, sections, edit), reference,
                    f"arrays[{entry['name']}].{field}={value!r}",
                )
                if (entry["name"], field, value) == ("terms_blob", "count", entry["count"] + 1):
                    # The one count nothing else pins down: a byte more
                    # reads a pad NUL into the last term's *name* — data,
                    # like the rest of the blob — and moves no section.
                    continue
                assert got == ("identical" if value == entry[field] else "rejected")

    def test_toc_shape(self, parts, reference):
        header, sections = parts

        def drop_last(mutated):
            mutated["arrays"].pop()

        def duplicate_first(mutated):
            mutated["arrays"].insert(0, dict(mutated["arrays"][0]))

        def swap_two(mutated):
            arrays = mutated["arrays"]
            arrays[3], arrays[4] = arrays[4], arrays[3]

        def not_a_list(mutated):
            mutated["arrays"] = {"offsets": 1}

        for edit in (drop_last, duplicate_first, swap_two, not_a_list):
            blob = assemble(header, sections, edit)
            assert outcome(blob, reference, edit.__name__) == "rejected"

    def test_meta_fields(self, parts, reference):
        header, sections = parts
        structural = ("n_postings", "n_terms")
        for key in structural:
            stored = header["meta"][key]
            for value in (-1, 0, stored + 1, 2**62, 2**70, None, "64", 2.0, True):

                def edit(mutated, key=key, value=value):
                    mutated["meta"][key] = value

                got = outcome(
                    assemble(header, sections, edit), reference, f"meta.{key}={value!r}"
                )
                assert got == "rejected", f"meta.{key}={value!r} was accepted"
        for key in header["meta"]:

            def drop(mutated, key=key):
                del mutated["meta"][key]

            blob = assemble(header, sections, drop)
            assert outcome(blob, reference, f"meta.{key} missing") == "rejected"

    def test_per_term_arrays(self, pristine, parts, reference):
        """Every element class — first, interior, last — of every array
        decode slices or shifts by, set to -1, 0, max + 1 and 2**62."""
        header, _ = parts
        rng = np.random.default_rng(SEED)
        structural = [
            "offsets", "doc_widths", "score_widths", "score_kinds",
            "doc_word_offsets", "score_word_offsets",
            "score_raw_offsets", "score_book_offsets",
        ]
        toc = {entry["name"]: entry for entry in header["arrays"]}
        accepted_though_changed = []
        for name in structural:
            entry = toc[name]
            dtype = np.dtype(entry["dtype"])
            count = entry["count"]
            stored = np.frombuffer(pristine, dtype, count, entry["offset"])
            top = int(stored.max())
            if dtype == np.uint8:
                values = [0, 1, top + 1, 63, 64, 200, 255]
            else:
                values = [-1, 0, top + 1, 2**62, -(2**63), 10**9]
            interior = sorted(rng.choice(np.arange(1, count - 1), 3, replace=False))
            for position in [0, 1, *interior, count - 2, count - 1]:
                for value in values:
                    blob = bytearray(pristine)
                    view = np.frombuffer(blob, dtype, count, entry["offset"])
                    view[position] = value
                    field = f"{name}[{position}]={value}"
                    got = outcome(bytes(blob), reference, field)
                    if value == int(stored[position]):
                        assert got == "identical", field
                    elif got == "identical":
                        accepted_though_changed.append(field)
        # The only changed values that may pass are in-range widths of
        # columns that pack nothing — doc gaps of the empty and the
        # single-posting term, score indices of raw-scored terms: never
        # read, and they answered identically.
        assert all(
            field.split("[")[0].endswith("_widths") for field in accepted_though_changed
        ), accepted_though_changed

    def test_truncation_at_every_section_boundary(self, pristine, parts, reference):
        header, _ = parts
        (header_len,) = struct.unpack_from("<Q", pristine, 8)
        cuts = {0, 3, 8, 15, 16, 17, PREFIX + header_len - 1, PREFIX + header_len}
        last_end = 0
        for entry in header["arrays"]:
            end = entry["offset"] + entry["count"] * np.dtype(entry["dtype"]).itemsize
            last_end = max(last_end, end)
            for boundary in (entry["offset"], end):
                cuts.update({boundary - 1, boundary, boundary + 1})
        for cut in sorted(c for c in cuts if 0 <= c < len(pristine)):
            got = outcome(pristine[:cut], reference, f"truncated at {cut}")
            # Only the alignment pad after the last section is expendable.
            assert got == ("identical" if cut >= last_end else "rejected"), cut

    def test_terms_blob(self, parts, reference):
        header, sections = parts
        for blob_bytes in (
            sections["terms_blob"] + b"\nextra",  # one term too many
            sections["terms_blob"].replace(b"\n", b" ", 1),  # one too few
            b"\xff" * len(sections["terms_blob"]),  # not UTF-8
        ):
            mutated = dict(sections, terms_blob=blob_bytes)

            def edit(h, n=len(blob_bytes)):
                h["arrays"][0]["count"] = n

            blob = assemble(header, mutated, edit)
            assert outcome(blob, reference, "terms_blob") == "rejected"


class TestReproducedCases:
    """Failures reproduced on earlier commits, by name."""

    def write(self, tmp_path, blob: bytes):
        path = tmp_path / "shard_0.store"
        path.write_bytes(blob)
        return path

    def assert_rejected_everywhere(self, path, match: str) -> None:
        for opener in (open_store, store_info):
            started = perf_counter()
            with pytest.raises(ValueError, match=match) as caught:
                opener(path)
            assert perf_counter() - started < CASE_SECONDS
            message = str(caught.value)
            assert str(path) in message and "\n" not in message
        with pytest.raises(ValueError, match=match):
            open_store_buffer(path.read_bytes())

    def offsets_view(self, blob: bytearray, header: dict, name: str) -> np.ndarray:
        entry = next(e for e in header["arrays"] if e["name"] == name)
        return np.frombuffer(
            blob, np.dtype(entry["dtype"]), entry["count"], entry["offset"]
        )

    def test_offsets_allocation_bomb(self, pristine, parts, tmp_path):
        """``offsets[1] = 10**9`` used to reach ``np.arange(1e9)``: OOM kill."""
        blob = bytearray(pristine)
        self.offsets_view(blob, parts[0], "offsets")[1] = 10**9
        self.assert_rejected_everywhere(self.write(tmp_path, bytes(blob)), "offsets")

    def test_toc_offset_shifted_by_one_alignment_unit(self, parts, tmp_path):
        """A section read 64 bytes off used to return a wrong top-k silently."""
        header, sections = parts
        for name in ("doc_words", "score_words", "score_books", "upper_bounds"):
            index = list(_ARRAY_DTYPES).index(name)
            for shift in (64, -64):

                def edit(mutated, index=index, shift=shift):
                    mutated["arrays"][index]["offset"] += shift

                path = self.write(tmp_path, assemble(header, sections, edit))
                self.assert_rejected_everywhere(path, rf"arrays\[{name}\]\.offset")

    def test_doc_width_out_of_range_or_inconsistent(self, pristine, parts, tmp_path):
        """``doc_widths[0] = 63 / 200`` used to raise ``IndexError`` mid-query."""
        for width in (63, 200, 0):
            blob = bytearray(pristine)
            # Term 2 is the 1 500-posting head term (0 and 1 are the
            # empty and single-posting terms, which pack no gaps).
            self.offsets_view(blob, parts[0], "doc_widths")[2] = width
            path = self.write(tmp_path, bytes(blob))
            self.assert_rejected_everywhere(path, "doc_width|doc_word_offsets")

    def test_header_len_beyond_the_file(self, pristine, tmp_path):
        """``header_len = 1 << 60`` used to raise ``MemoryError`` from ``read``."""
        blob = bytearray(pristine)
        struct.pack_into("<Q", blob, 8, 1 << 60)
        self.assert_rejected_everywhere(self.write(tmp_path, bytes(blob)), "header_len")

    def test_three_byte_file(self, tmp_path):
        """``store_info`` on a 3-byte file used to raise ``struct.error``."""
        self.assert_rejected_everywhere(self.write(tmp_path, b"RPR"), "truncated")
        self.assert_rejected_everywhere(self.write(tmp_path, b""), "truncated")

    def test_garbage_header_json(self, pristine, tmp_path):
        """Used to surface as a ``JSONDecodeError`` without the file name."""
        (header_len,) = struct.unpack_from("<Q", pristine, 8)
        for garbage in (b"{" * header_len, b"\xff" * header_len, b"[1, 2]".ljust(header_len)):
            blob = bytearray(pristine)
            blob[PREFIX : PREFIX + header_len] = garbage
            self.assert_rejected_everywhere(self.write(tmp_path, bytes(blob)), "header")

    def test_cli_prints_one_line_and_exits_1(self, pristine, tmp_path, capsys):
        from repro.cli import main

        path = self.write(tmp_path, pristine[:5000])
        for argv in (
            ["search", str(tmp_path), "t000", "t001", "--raw-terms"],
            ["index", "info", str(tmp_path)],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(path) in captured.err and captured.err.count("\n") == 1

    def test_format_1_store_is_refused_with_what_to_do(
        self, parts, tmp_path, capsys
    ):
        """A format-1 store (tfs, block maxima, document lengths) has no
        reader: every entry point names the file, both versions and the
        command that rebuilds it, in one line."""
        from repro.cli import main

        def version_1(mutated):
            mutated["format_version"] = 1

        path = self.write(tmp_path, assemble(*parts, version_1))
        match = r"store format 1, this reader supports format 2; .*repro index build"
        self.assert_rejected_everywhere(path, match)
        assert main(["index", "info", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert str(path) in captured.err and "repro index build" in captured.err

    def test_pristine_store_opens_through_every_entry_point(
        self, pristine, reference, tmp_path
    ):
        path = self.write(tmp_path, pristine)
        assert answers(open_store(path)) == reference
        info = store_info(path)
        assert info["file_bytes"] == len(pristine)
        assert [entry["name"] for entry in info["arrays"]] == list(_ARRAY_DTYPES)
