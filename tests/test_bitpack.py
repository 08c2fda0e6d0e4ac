"""``pack_bits``/``unpack_bits`` against a big-int oracle.

The vectorized packer (run-wise ``bitwise_or.reduceat`` + one spill
scatter) and the in-place unpacker (two-shift high-word fold) are checked
bit for bit against a pure-Python reference that builds the whole stream
as one arbitrary-precision integer: field ``i`` occupies bits
``[i * width, (i + 1) * width)``, little-endian across uint64 words, with
one trailing zero pad word.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import pack_bits, unpack_bits
from repro.index.arena import packed_words

SIZES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 1000]
#: Widths dividing 64: no field ever straddles a word, so every lane of
#: the unpacker's high-word fold must contribute exactly nothing.
ALIGNED_WIDTHS = [1, 2, 4, 8, 16, 32]


def oracle_pack(values: list[int], width: int) -> list[int]:
    stream = 0
    for i, value in enumerate(values):
        stream |= value << (i * width)
    n_words = (len(values) * width + 63) // 64 + 1
    return [(stream >> (64 * w)) & (2**64 - 1) for w in range(n_words)]


def oracle_unpack(words: list[int], n: int, width: int) -> list[int]:
    stream = 0
    for w, word in enumerate(words):
        stream |= word << (64 * w)
    return [(stream >> (i * width)) & ((1 << width) - 1) for i in range(n)]


def edge_values(n: int, width: int, seed: int) -> list[int]:
    """Seeded values of ``width`` bits, forced through 0 and all-ones."""
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    values = [int(v) & top for v in rng.integers(0, 2**63, size=n, dtype=np.uint64)]
    for i in range(0, n, 3):
        values[i] = top if i % 2 else 0
    if n:
        values[-1] = top
    return values


class TestAgainstOracle:
    @pytest.mark.parametrize("width", range(1, 64))
    def test_every_width_every_boundary_size(self, width):
        for n in SIZES:
            values = edge_values(n, width, seed=width * 1009 + n)
            words = pack_bits(np.asarray(values, dtype=np.int64), width)
            assert words.dtype == np.uint64
            assert words.size == packed_words(n, width)
            assert words.tolist() == oracle_pack(values, width)
            got = unpack_bits(words, n, width)
            assert got.tolist() == oracle_unpack(words.tolist(), n, width) == values

    @given(
        width=st.integers(min_value=1, max_value=63),
        data=st.data(),
    )
    def test_roundtrip_property(self, width, data):
        values = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=200)
        )
        words = pack_bits(np.asarray(values, dtype=np.int64), width)
        assert words.tolist() == oracle_pack(values, width)
        assert unpack_bits(words, len(values), width).tolist() == values

    @pytest.mark.parametrize("width", ALIGNED_WIDTHS)
    def test_word_aligned_widths_ignore_the_high_word(self, width):
        """All lanes have bit offset + width <= 64: the next word, even
        when it is all ones, must not leak into any value."""
        n = 3 * 64 // width
        values = edge_values(n, width, seed=width)
        words = pack_bits(np.asarray(values, dtype=np.int64), width)
        assert words[-1] == 0  # the pad word
        words[-1] = np.uint64(2**64 - 1)
        assert unpack_bits(words, n, width).tolist() == values


class TestUnpackContract:
    def test_result_is_fresh_writable_int64(self):
        values = np.arange(100, dtype=np.int64)
        words = pack_bits(values, 7)
        got = unpack_bits(words, 100, 7)
        assert got.dtype == np.int64
        assert got.flags.writeable and got.flags.c_contiguous
        assert not np.shares_memory(got, words)
        got += 1  # decode adjusts gaps in place
        np.testing.assert_array_equal(unpack_bits(words, 100, 7), values)
        empty = unpack_bits(words, 0, 7)
        assert empty.dtype == np.int64 and empty.size == 0

    def test_read_only_words_from_a_buffer(self):
        values = np.asarray(edge_values(500, 13, seed=5), dtype=np.int64)
        words = np.frombuffer(pack_bits(values, 13).tobytes(), dtype=np.uint64)
        assert not words.flags.writeable
        got = unpack_bits(words, 500, 13)
        np.testing.assert_array_equal(got, values)
        assert got.flags.writeable

    def test_read_only_words_from_a_memmap(self, tmp_path):
        values = np.asarray(edge_values(500, 21, seed=6), dtype=np.int64)
        path = tmp_path / "words.bin"
        pack_bits(values, 21).tofile(path)
        mapped = np.memmap(path, dtype=np.uint64, mode="r")
        for words in (mapped, np.asarray(mapped)):
            got = unpack_bits(words, 500, 21)
            np.testing.assert_array_equal(got, values)
            assert got.dtype == np.int64 and got.flags.writeable

    def test_unpack_reads_a_prefix(self):
        """Decoding fewer values than were packed reads only their words."""
        values = np.asarray(edge_values(300, 9, seed=7), dtype=np.int64)
        words = pack_bits(values, 9)
        np.testing.assert_array_equal(unpack_bits(words, 120, 9), values[:120])


class TestPackValidation:
    def test_width_range(self):
        for width in (0, 64, -1):
            with pytest.raises(ValueError, match="width must be"):
                pack_bits(np.zeros(1, dtype=np.int64), width)

    def test_values_must_fit(self):
        with pytest.raises(ValueError, match="do not fit"):
            pack_bits(np.array([0, 32], dtype=np.int64), 5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            pack_bits(np.array([3, -1], dtype=np.int64), 5)

    def test_input_is_not_modified(self):
        values = np.asarray(edge_values(200, 11, seed=8), dtype=np.int64)
        before = values.copy()
        pack_bits(values, 11)
        np.testing.assert_array_equal(values, before)
        narrow = values.astype(np.int32)
        np.testing.assert_array_equal(pack_bits(narrow, 11), pack_bits(values, 11))
