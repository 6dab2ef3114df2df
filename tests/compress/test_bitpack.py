"""Tests for the bit-packing / zigzag / RLE primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitpack import (
    pack_bits,
    required_width,
    unpack_bits,
    zigzag_decode,
    zigzag_encode,
)
from repro.compress.cascaded import _rle_decode, _rle_encode
from repro.errors import CompressionError


class TestRequiredWidth:
    @pytest.mark.parametrize(
        "maxval,width", [(0, 0), (1, 1), (2, 2), (3, 2), (7, 3), (255, 8), (2**32 - 1, 32)]
    )
    def test_widths(self, maxval, width):
        vals = np.array([0, maxval], dtype=np.uint32)
        assert required_width(vals) == width

    def test_empty(self):
        assert required_width(np.empty(0, dtype=np.uint32)) == 0


class TestPackUnpack:
    @pytest.mark.parametrize("width", [1, 3, 7, 8, 13, 16, 31, 32])
    def test_roundtrip(self, rng, width):
        hi = (1 << width) - 1
        vals = rng.integers(0, hi + 1, 257, dtype=np.uint32)
        packed = pack_bits(vals, width)
        assert len(packed) == (257 * width + 7) // 8
        assert np.array_equal(unpack_bits(packed, 257, width), vals)

    def test_zero_width_all_zero(self):
        vals = np.zeros(10, dtype=np.uint32)
        assert pack_bits(vals, 0) == b""
        assert np.array_equal(unpack_bits(b"", 10, 0), vals)

    def test_zero_width_nonzero_rejected(self):
        with pytest.raises(CompressionError):
            pack_bits(np.array([1], dtype=np.uint32), 0)

    def test_value_too_big_rejected(self):
        with pytest.raises(CompressionError):
            pack_bits(np.array([8], dtype=np.uint32), 3)

    def test_blob_too_short_rejected(self):
        with pytest.raises(CompressionError):
            unpack_bits(b"\x00", 10, 8)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(CompressionError):
            pack_bits(np.zeros(4, dtype=np.int64), 4)


def _unpack_bits_bitmatrix(blob: bytes, count: int, width: int) -> np.ndarray:
    """The bit-matrix decode :func:`unpack_bits` replaced: every bit
    unpacked into a ``count x width`` matrix, then shift-summed."""
    if not 0 <= width <= 32:
        raise CompressionError(f"bit width must be 0..32, got {width}")
    if width == 0:
        return np.zeros(count, dtype=np.uint32)
    need_bits = count * width
    raw = np.frombuffer(blob, dtype=np.uint8)
    if raw.size * 8 < need_bits:
        raise CompressionError(
            f"bit-packed blob too short: {raw.size * 8} bits, need {need_bits}"
        )
    bits = np.unpackbits(raw, bitorder="little")[:need_bits].reshape(count, width)
    shifts = np.arange(width, dtype=np.uint64)
    values = (bits.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
    return values.astype(np.uint32)


class TestWordWindowDecode:
    """:func:`unpack_bits` reads 8-byte windows; the bit-matrix decode is
    the reference it must agree with bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(0, 32),
        count=st.integers(0, 5000),
        fill=st.sampled_from(["random", "zeros", "ones"]),
        seed=st.integers(0, 2**32 - 1),
        slack=st.integers(0, 9),
    )
    def test_agrees_with_the_bit_matrix(self, width, count, fill, seed, slack):
        top = (1 << width) - 1
        if fill == "random":
            rng = np.random.default_rng(seed)
            vals = rng.integers(0, top + 1, count, dtype=np.uint64).astype(np.uint32)
        else:
            vals = np.full(count, top if fill == "ones" else 0, dtype=np.uint32)
        # Trailing bytes past the last field must not leak into it.
        blob = pack_bits(vals, width) + b"\xff" * slack
        got = unpack_bits(blob, count, width)
        assert got.dtype == np.uint32
        assert np.array_equal(got, _unpack_bits_bitmatrix(blob, count, width))
        assert np.array_equal(got, vals)

    @pytest.mark.parametrize("width,count", [(1, 9), (8, 10), (13, 5), (32, 2)])
    def test_short_blob_message_unchanged(self, width, count):
        blob = b"\x00" * ((count * width + 7) // 8 - 1)
        messages = []
        for decode in (unpack_bits, _unpack_bits_bitmatrix):
            with pytest.raises(CompressionError) as exc:
                decode(blob, count, width)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0] == (
            f"bit-packed blob too short: {len(blob) * 8} bits, "
            f"need {count * width}"
        )

    def test_bad_width_message_unchanged(self):
        with pytest.raises(CompressionError, match="bit width must be 0..32, got 33"):
            unpack_bits(b"", 1, 33)


class TestZigzag:
    def test_known_mapping(self):
        deltas = np.array([0, -1, 1, -2, 2], dtype=np.int32)
        assert zigzag_encode(deltas).tolist() == [0, 1, 2, 3, 4]

    def test_roundtrip_extremes(self):
        deltas = np.array(
            [0, 1, -1, 2**31 - 1, -(2**31)], dtype=np.int32
        )
        assert np.array_equal(zigzag_decode(zigzag_encode(deltas)), deltas)

    def test_roundtrip_random(self, rng):
        deltas = rng.integers(-(2**31), 2**31, 10_000).astype(np.int32)
        assert np.array_equal(zigzag_decode(zigzag_encode(deltas)), deltas)

    def test_small_codes_for_small_magnitudes(self):
        deltas = np.array([-3, 3], dtype=np.int32)
        assert zigzag_encode(deltas).max() <= 6


class TestRle:
    def test_roundtrip(self, rng):
        vals = np.repeat(
            rng.integers(0, 5, 50, dtype=np.uint32), rng.integers(1, 9, 50)
        ).astype(np.uint32)
        rv, rl = _rle_encode(vals)
        assert np.array_equal(_rle_decode(rv, rl), vals)

    def test_uniform(self):
        vals = np.full(1000, 7, dtype=np.uint32)
        rv, rl = _rle_encode(vals)
        assert rv.tolist() == [7]
        assert rl.tolist() == [1000]

    def test_alternating(self):
        vals = np.array([1, 2, 1, 2], dtype=np.uint32)
        rv, rl = _rle_encode(vals)
        assert rv.tolist() == [1, 2, 1, 2]
        assert rl.tolist() == [1, 1, 1, 1]

    def test_empty(self):
        rv, rl = _rle_encode(np.empty(0, dtype=np.uint32))
        assert rv.shape == (0,)
        assert _rle_decode(rv, rl).shape == (0,)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(CompressionError):
            _rle_decode(
                np.zeros(2, dtype=np.uint32), np.zeros(3, dtype=np.uint32)
            )
