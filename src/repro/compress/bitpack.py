"""Vectorized bit-packing primitives shared by cascaded and bitcomp.

Packs arrays of ``uint32`` values into ``width``-bit fields, LSB-first,
using NumPy's bit-level pack so no Python loop touches individual
values; unpacking reads each field out of one little-endian 8-byte
window.  ``width == 0`` encodes an all-zero array in zero payload bytes.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError


def required_width(values: np.ndarray) -> int:
    """Smallest bit width able to represent every value (0..32)."""
    if values.size == 0 or int(values.max()) == 0:
        return 0
    return int(int(values.max()).bit_length())


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack uint32 *values* into *width*-bit little-endian fields."""
    if values.dtype != np.uint32 or values.ndim != 1:
        raise CompressionError("pack_bits expects a 1-D uint32 array")
    if not 0 <= width <= 32:
        raise CompressionError(f"bit width must be 0..32, got {width}")
    if width == 0:
        if values.size and int(values.max()) != 0:
            raise CompressionError("width 0 requires all-zero values")
        return b""
    if values.size and int(values.max()) >= (1 << width):
        raise CompressionError(f"value too large for {width}-bit packing")
    shifts = np.arange(width, dtype=np.uint32)
    bits = ((values[:, None] >> shifts) & np.uint32(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_bits(blob: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover *count* uint32 values.

    Field *i* starts at bit ``i * width``: it is the little-endian 8-byte
    window at byte ``(i * width) >> 3``, shifted right by the bit offset
    ``(i * width) & 7`` and masked to *width* bits — a field plus its
    offset spans at most 39 bits, so one window always holds it.  The
    windows read a zero-padded copy of the blob, so the last field's
    window never runs past the end.
    """
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
    nbytes = (need_bits + 7) // 8
    padded = np.zeros(nbytes + 8, dtype=np.uint8)
    padded[:nbytes] = raw[:nbytes]
    # One unaligned little-endian u8 window at every byte offset.
    windows = np.ndarray((nbytes + 1,), dtype="<u8", buffer=padded, strides=(1,))
    start = np.arange(count, dtype=np.int64) * width
    values = np.take(windows, start >> 3)
    values >>= (start & 7).astype(np.uint64)
    values &= np.uint64((1 << width) - 1)
    return values.astype(np.uint32)


def zigzag_encode(deltas: np.ndarray) -> np.ndarray:
    """Map signed int32 deltas to unsigned: 0,-1,1,-2,... → 0,1,2,3,..."""
    if deltas.dtype != np.int32:
        raise CompressionError("zigzag_encode expects int32")
    u = deltas.view(np.uint32)
    sign = (deltas >> np.int32(31)).view(np.uint32)  # arithmetic shift: 0 or ~0
    return (u << np.uint32(1)) ^ sign


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    if values.dtype != np.uint32:
        raise CompressionError("zigzag_decode expects uint32")
    out = (values >> np.uint32(1)) ^ (~(values & np.uint32(1)) + np.uint32(1))
    return out.view(np.int32)
