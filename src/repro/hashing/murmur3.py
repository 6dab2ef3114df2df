"""Vectorized MurmurHash3 x64-128 over batches of equal-sized chunks.

The paper's hashing kernel assigns *successive GPU threads to successive
chunks* so that global-memory accesses coalesce (§2.4).  This module keeps
two implementations of that kernel behind one API:

* a **native** C loop (``_murmur3_native.c``, built on demand by
  :mod:`repro.hashing.native`) — the CPU analogue of the paper's fused
  kernel: one tight pass per chunk, no per-block dispatch; used whenever
  a C compiler is available;
* a **pure-NumPy** lockstep-SIMD kernel — every 16-byte block position is
  processed for **all** chunks at once, so the inner Python loop runs
  ``chunk_size / 16`` times regardless of how many chunks there are.  It
  is allocation-free on the hot path: the per-block ``k1``/``k2`` mixing
  (no cross-block dependency) is hoisted out of the sequential loop and
  computed for every block in one shot over a lane-transposed copy of the
  input — ``(2, nblocks, n)`` so each block's lane column is contiguous —
  and the ``h1``/``h2`` recurrence runs through in-place ``out=`` ufunc
  calls with a single reused scratch vector.

Both paths are tested byte-for-byte against the scalar oracle
:func:`repro.hashing.scalar.murmur3_x64_128`.

Digests are returned as ``(n, 2)`` ``uint64`` arrays, ``[:, 0]`` being the
``h1`` half and ``[:, 1]`` the ``h2`` half — identical to the tuple
returned by the oracle.
"""

from __future__ import annotations

import ctypes
import sys
from typing import Optional

import numpy as np

from ..errors import ChunkingError
from ..telemetry import metrics as _metrics
from ..utils.validation import non_negative_int, positive_int
from . import native as _native
from .scalar import murmur3_x64_128

_HASHED_BYTES = _metrics.counter(
    "hash.bytes", "Bytes run through the Murmur3 batch kernels"
)
_HASHED_CHUNKS = _metrics.counter(
    "hash.chunks", "Chunks/rows digested by the Murmur3 batch kernels"
)

if sys.byteorder != "little":  # pragma: no cover - dev machines are LE
    raise ImportError(
        "repro.hashing.murmur3 requires a little-endian host (the batch "
        "kernel reinterprets uint8 chunk bytes as uint64 lanes in place)"
    )

_C1 = np.uint64(0x87C37B91114253D5)
_C2 = np.uint64(0x4CF5BA1D7CB769B9)
_FMIX1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_M5 = np.uint64(5)
_N1 = np.uint64(0x52DCE729)
_N2 = np.uint64(0x38495AB5)

_R27 = np.uint64(27)
_R31 = np.uint64(31)
_R33 = np.uint64(33)
_S33 = np.uint64(33)

DIGEST_BYTES = 16
DIGEST_DTYPE = np.uint64

_U8P = ctypes.POINTER(ctypes.c_uint8)
_U64P = ctypes.POINTER(ctypes.c_uint64)


def _rotl64_inplace(x: np.ndarray, r: np.uint64, tmp: np.ndarray) -> None:
    """``x = rotl64(x, r)`` without allocating; *tmp* matches x's shape."""
    np.right_shift(x, np.uint64(64) - r, out=tmp)
    np.left_shift(x, r, out=x)
    np.bitwise_or(x, tmp, out=x)


def _fmix64_inplace(k: np.ndarray, tmp: np.ndarray) -> None:
    """Murmur3 finalization mix, in place."""
    np.right_shift(k, _S33, out=tmp)
    np.bitwise_xor(k, tmp, out=k)
    np.multiply(k, _FMIX1, out=k)
    np.right_shift(k, _S33, out=tmp)
    np.bitwise_xor(k, tmp, out=k)
    np.multiply(k, _FMIX2, out=k)
    np.right_shift(k, _S33, out=tmp)
    np.bitwise_xor(k, tmp, out=k)


def _finalize(
    h1: np.ndarray, h2: np.ndarray, length: int, tmp: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Shared length-mix + fmix tail; writes the digests into *out*."""
    ln = np.uint64(length)
    np.bitwise_xor(h1, ln, out=h1)
    np.bitwise_xor(h2, ln, out=h2)
    np.add(h1, h2, out=h1)
    np.add(h2, h1, out=h2)
    _fmix64_inplace(h1, tmp)
    _fmix64_inplace(h2, tmp)
    np.add(h1, h2, out=h1)
    np.add(h2, h1, out=h2)
    out[:, 0] = h1
    out[:, 1] = h2
    return out


def _check_out(out: Optional[np.ndarray], n: int) -> np.ndarray:
    if out is None:
        return np.empty((n, 2), dtype=np.uint64)
    if out.shape != (n, 2) or out.dtype != np.uint64:
        raise ChunkingError(
            f"out must be an ({n}, 2) uint64 array, got {out.shape} {out.dtype}"
        )
    return out


def _native_dst(out: np.ndarray) -> np.ndarray:
    """A C-contiguous uint64 buffer the native kernel can write into."""
    if out.flags.c_contiguous:
        return out
    return np.empty(out.shape, dtype=np.uint64)


def hash_batch(
    rows: np.ndarray, seed: int = 0, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hash every row of a ``(n, length)`` uint8 array.

    All rows share one length, which is the case for checkpoint chunks
    (only the final chunk of a checkpoint may be shorter; the chunking
    layer pads or hashes it separately).

    Returns an ``(n, 2)`` uint64 digest array; pass *out* to write the
    digests into a preallocated slice instead of a fresh array.
    """
    if rows.ndim != 2:
        raise ChunkingError(f"hash_batch expects a 2-D array, got ndim={rows.ndim}")
    if rows.dtype != np.uint8:
        raise ChunkingError(f"hash_batch expects uint8 rows, got {rows.dtype}")
    non_negative_int(seed, "seed")

    n, length = rows.shape
    _HASHED_BYTES.inc(n * length)
    _HASHED_CHUNKS.inc(n)
    out = _check_out(out, n)
    lib = _native.get_lib()
    if lib is not None and n and length:
        body = np.ascontiguousarray(rows)
        dst = _native_dst(out)
        lib.hb_hash_rows(
            body.ctypes.data_as(_U8P),
            n,
            length,
            np.uint64(seed),
            dst.ctypes.data_as(_U64P),
        )
        if dst is not out:
            out[:] = dst
        return out
    return _hash_batch_numpy(rows, seed, out)


def _hash_batch_numpy(rows: np.ndarray, seed: int, out: np.ndarray) -> np.ndarray:
    """Lockstep-SIMD fallback kernel (also the reference for tests)."""
    n, length = rows.shape
    h1 = np.full(n, np.uint64(seed), dtype=np.uint64)
    h2 = h1.copy()
    tmp = np.empty(n, dtype=np.uint64)
    nblocks = length // 16

    if nblocks:
        body = rows[:, : nblocks * 16]
        if not body.flags.c_contiguous:
            body = np.ascontiguousarray(body)
        lanes = body.view(np.uint64).reshape(n, nblocks, 2)
        # Lane transposition: one strided copy up front so that every
        # block's lane column is contiguous, instead of a per-block
        # strided ``.copy()`` inside the loop.  (Unconditional copy: the
        # input may be a read-only buffer view and the lanes are mixed
        # in place.)
        k = lanes.transpose(2, 1, 0).copy()
        k1 = k[0]  # (nblocks, n), row b = lane 0 of block b
        k2 = k[1]
        ktmp = np.empty_like(k1)
        # The k-mixing has no cross-block dependency: do all blocks at once.
        np.multiply(k1, _C1, out=k1)
        _rotl64_inplace(k1, _R31, ktmp)
        np.multiply(k1, _C2, out=k1)
        np.multiply(k2, _C2, out=k2)
        _rotl64_inplace(k2, _R33, ktmp)
        np.multiply(k2, _C1, out=k2)
        # Sequential h1/h2 recurrence over blocks, allocation-free.
        for b in range(nblocks):
            np.bitwise_xor(h1, k1[b], out=h1)
            _rotl64_inplace(h1, _R27, tmp)
            np.add(h1, h2, out=h1)
            np.multiply(h1, _M5, out=h1)
            np.add(h1, _N1, out=h1)

            np.bitwise_xor(h2, k2[b], out=h2)
            _rotl64_inplace(h2, _R31, tmp)
            np.add(h2, h1, out=h2)
            np.multiply(h2, _M5, out=h2)
            np.add(h2, _N2, out=h2)

    tlen = length - nblocks * 16
    if tlen:
        tail = rows[:, nblocks * 16 :]
        if tlen > 8:
            k2t = np.zeros(n, dtype=np.uint64)
            for i in range(tlen - 1, 7, -1):
                np.left_shift(k2t, np.uint64(8), out=k2t)
                np.bitwise_or(k2t, tail[:, i].astype(np.uint64), out=k2t)
            np.multiply(k2t, _C2, out=k2t)
            _rotl64_inplace(k2t, _R33, tmp)
            np.multiply(k2t, _C1, out=k2t)
            np.bitwise_xor(h2, k2t, out=h2)
        k1t = np.zeros(n, dtype=np.uint64)
        for i in range(min(tlen, 8) - 1, -1, -1):
            np.left_shift(k1t, np.uint64(8), out=k1t)
            np.bitwise_or(k1t, tail[:, i].astype(np.uint64), out=k1t)
        np.multiply(k1t, _C1, out=k1t)
        _rotl64_inplace(k1t, _R31, tmp)
        np.multiply(k1t, _C2, out=k1t)
        np.bitwise_xor(h1, k1t, out=h1)

    return _finalize(h1, h2, length, tmp, out)


def hash_chunks(data: np.ndarray, chunk_size: int, seed: int = 0) -> np.ndarray:
    """Split a flat uint8 buffer into *chunk_size* chunks and hash them all.

    The final chunk may be shorter than *chunk_size*; it is hashed over its
    true length (Murmur3 folds the length into the digest, so a short tail
    chunk never aliases a full chunk with the same prefix).

    Returns an ``(num_chunks, 2)`` uint64 digest array.  The full-size body
    and the tail chunk write into one preallocated output — no concatenate.
    """
    if data.ndim != 1 or data.dtype != np.uint8:
        raise ChunkingError(
            f"hash_chunks expects a 1-D uint8 buffer, got shape {data.shape}, "
            f"dtype {data.dtype}"
        )
    positive_int(chunk_size, "chunk_size")
    total = data.shape[0]
    if total == 0:
        return np.empty((0, 2), dtype=np.uint64)

    full = total // chunk_size
    rem = total - full * chunk_size
    num_chunks = full + (1 if rem else 0)
    _HASHED_BYTES.inc(total)
    _HASHED_CHUNKS.inc(num_chunks)
    out = np.empty((num_chunks, 2), dtype=np.uint64)

    lib = _native.get_lib()
    if lib is not None:
        body = np.ascontiguousarray(data)
        lib.hb_hash_chunks(
            body.ctypes.data_as(_U8P),
            total,
            chunk_size,
            np.uint64(seed),
            out.ctypes.data_as(_U64P),
        )
        return out

    if full:
        rows = data[: full * chunk_size].reshape(full, chunk_size)
        _hash_batch_numpy(rows, seed, out[:full])
    if rem:
        _hash_batch_numpy(
            data[full * chunk_size :].reshape(1, rem), seed, out[full:]
        )
    return out


def count_digest_pairs(n: int) -> None:
    """Advance the hashing counters for *n* interior-node hashes: what
    :func:`hash_digest_pairs` charges, also for the native Tree passes,
    which hash ``left || right`` where it lies in the flat tree."""
    _HASHED_BYTES.inc(32 * n)
    _HASHED_CHUNKS.inc(n)


def hash_digest_pairs(
    left: np.ndarray, right: np.ndarray, seed: int = 0
) -> np.ndarray:
    """Hash the 32-byte concatenation ``left_digest || right_digest`` per row.

    This is the Merkle interior-node hash: the parent digest is
    ``Murmur3(child_left.bytes + child_right.bytes)``.  Because digests are
    stored little-endian as ``(n, 2)`` uint64, the concatenated 32-byte
    input is exactly the four uint64 lanes ``[L0, L1, R0, R1]`` — no byte
    materialisation needed, mirroring the fused-kernel design of §2.1.

    Returns an ``(n, 2)`` uint64 digest array.
    """
    if left.shape != right.shape or left.ndim != 2 or left.shape[1] != 2:
        raise ChunkingError(
            f"hash_digest_pairs expects matching (n, 2) arrays, got "
            f"{left.shape} and {right.shape}"
        )
    non_negative_int(seed, "seed")
    n = left.shape[0]
    count_digest_pairs(n)

    lib = _native.get_lib()
    if lib is not None and n:
        lc = np.ascontiguousarray(left, dtype=np.uint64)
        rc = np.ascontiguousarray(right, dtype=np.uint64)
        out = np.empty((n, 2), dtype=np.uint64)
        lib.hb_hash_pairs(
            lc.ctypes.data_as(_U64P),
            rc.ctypes.data_as(_U64P),
            n,
            np.uint64(seed),
            out.ctypes.data_as(_U64P),
        )
        return out
    return _hash_digest_pairs_numpy(left, right, seed)


def _hash_digest_pairs_numpy(
    left: np.ndarray, right: np.ndarray, seed: int = 0
) -> np.ndarray:
    """NumPy fallback for the interior-node hash (reference for tests)."""
    n = left.shape[0]
    h1 = np.full(n, np.uint64(seed), dtype=np.uint64)
    h2 = h1.copy()
    k = np.empty(n, dtype=np.uint64)
    tmp = np.empty(n, dtype=np.uint64)

    # Two 16-byte blocks, no tail: unrolled body loop.  The strided lane
    # columns feed straight into out= ufuncs — no per-block copies.
    for lane1, lane2 in ((left[:, 0], left[:, 1]), (right[:, 0], right[:, 1])):
        np.multiply(lane1, _C1, out=k, casting="unsafe")
        _rotl64_inplace(k, _R31, tmp)
        np.multiply(k, _C2, out=k)
        np.bitwise_xor(h1, k, out=h1)

        _rotl64_inplace(h1, _R27, tmp)
        np.add(h1, h2, out=h1)
        np.multiply(h1, _M5, out=h1)
        np.add(h1, _N1, out=h1)

        np.multiply(lane2, _C2, out=k, casting="unsafe")
        _rotl64_inplace(k, _R33, tmp)
        np.multiply(k, _C1, out=k)
        np.bitwise_xor(h2, k, out=h2)

        _rotl64_inplace(h2, _R31, tmp)
        np.add(h2, h1, out=h2)
        np.multiply(h2, _M5, out=h2)
        np.add(h2, _N2, out=h2)

    return _finalize(h1, h2, 32, tmp, np.empty((n, 2), dtype=np.uint64))


def hash_bytes(data: bytes, seed: int = 0) -> np.ndarray:
    """Hash a single ``bytes`` payload, returning a ``(2,)`` uint64 digest."""
    h1, h2 = murmur3_x64_128(data, seed)
    return np.array([h1, h2], dtype=np.uint64)
