"""RPIX v4, the provenance index file: append-only keyframe / delta
row-groups.

The one on-disk layout: a fixed prologue (geometry header + header
digest, written once) followed by *row-group* records, one per appended
checkpoint, each carrying its own digest.  A group is a **keyframe** —
checkpoint *k*'s absolute row as three cascaded-compressed planes
(``src_ckpt``, and ``src_off`` split into low/high u32 words: the rows
are runny, so 12 B/chunk raw shrinks toward 1–2 B/chunk) — or a
**delta**: exactly the chunks where row *k* differs from row *k−1*, raw,
16 B each.  Appending a checkpoint appends one group record; nothing else
in the file is touched.  The writer
(:class:`~repro.record.RecordWriter`) picks the kind by a size rule, so a
row is always one keyframe plus less than one keyframe's bytes of deltas
away.  Versions 1–3 are rejected by name.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional, Tuple

import numpy as np

from ..core import provenance as _prov
from ..core.chunking import ChunkSpec
from ..errors import CompressionError, IntegrityError

_TABLE_MAGIC = b"RPIX"
VERSION = 4
_TABLE_HEADER = struct.Struct("<4sHHIQI")
# magic, version, reserved, num_chunks, data_len, chunk_size
_TABLE_DIGEST_BYTES = 32
_PLANE_LEN = struct.Struct("<Q")
#: Row-group record header: body length, checkpoint row, kind, SHA-256
#: over ``pack("<II", ckpt_id, kind) + body``.
_GROUP_HEADER = struct.Struct("<QII32s")
KEYFRAME = 1
DELTA = 2
#: One delta entry: u32 chunk id + i32 ``src_ckpt`` + i64 ``src_off``.
_DELTA_ENTRY_BYTES = 16
#: Fixed prologue: table header + SHA-256 of the header bytes.
PROLOGUE_BYTES = _TABLE_HEADER.size + _TABLE_DIGEST_BYTES


def _pack_planes(src_ckpt: np.ndarray, src_off: np.ndarray) -> bytes:
    """Three length-prefixed cascaded-compressed planes over one row.

    ``src_off`` is split into low/high u32 words (rather than
    interleaving an i8 stream) so the delta pass sees the arithmetic
    progression directly and the high plane is almost entirely zero runs.
    """
    from ..compress.cascaded import CascadedCodec  # local: core ↔ compress

    codec = CascadedCodec()
    ckpt_plane = np.ascontiguousarray(src_ckpt, dtype="<i4").tobytes()
    off = np.ascontiguousarray(src_off, dtype=np.int64)
    lo_plane = (off & np.int64(0xFFFFFFFF)).astype("<u4").tobytes()
    hi_plane = (off >> np.int64(32)).astype("<u4").tobytes()
    parts = [codec.compress(p) for p in (ckpt_plane, lo_plane, hi_plane)]
    return b"".join(_PLANE_LEN.pack(len(p)) + p for p in parts)


def _unpack_planes(buf, n_chunks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Decode the three planes back into one row's ``(src_ckpt, src_off)``.

    Consumes all of *buf* — trailing bytes are damage.
    """
    from ..compress.cascaded import CascadedCodec  # local: core ↔ compress

    codec = CascadedCodec()
    off = 0
    planes = []
    for name in ("src_ckpt", "src_off_lo", "src_off_hi"):
        if off + _PLANE_LEN.size > len(buf):
            raise IntegrityError(
                f"provenance index truncated before {name} plane"
            )
        (length,) = _PLANE_LEN.unpack_from(buf, off)
        off += _PLANE_LEN.size
        if off + length > len(buf):
            raise IntegrityError(
                f"provenance index {name} plane overruns the file"
            )
        try:
            raw = codec.decompress(buf[off : off + length])
        except CompressionError as exc:
            raise IntegrityError(
                f"provenance index {name} plane is damaged: {exc}"
            ) from exc
        if len(raw) != n_chunks * 4:
            raise IntegrityError(
                f"provenance index {name} plane holds {len(raw)} bytes, "
                f"expected {n_chunks * 4}"
            )
        planes.append(raw)
        off += length
    if off != len(buf):
        raise IntegrityError(
            f"provenance index has {len(buf) - off} trailing bytes"
        )
    src_ckpt = np.frombuffer(planes[0], dtype="<i4").copy()
    lo = np.frombuffer(planes[1], dtype="<u4").astype(np.int64)
    hi = np.frombuffer(planes[2], dtype="<u4").astype(np.int64)
    return src_ckpt, (hi << np.int64(32)) | lo


def encode_prologue(num_chunks: int, data_len: int, chunk_size: int) -> bytes:
    """The fixed-size file prologue: geometry header + its SHA-256."""
    header = _TABLE_HEADER.pack(
        _TABLE_MAGIC, VERSION, 0, num_chunks, data_len, chunk_size
    )
    return header + hashlib.sha256(header).digest()


def decode_prologue(blob: bytes) -> dict:
    """Check a file's prologue (magic, version, header digest) and return
    its geometry: ``num_chunks``, ``data_len``, ``chunk_size``."""
    if len(blob) < PROLOGUE_BYTES:
        raise IntegrityError(f"provenance index too short ({len(blob)} bytes)")
    magic, version, _reserved, n_chunks, data_len, chunk_size = (
        _TABLE_HEADER.unpack_from(blob, 0)
    )
    if magic != _TABLE_MAGIC:
        raise IntegrityError(f"bad provenance index magic {magic!r}")
    if version != VERSION:
        raise IntegrityError(
            f"unsupported provenance index version {version} "
            f"(expected v{VERSION})"
        )
    stored = blob[_TABLE_HEADER.size : PROLOGUE_BYTES]
    if hashlib.sha256(blob[: _TABLE_HEADER.size]).digest() != stored:
        raise IntegrityError("provenance index header digest mismatch")
    return {"num_chunks": n_chunks, "data_len": data_len, "chunk_size": chunk_size}


def changed_chunks(prev, row) -> np.ndarray:
    """Ascending ids of the chunks whose source differs between two rows."""
    return np.flatnonzero(
        (row.src_ckpt != prev.src_ckpt) | (row.src_off != prev.src_off)
    )


def delta_group_bytes(num_changed: int) -> int:
    """Record bytes of a delta group over *num_changed* chunks."""
    return _GROUP_HEADER.size + _DELTA_ENTRY_BYTES * num_changed


def _group_digest(ckpt_id: int, kind: int, body) -> bytes:
    h = hashlib.sha256(struct.pack("<II", ckpt_id, kind))
    h.update(body)
    return h.digest()


def encode_group(row, changed: Optional[np.ndarray] = None) -> Tuple[bytes, bytes]:
    """Encode checkpoint *row* as one row-group record.

    Without *changed* a keyframe (the absolute row, cascaded-packed);
    with it — :func:`changed_chunks` against row ``k-1`` — a delta: the
    changed chunks' ids, ``src_ckpt`` and ``src_off`` as three raw
    little-endian columns.  Returns ``(record_bytes, group_digest)``; the
    digest is also what the record log stores for the group.
    """
    if changed is None:
        kind = KEYFRAME
        body = _pack_planes(row.src_ckpt, row.src_off)
    else:
        kind = DELTA
        body = (
            changed.astype("<u4").tobytes()
            + row.src_ckpt[changed].astype("<i4").tobytes()
            + row.src_off[changed].astype("<i8").tobytes()
        )
    digest = _group_digest(row.ckpt_id, kind, body)
    return _GROUP_HEADER.pack(len(body), row.ckpt_id, kind, digest) + body, digest


def _open_group(record, ckpt_id: int, digest: bytes) -> Tuple[int, memoryview]:
    """Frame and authenticate one group record: ``(kind, body)``.

    The record must be checkpoint *ckpt_id*'s whole group, and its bytes
    must hash to both the digest its own header stores and *digest*, the
    record log's copy.
    """
    if len(record) < _GROUP_HEADER.size:
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} is truncated "
            f"({len(record)} bytes)"
        )
    body_len, held_id, kind, stored = _GROUP_HEADER.unpack_from(record, 0)
    body = memoryview(record)[_GROUP_HEADER.size:]
    if kind not in (KEYFRAME, DELTA):
        raise IntegrityError(
            f"unsupported provenance index row-group kind {kind} at "
            f"checkpoint {ckpt_id}"
        )
    if held_id != ckpt_id or body_len != len(body):
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} is misframed: claims "
            f"checkpoint {held_id} and {body_len} body bytes, holds {len(body)}"
        )
    if _group_digest(ckpt_id, kind, body) != stored or stored != digest:
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} digest mismatch "
            f"(stored {stored.hex()[:16]}…)"
        )
    return kind, body


def group_intact(record, ckpt_id: int, digest: bytes) -> bool:
    """Whether a group record is whole and matches both of its digests."""
    try:
        _open_group(record, ckpt_id, digest)
    except IntegrityError:
        return False
    return True


def _apply_delta(body, prev, in_place: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Row *k* from row *k-1* and a delta body: *prev*'s arrays, changed
    in place, when *in_place* is set; else copies, *prev* untouched."""
    if prev is None:
        raise IntegrityError("delta row-group has no row before it")
    n, rest = divmod(len(body), _DELTA_ENTRY_BYTES)
    if rest:
        raise IntegrityError(f"delta body of {len(body)} bytes is not whole entries")
    ids = np.frombuffer(body, dtype="<u4", count=n).astype(np.int64)
    if n and (np.any(np.diff(ids) <= 0) or int(ids[-1]) >= prev.num_chunks):
        raise IntegrityError(
            f"delta chunk ids are not ascending inside {prev.num_chunks} chunks"
        )
    src_ckpt, src_off = prev.src_ckpt, prev.src_off
    if not in_place:
        src_ckpt, src_off = src_ckpt.copy(), src_off.copy()
    src_ckpt[ids] = np.frombuffer(body, dtype="<i4", count=n, offset=4 * n)
    src_off[ids] = np.frombuffer(body, dtype="<i8", count=n, offset=8 * n)
    return src_ckpt, src_off


def decode_group(
    record,
    ckpt_id: int,
    digest: bytes,
    spec: ChunkSpec,
    prev=None,
    in_place: bool = False,
):
    """Verify and decode checkpoint *ckpt_id*'s group record (bytes or a
    view of them) into its
    :class:`~repro.core.provenance.ProvenanceIndex` row.

    *digest* is the record log's copy of the group digest, *spec* the
    record's geometry; a delta folds onto *prev*, row ``ckpt_id - 1`` —
    into *prev*'s own arrays when *in_place* is set (a fold that keeps
    only its last row), else into copies.  Nothing outside *record* is
    hashed or decoded.
    """
    kind, body = _open_group(record, ckpt_id, digest)
    try:
        if kind == KEYFRAME:
            src_ckpt, src_off = _unpack_planes(body, spec.num_chunks)
        else:
            src_ckpt, src_off = _apply_delta(body, prev, in_place)
    except IntegrityError as exc:
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} is damaged: {exc}"
        ) from exc
    return _prov.ProvenanceIndex(
        ckpt_id=ckpt_id,
        data_len=spec.data_len,
        chunk_size=spec.chunk_size,
        src_ckpt=src_ckpt,
        src_off=src_off,
    )
