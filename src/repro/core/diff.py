"""On-wire checkpoint-diff format.

A diff is what one process ships to host memory per checkpoint: a small
header, method-specific metadata, and the payload of first-occurrence
chunk bytes (§2.1's "consolidated difference").  All four methods of the
paper's evaluation share the container:

* ``full``  — no metadata; payload is the entire checkpoint.
* ``basic`` — a changed-chunk bitmap; payload is the changed chunks.
* ``list``  — per-chunk entries: first-occurrence chunk ids and
  shifted-duplicate triples ``(chunk, ref_chunk, ref_ckpt)``; payload is
  the first-occurrence chunks.
* ``tree``  — per-*region* entries: first-occurrence node ids and
  shifted-duplicate triples ``(node, ref_node, ref_ckpt)`` over the flat
  Merkle tree; payload is the first-occurrence regions.

Metadata entries use 4-byte ids on the wire (u32 node/chunk/checkpoint
ids), which is what the paper's metadata-size comparison counts.  The
binary encoding is little-endian and versioned; ``from_bytes`` round-trips
``to_bytes`` exactly, and ``serialized_size`` predicts the encoded length
without materialising it (the dedup engines use it to meter the D2H
transfer).

Format v2 adds integrity to the frame: a 32-byte SHA-256 content digest
sits directly after the fixed header and covers every other byte of the
frame (header + metadata + payload).  ``from_bytes`` recomputes it — or,
handed the value a caller already computed with :func:`content_digest`,
compares the field to that — and raises
:class:`~repro.errors.IntegrityError` on mismatch, so a bit flip anywhere
in a stored frame is detected at parse time.  The same digest is
the one a record log stores per frame, so a reader hashes each frame
byte once.  The digestless v1 frame is rejected by name ("unsupported
diff version 1"), never loaded unverified.  See ``docs/FAULT_MODEL.md``
for the full frame layout.

The header's ``flags`` byte names the frame's payload codec
(:data:`PAYLOAD_CODECS`): 0 for a raw payload, ``i + 1`` for a ``tree``
payload the hybrid mode (§5) compressed with ``PAYLOAD_CODECS[i]``.  A
frame therefore says how to read itself; the digest covers the byte.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ..errors import IntegrityError, SerializationError
from ..utils.validation import non_negative_int, one_of, positive_int

_MAGIC = b"RDIF"
_VERSION = 2
_HEADER = struct.Struct("<4sHBBIQIIIIQ")
# magic, version, method, flags, ckpt_id, data_len, chunk_size,
# n_first, n_shift, bitmap_bytes, payload_len

#: Bytes of the v2 per-frame content digest (SHA-256), stored directly
#: after the fixed header.
DIGEST_BYTES = 32

METHODS = ("full", "basic", "list", "tree")
_METHOD_CODE = {name: i for i, name in enumerate(METHODS)}

#: Payload codec names by wire code minus one (code 0 is a raw payload):
#: the registered :mod:`repro.compress` codecs, a fixed table.
PAYLOAD_CODECS = ("bitcomp", "cascaded", "deflate", "lz4sim", "snappysim", "zstdsim")
_CODEC_CODE = {None: 0, **{name: i + 1 for i, name in enumerate(PAYLOAD_CODECS)}}

#: Wire width of one first-occurrence metadata entry (u32 id).
FIRST_ENTRY_BYTES = 4
#: Wire width of one shifted-duplicate entry (u32 id, u32 ref id, u32 ckpt).
SHIFT_ENTRY_BYTES = 12


def _as_u32(arr: Optional[np.ndarray], name: str) -> np.ndarray:
    if arr is None:
        return np.empty(0, dtype=np.uint32)
    out = np.asarray(arr)
    if out.ndim != 1:
        raise SerializationError(f"{name} must be 1-D, got shape {out.shape}")
    if out.dtype == np.uint32:  # every value is in range: no scan, no copy
        return out
    if out.size and (out.min() < 0 or out.max() > np.iinfo(np.uint32).max):
        raise SerializationError(f"{name} contains values outside u32 range")
    return out.astype(np.uint32)


def content_digest(blob) -> bytes:
    """SHA-256 over a frame minus its digest field (header ‖ body): the
    value an intact frame embeds, and the one a record log stores for it.
    One pass over *blob*, through a memoryview (no copy)."""
    view = memoryview(blob)
    h = hashlib.sha256(view[: _HEADER.size])
    h.update(view[_HEADER.size + DIGEST_BYTES :])
    return h.digest()


class FrameHeader(NamedTuple):
    """A frame's fixed header, checked by :func:`frame_header`."""

    method: str
    codec: Optional[str]
    ckpt_id: int
    data_len: int
    chunk_size: int
    n_first: int
    n_shift: int
    bitmap_bytes: int
    #: Where the payload starts; it runs to the end of the frame.
    payload_off: int
    #: The embedded content digest, when it was checked (else ``None``).
    digest: Optional[bytes]


def frame_header(
    blob, verify: bool = True, digest: Optional[bytes] = None
) -> FrameHeader:
    """Check a frame's header against its bytes; the one list of checks
    every frame reader makes, whether it then builds a whole
    :class:`CheckpointDiff` or only takes the payload.

    In order: magic, version, method code, exact length, the embedded
    digest against *digest* (a caller's :func:`content_digest` of *blob*,
    typically the record log's value) or against a fresh hash when
    *verify* is true, the codec code (known, and only on a ``tree``
    frame), and a positive ``data_len`` and ``chunk_size``.  Raises
    :class:`~repro.errors.SerializationError`, or
    :class:`~repro.errors.IntegrityError` for a digest mismatch.
    """
    if len(blob) < _HEADER.size:
        raise SerializationError(f"diff blob too short ({len(blob)} bytes)")
    (
        magic,
        version,
        method_code,
        codec_code,
        ckpt_id,
        data_len,
        chunk_size,
        n_first,
        n_shift,
        bitmap_bytes,
        payload_len,
    ) = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise SerializationError(f"unsupported diff version {version}")
    if method_code >= len(METHODS):
        raise SerializationError(f"unknown method code {method_code}")
    method = METHODS[method_code]

    off = _HEADER.size
    if len(blob) < off + DIGEST_BYTES:
        raise SerializationError(
            f"diff blob too short for v2 digest ({len(blob)} bytes)"
        )
    payload_off = off + DIGEST_BYTES + 4 * n_first + 12 * n_shift + bitmap_bytes
    need = payload_off + payload_len
    if len(blob) != need:
        raise SerializationError(f"diff blob length {len(blob)} != expected {need}")
    stored_digest = None
    if verify or digest is not None:
        stored_digest = bytes(blob[off : off + DIGEST_BYTES])
        actual = content_digest(blob) if digest is None else digest
        if actual != stored_digest:
            raise IntegrityError(
                f"checkpoint {ckpt_id}: frame digest mismatch "
                f"(stored {stored_digest.hex()[:16]}…, "
                f"computed {actual.hex()[:16]}…)",
                ckpt_id=ckpt_id,
            )
    codec = None
    if codec_code:
        if codec_code > len(PAYLOAD_CODECS):
            raise SerializationError(f"unknown payload codec code {codec_code}")
        if method != "tree":
            raise SerializationError(
                f"payload codec code {codec_code} on a {method} frame"
            )
        codec = PAYLOAD_CODECS[codec_code - 1]
    if not data_len or not chunk_size:
        raise SerializationError(
            f"checkpoint {ckpt_id}: data_len {data_len} / chunk_size "
            f"{chunk_size} must be positive"
        )
    # Positional: a restore builds one header per frame it reads, and
    # keywords double the cost of the tuple.
    return FrameHeader(
        method, codec, ckpt_id, data_len, chunk_size,
        n_first, n_shift, bitmap_bytes, payload_off, stored_digest,
    )


@dataclass
class CheckpointDiff:
    """One serialized incremental checkpoint.

    ``first_ids``/``shift_*`` are node ids for the tree method and chunk
    ids for the list method; ``bitmap`` is only present for the basic
    method.  ``payload`` holds the concatenated first-occurrence bytes in
    the order of ``first_ids`` (changed chunks in ascending order for
    basic; the whole buffer for full).  ``codec`` names the
    :data:`PAYLOAD_CODECS` entry a hybrid ``tree`` payload is compressed
    with (``None``: raw).
    """

    method: str
    ckpt_id: int
    data_len: int
    chunk_size: int
    first_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    shift_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    shift_ref_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    shift_ref_ckpts: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    bitmap: Optional[np.ndarray] = None  # packed uint8, basic method only
    payload: bytes = b""
    codec: Optional[str] = None
    #: Integrity provenance: ``None`` for locally built diffs (or a parse
    #: with ``verify=False``), ``True`` when parsed from a frame whose
    #: digest matched.
    verified: Optional[bool] = field(default=None, compare=False)
    #: Cached :meth:`content_digest`, set by :meth:`to_bytes` and by a
    #: verifying :meth:`from_bytes`.  Engines never mutate a diff after
    #: building it; anything that does must clear this cache.
    _digest: Optional[bytes] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        one_of(self.method, METHODS, "method")
        non_negative_int(self.ckpt_id, "ckpt_id")
        positive_int(self.data_len, "data_len")
        positive_int(self.chunk_size, "chunk_size")
        self.first_ids = _as_u32(self.first_ids, "first_ids")
        self.shift_ids = _as_u32(self.shift_ids, "shift_ids")
        self.shift_ref_ids = _as_u32(self.shift_ref_ids, "shift_ref_ids")
        self.shift_ref_ckpts = _as_u32(self.shift_ref_ckpts, "shift_ref_ckpts")
        if not (
            self.shift_ids.shape
            == self.shift_ref_ids.shape
            == self.shift_ref_ckpts.shape
        ):
            raise SerializationError("shift metadata arrays must share a length")
        if self.bitmap is not None:
            self.bitmap = np.asarray(self.bitmap, dtype=np.uint8)
        if self.method == "basic" and self.bitmap is None:
            raise SerializationError("basic diffs require a bitmap")
        if self.method != "basic" and self.bitmap is not None:
            raise SerializationError(f"{self.method} diffs must not carry a bitmap")

    # ------------------------------------------------------------------
    # Size accounting (the paper's metadata-vs-data breakdown)
    # ------------------------------------------------------------------
    @property
    def num_first(self) -> int:
        """Count of first-occurrence metadata entries."""
        return int(self.first_ids.shape[0])

    @property
    def num_shift(self) -> int:
        """Count of shifted-duplicate metadata entries."""
        return int(self.shift_ids.shape[0])

    @property
    def referenced_checkpoints(self) -> np.ndarray:
        """Unique checkpoint ids this diff's shifted duplicates read from.

        Restore needs exactly these earlier checkpoints (plus the previous
        one for fixed duplicates) to apply this diff — the window that
        :meth:`~repro.core.restore.Restorer.restore` keeps in memory.
        """
        if self.num_shift == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.shift_ref_ckpts.astype(np.int64))

    @property
    def metadata_bytes(self) -> int:
        """Bytes of method metadata on the wire (excluding the header)."""
        total = self.num_first * FIRST_ENTRY_BYTES + self.num_shift * SHIFT_ENTRY_BYTES
        if self.bitmap is not None:
            total += self.bitmap.nbytes
        return total

    @property
    def payload_bytes(self) -> int:
        """Bytes of stored chunk content."""
        return len(self.payload)

    @property
    def header_bytes(self) -> int:
        """Fixed frame overhead: header plus the v2 content digest."""
        return _HEADER.size + DIGEST_BYTES

    @property
    def serialized_size(self) -> int:
        """Exact length of :meth:`to_bytes` output."""
        return self.header_bytes + self.metadata_bytes + self.payload_bytes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _body_parts(self) -> list:
        """Metadata + payload, the variable part of the frame, in order."""
        parts = [self.first_ids.astype("<u4").tobytes()]
        shift = np.empty((self.num_shift, 3), dtype="<u4")
        shift[:, 0] = self.shift_ids
        shift[:, 1] = self.shift_ref_ids
        shift[:, 2] = self.shift_ref_ckpts
        parts.append(shift.tobytes())
        if self.bitmap is not None:
            parts.append(self.bitmap.tobytes())
        parts.append(self.payload)
        return parts

    def _pack_header(self) -> bytes:
        bitmap_bytes = self.bitmap.nbytes if self.bitmap is not None else 0
        return _HEADER.pack(
            _MAGIC,
            _VERSION,
            _METHOD_CODE[self.method],
            _CODEC_CODE[self.codec],
            self.ckpt_id,
            self.data_len,
            self.chunk_size,
            self.num_first,
            self.num_shift,
            bitmap_bytes,
            len(self.payload),
        )

    def content_digest(self) -> bytes:
        """The frame's content digest (:func:`content_digest` of
        :meth:`to_bytes`), cached after first use: the SHA-256 the frame
        embeds and the record log stores for it."""
        if self._digest is None:
            self.to_bytes()
        return self._digest

    def frame_digest(self) -> str:
        """Hex of :meth:`content_digest`, the per-frame digest a record's
        manifest lists.  Cached, so comparing a chain against a stored
        record costs hash *comparisons*, not re-serialization."""
        return self.content_digest().hex()

    def to_bytes(self) -> bytes:
        """Serialize to the versioned little-endian wire format (v2):
        header and body go through one SHA-256, whose digest is embedded
        and cached as :meth:`content_digest`."""
        header = self._pack_header()
        parts = self._body_parts()
        h = hashlib.sha256(header)
        for part in parts:
            h.update(part)
        self._digest = h.digest()
        out = b"".join([header, self._digest, *parts])
        if len(out) != self.serialized_size:  # pragma: no cover - invariant
            raise SerializationError(
                f"encoded size {len(out)} != predicted {self.serialized_size}"
            )
        return out

    @classmethod
    def from_bytes(
        cls, blob: bytes, verify: bool = True, digest: Optional[bytes] = None
    ) -> "CheckpointDiff":
        """Parse a diff previously produced by :meth:`to_bytes`.

        The frame is checked by :func:`frame_header` — the checks every
        frame reader makes — and its metadata arrays and payload are then
        copied out.  The frame's content digest is recomputed there
        (mismatch raises :class:`~repro.errors.IntegrityError` unless
        *verify* is false).  A caller that already computed
        :func:`content_digest` of *blob* — a record reader, which checks
        it against the record log — passes it as *digest*: the embedded
        field is compared to it and the frame is not hashed again.
        """
        head = frame_header(blob, verify=verify, digest=digest)
        off = _HEADER.size + DIGEST_BYTES
        n_first, n_shift = head.n_first, head.n_shift
        first_ids = np.frombuffer(blob, dtype="<u4", count=n_first, offset=off).copy()
        off += 4 * n_first
        shift = (
            np.frombuffer(blob, dtype="<u4", count=3 * n_shift, offset=off)
            .reshape(n_shift, 3)
            .copy()
        )
        off += 12 * n_shift
        bitmap = None
        if head.method == "basic":
            bitmap = np.frombuffer(
                blob, dtype=np.uint8, count=head.bitmap_bytes, offset=off
            ).copy()
        payload = bytes(blob[head.payload_off :])  # *blob* may be a view
        checked = head.digest is not None
        return cls(
            method=head.method,
            ckpt_id=head.ckpt_id,
            data_len=head.data_len,
            chunk_size=head.chunk_size,
            first_ids=first_ids,
            shift_ids=shift[:, 0],
            shift_ref_ids=shift[:, 1],
            shift_ref_ckpts=shift[:, 2],
            bitmap=bitmap,
            payload=payload,
            codec=head.codec,
            verified=True if checked else None,
            _digest=head.digest,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CheckpointDiff {self.method} #{self.ckpt_id} "
            f"first={self.num_first} shift={self.num_shift} "
            f"payload={self.payload_bytes}B total={self.serialized_size}B>"
        )

