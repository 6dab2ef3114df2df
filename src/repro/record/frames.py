"""Checkpoint frames: back to back, in chain order, in one append-only
``record.pack``.  Frame *k* lies at its log offset (the sum of the log's
sizes of the frames before it, :attr:`~.log.Log.frame_off`) and is checked
against the log's size and digest before it is parsed.  The log stores
each frame's content digest (the SHA-256 the frame embeds), so a reader
hashes every frame byte once.  A whole-frame read (:func:`load_frame`)
and a payload read (:func:`load_payload`) make the same checks in the
same order.

A frame is *missing* when the pack ends at or before its start, and
*corrupt* when the pack ends inside it or its bytes fail a check."""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .. import telemetry
from ..core.diff import CheckpointDiff, content_digest, frame_header
from ..core.serialize import decode_payload
from ..errors import IntegrityError, SerializationError, StorageError
from .bytestore import ByteStore
from .log import PACK_FILE, Log

_FRAMES_READ = telemetry.counter(
    "store.frames_read", "Checkpoint frames read from record.pack and parsed"
)
_FRAME_BYTES_READ = telemetry.counter(
    "store.frame_bytes_read", "Bytes of checkpoint frames read from record.pack"
)

#: Per-checkpoint statuses :func:`check_frame` classifies a frame by.
STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_MISSING = "missing"


def _read(store: ByteStore, log: Log, k: int) -> bytes:
    """The bytes of frame *k* the pack holds: the log's size from the
    frame's offset, fewer when the pack ends first (none: it is missing)."""
    try:
        return store.pread(PACK_FILE, log.frame_bytes[k], log.frame_off[k])
    except FileNotFoundError:
        return b""


def _short(held: int, size: int) -> str:
    return f"pack holds {held} of its {size} bytes"


def _checked(parse: Callable, store: ByteStore, log: Log, k: int):
    """``(blob, parse(blob))`` of checkpoint *k*'s frame, checked in order
    against the log's size (the pack must hold the whole range), then the
    log's digest (one SHA-256 pass), then by *parse* —
    :func:`~repro.core.diff.frame_header` or
    :meth:`CheckpointDiff.from_bytes`, which make the same header checks
    and compare the embedded digest to the log's — and last that it holds
    checkpoint *k*.  Raises on any damage."""
    size, digest = log.frame_bytes[k], log.frame_sha[k]
    where, path = f"{PACK_FILE} frame {k}", f"{store.path}/{PACK_FILE}"
    blob = _read(store, log, k)
    if not blob:
        raise StorageError(
            f"record is missing checkpoint frame {k} "
            f"({PACK_FILE} ends before byte {log.frame_off[k]})"
        )
    if len(blob) != size:
        raise IntegrityError(
            f"{where}: {_short(len(blob), size)}", ckpt_id=k, path=path
        )
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(len(blob))
    actual = content_digest(blob)
    if actual != digest:
        raise IntegrityError(
            f"{where}: digest mismatch against the record log "
            f"(record log {digest.hex()[:16]}…, pack {actual.hex()[:16]}…)",
            ckpt_id=k,
            path=path,
        )
    try:
        parsed = parse(blob, digest=actual)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), ckpt_id=k, path=path) from exc
    if parsed.ckpt_id != k:
        raise StorageError(f"{where} holds checkpoint {parsed.ckpt_id}")
    return blob, parsed


def load_frame(store: ByteStore, log: Log, k: int) -> CheckpointDiff:
    """Load + fully verify checkpoint *k*'s frame against the log's size
    and digest; raises on any damage.

    One SHA-256 pass: the frame's content digest is compared to the log's
    before anything is parsed, and the parse compares the digest the frame
    embeds to the same value instead of hashing the frame again."""
    return _checked(CheckpointDiff.from_bytes, store, log, k)[1]


def load_payload(store: ByteStore, log: Log, k: int) -> np.ndarray:
    """Checkpoint *k*'s payload, after every check :func:`load_frame`
    makes, in the same order and with the same errors — but no
    :class:`CheckpointDiff` is built: the payload is a view of the frame's
    bytes, decompressed when its header names a codec."""
    blob, header = _checked(frame_header, store, log, k)
    return decode_payload(memoryview(blob)[header.payload_off :], header.codec)


def check_frame(store: ByteStore, log: Log, k: int) -> Tuple[str, str, Optional[bytes]]:
    """Classify checkpoint *k*'s frame against the log's size and digest
    without raising: ``(status, detail, content digest)``, the digest
    ``None`` when the frame was not hashed (missing, or cut short).  The
    same one pass and the same checks as :func:`load_frame`."""
    size = log.frame_bytes[k]
    blob = _read(store, log, k)
    if not blob:
        return STATUS_MISSING, f"{PACK_FILE} ends before its frame", None
    if len(blob) != size:
        return STATUS_CORRUPT, _short(len(blob), size), None
    actual = content_digest(blob)
    if actual != log.frame_sha[k]:
        return STATUS_CORRUPT, "digest mismatch against the record log", actual
    try:
        held = CheckpointDiff.from_bytes(blob, digest=actual).ckpt_id
    except SerializationError as exc:  # includes IntegrityError
        return STATUS_CORRUPT, str(exc), actual
    if held != k:
        return STATUS_CORRUPT, f"holds checkpoint {held}", actual
    return STATUS_OK, "", actual
