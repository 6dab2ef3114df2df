"""Checkpoint frame files: ``ckpt-NNNNN.rdif``, one per checkpoint, each
checked against the record log's size and digest before it is parsed.
The log stores each frame's content digest (the SHA-256 the frame
embeds), so a reader hashes every frame byte once.  A whole-frame read
(:func:`load_frame`) and a payload read (:func:`load_payload`) make the
same checks in the same order."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..core.diff import CheckpointDiff, content_digest, frame_header
from ..core.serialize import decode_payload
from ..errors import IntegrityError, SerializationError, StorageError
from .bytestore import ByteStore, as_store

_FRAMES_READ = telemetry.counter(
    "store.frames_read", "Checkpoint .rdif frames read and parsed"
)
_FRAME_BYTES_READ = telemetry.counter(
    "store.frame_bytes_read", "Bytes of .rdif frames read from disk"
)

_PATTERN = "ckpt-{:05d}.rdif"

#: Per-checkpoint statuses :func:`check_frame` classifies a frame by.
STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_MISSING = "missing"


def frame_name(k: int) -> str:
    """The file name of checkpoint *k*'s frame."""
    return _PATTERN.format(k)


def frame_names(store: ByteStore) -> List[str]:
    """The frame files present in a record, in chain order."""
    return [n for n in store.list() if n.startswith("ckpt-") and n.endswith(".rdif")]


def frame_files(directory) -> List[Path]:
    """The frame files present in a record directory, in chain order."""
    return [Path(directory) / name for name in frame_names(as_store(directory))]


def _read(store: ByteStore, name: str, size: int) -> Tuple[Optional[bytes], int]:
    """``(bytes, size)`` of a frame file; the bytes only when its size is
    the log's (*size*) — otherwise the log's digest cannot possibly match.
    One read of at most one byte more than the log's size tells both."""
    blob = store.pread(name, size + 1)
    if len(blob) == size:
        return blob, size
    return None, len(blob) if len(blob) < size else store.size(name)


def _checked(parse: Callable, store: ByteStore, index: int, size: int, digest: bytes):
    """``(blob, parse(blob))`` of checkpoint *index*'s frame, checked in
    order against the log's *size*, then the log's *digest* (one SHA-256
    pass), then by *parse* — :func:`~repro.core.diff.frame_header` or
    :meth:`CheckpointDiff.from_bytes`, which make the same header checks
    and compare the embedded digest to the log's — and last that it holds
    checkpoint *index*.  Raises on any damage."""
    name = frame_name(index)
    path = f"{store.path}/{name}"
    try:
        blob, actual_size = _read(store, name, size)
    except FileNotFoundError:
        raise StorageError(f"record is missing checkpoint file {name}") from None
    if blob is None:
        raise IntegrityError(
            f"{name}: file size {actual_size} != record log {size}",
            ckpt_id=index,
            path=path,
        )
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(len(blob))
    actual = content_digest(blob)
    if actual != digest:
        raise IntegrityError(
            f"{name}: file digest mismatch "
            f"(record log {digest.hex()[:16]}…, file {actual.hex()[:16]}…)",
            ckpt_id=index,
            path=path,
        )
    try:
        parsed = parse(blob, digest=actual)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), ckpt_id=index, path=path) from exc
    if parsed.ckpt_id != index:
        raise StorageError(f"{name} holds checkpoint {parsed.ckpt_id}")
    return blob, parsed


def load_frame(store: ByteStore, index: int, size: int, digest: bytes) -> CheckpointDiff:
    """Load + fully verify one checkpoint frame against the log's *size*
    and *digest*; raises on any damage.

    One SHA-256 pass: the frame's content digest is compared to the log's
    before anything is parsed, and the parse compares the digest the frame
    embeds to the same value instead of hashing the frame again."""
    return _checked(CheckpointDiff.from_bytes, store, index, size, digest)[1]


def load_payload(store: ByteStore, index: int, size: int, digest: bytes) -> np.ndarray:
    """Checkpoint *index*'s payload, after every check :func:`load_frame`
    makes, in the same order and with the same errors — but no
    :class:`CheckpointDiff` is built: the payload is a view of the frame's
    bytes, decompressed when its header names a codec."""
    blob, header = _checked(frame_header, store, index, size, digest)
    return decode_payload(memoryview(blob)[header.payload_off :], header.codec)


def check_frame(
    store: ByteStore, index: int, size: int, digest: bytes
) -> Tuple[str, str, Optional[bytes]]:
    """Classify one frame against the log's *size* and *digest* without
    raising: ``(status, detail, content digest)``, the digest ``None``
    when the frame was not hashed (missing, or of the wrong size).  The
    same one pass and the same checks as :func:`load_frame`."""
    try:
        blob, actual_size = _read(store, frame_name(index), size)
    except FileNotFoundError:
        return STATUS_MISSING, "file not found", None
    if blob is None:
        return STATUS_CORRUPT, f"file size {actual_size} != record log {size}", None
    actual = content_digest(blob)
    if actual != digest:
        return STATUS_CORRUPT, "file digest mismatch", actual
    try:
        held = CheckpointDiff.from_bytes(blob, digest=actual).ckpt_id
    except SerializationError as exc:  # includes IntegrityError
        return STATUS_CORRUPT, str(exc), actual
    if held != index:
        return STATUS_CORRUPT, f"holds checkpoint {held}", actual
    return STATUS_OK, "", actual
