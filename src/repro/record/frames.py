"""Checkpoint frame files: ``ckpt-NNNNN.rdif``, one per checkpoint, each
checked against the record log's size and digest before it is parsed.
The log stores each frame's content digest (the SHA-256 the frame
embeds), so a reader hashes every frame byte once."""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Tuple

from .. import telemetry
from ..core.diff import CheckpointDiff, content_digest
from ..errors import IntegrityError, SerializationError, StorageError

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


def frame_path(directory: Path, k: int) -> Path:
    """Where checkpoint *k*'s frame lives in a record directory."""
    return directory / _PATTERN.format(k)


def frame_files(directory) -> List[Path]:
    """The frame files present in a record directory, in chain order."""
    return sorted(Path(directory).glob("ckpt-*.rdif"))


def _read(path: Path, size: int) -> Tuple[Optional[bytes], int]:
    """``(bytes, size)`` of a frame file; the bytes only when its size is
    the log's (*size*) — otherwise the log's digest cannot possibly match,
    and the frame is refused without being read."""
    # One open: a file that vanishes after an existence check could
    # otherwise escape as a raw FileNotFoundError.
    with open(path, "rb") as f:
        actual = os.fstat(f.fileno()).st_size
        return (f.read() if actual == size else None), actual


def load_frame(path: Path, index: int, size: int, digest: bytes) -> CheckpointDiff:
    """Load + fully verify one checkpoint frame against the log's *size*
    and *digest*; raises on any damage.

    One SHA-256 pass: the frame's content digest is compared to the log's
    before anything is parsed, and the parse compares the digest the frame
    embeds to the same value instead of hashing the frame again."""
    try:
        blob, actual_size = _read(path, size)
    except FileNotFoundError:
        raise StorageError(
            f"record is missing checkpoint file {path.name}"
        ) from None
    if blob is None:
        raise IntegrityError(
            f"{path.name}: file size {actual_size} != record log {size}",
            ckpt_id=index,
            path=str(path),
        )
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(len(blob))
    actual = content_digest(blob)
    if actual != digest:
        raise IntegrityError(
            f"{path.name}: file digest mismatch "
            f"(record log {digest.hex()[:16]}…, file {actual.hex()[:16]}…)",
            ckpt_id=index,
            path=str(path),
        )
    try:
        diff = CheckpointDiff.from_bytes(blob, digest=actual)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), ckpt_id=index, path=str(path)) from exc
    if diff.ckpt_id != index:
        raise StorageError(f"{path.name} holds checkpoint {diff.ckpt_id}")
    return diff


def check_frame(
    path: Path, index: int, size: int, digest: bytes
) -> Tuple[str, str, Optional[bytes]]:
    """Classify one frame against the log's *size* and *digest* without
    raising: ``(status, detail, content digest)``, the digest ``None``
    when the frame was not hashed (missing, or of the wrong size).  The
    same one pass and the same checks as :func:`load_frame`."""
    try:
        blob, actual_size = _read(path, size)
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
