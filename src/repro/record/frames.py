"""Checkpoint frame files: ``ckpt-NNNNN.rdif``, one per checkpoint, each
checked against the record log's size and digest before it is parsed."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import List, Optional, Tuple

from .. import telemetry
from ..core.diff import CheckpointDiff
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


def load_frame(path: Path, index: int, expected_digest: bytes) -> CheckpointDiff:
    """Load + fully verify one checkpoint frame; raises on any damage."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise StorageError(
            f"record is missing checkpoint file {path.name}"
        ) from None
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(len(blob))
    actual = hashlib.sha256(blob).digest()
    if actual != expected_digest:
        raise IntegrityError(
            f"{path.name}: file digest mismatch "
            f"(record log {expected_digest.hex()[:16]}…, file {actual.hex()[:16]}…)",
            ckpt_id=index,
            path=str(path),
        )
    try:
        diff = CheckpointDiff.from_bytes(blob)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), ckpt_id=index, path=str(path)) from exc
    if diff.ckpt_id != index:
        raise StorageError(f"{path.name} holds checkpoint {diff.ckpt_id}")
    return diff


def check_frame(
    path: Path, index: int, size: int, digest: bytes
) -> Tuple[str, str, Optional[bytes]]:
    """Classify one frame against the log's *size* and *digest* without
    raising: ``(status, detail, sha256)``, the SHA-256 ``None`` when the
    frame was not hashed (missing, or of the wrong size)."""
    # One open: a file that vanishes after an existence check could
    # otherwise escape as a raw FileNotFoundError.
    try:
        with open(path, "rb") as f:
            actual_size = os.fstat(f.fileno()).st_size
            # Size fast path: the log's digest cannot possibly match, so
            # the frame is classified without reading or hashing it.
            blob = f.read() if actual_size == size else None
    except FileNotFoundError:
        return STATUS_MISSING, "file not found", None
    if blob is None:
        return STATUS_CORRUPT, f"file size {actual_size} != record log {size}", None
    sha = hashlib.sha256(blob).digest()
    if sha != digest:
        return STATUS_CORRUPT, "file digest mismatch", sha
    try:
        held = CheckpointDiff.from_bytes(blob).ckpt_id
    except SerializationError as exc:  # includes IntegrityError
        return STATUS_CORRUPT, str(exc), sha
    if held != index:
        return STATUS_CORRUPT, f"holds checkpoint {held}", sha
    return STATUS_OK, "", sha
