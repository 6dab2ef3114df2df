"""Checkpoint frame files: ``ckpt-NNNNN.rdif``, one per checkpoint, each
checked against the record log's size and digest before it is parsed.
The log stores each frame's content digest (the SHA-256 the frame
embeds), so a reader hashes every frame byte once.  A whole-frame read
(:func:`load_frame`) and a payload read (:func:`load_payload`) make the
same checks in the same order."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..core.diff import CheckpointDiff, content_digest, frame_header
from ..core.serialize import decode_payload
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


def frame_name(k: int) -> str:
    """The file name of checkpoint *k*'s frame."""
    return _PATTERN.format(k)


def frame_path(directory: Path, k: int) -> Path:
    """Where checkpoint *k*'s frame lives in a record directory."""
    return directory / frame_name(k)


def frame_files(directory) -> List[Path]:
    """The frame files present in a record directory, in chain order."""
    return sorted(Path(directory).glob("ckpt-*.rdif"))


def _read(path, size: int) -> Tuple[Optional[bytes], int]:
    """``(bytes, size)`` of a frame file; the bytes only when its size is
    the log's (*size*) — otherwise the log's digest cannot possibly match,
    and the frame is refused without being read."""
    # One open: a file that vanishes after an existence check could
    # otherwise escape as a raw FileNotFoundError.
    fd = os.open(path, os.O_RDONLY)
    try:
        actual = os.fstat(fd).st_size
        if actual != size:
            return None, actual
        blob = os.read(fd, size)
        while len(blob) < size:  # one read stops short of 2 GiB
            more = os.read(fd, size - len(blob))
            if not more:
                break
            blob += more
        return blob, actual
    finally:
        os.close(fd)


def _checked(parse: Callable, path, index: int, size: int, digest: bytes):
    """``(blob, parse(blob))`` of one frame, checked in order against the
    log's *size*, then the log's *digest* (one SHA-256 pass), then by
    *parse* — :func:`~repro.core.diff.frame_header` or
    :meth:`CheckpointDiff.from_bytes`, which make the same header checks
    and compare the embedded digest to the log's — and last that it holds
    checkpoint *index*.  Raises on any damage."""
    path = os.fspath(path)
    name = os.path.basename(path)
    try:
        blob, actual_size = _read(path, size)
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


def load_frame(path, index: int, size: int, digest: bytes) -> CheckpointDiff:
    """Load + fully verify one checkpoint frame against the log's *size*
    and *digest*; raises on any damage.

    One SHA-256 pass: the frame's content digest is compared to the log's
    before anything is parsed, and the parse compares the digest the frame
    embeds to the same value instead of hashing the frame again."""
    return _checked(CheckpointDiff.from_bytes, path, index, size, digest)[1]


def load_payload(path, index: int, size: int, digest: bytes) -> np.ndarray:
    """Checkpoint *index*'s payload, after every check :func:`load_frame`
    makes, in the same order and with the same errors — but no
    :class:`CheckpointDiff` is built: the payload is a view of the frame's
    bytes, decompressed when its header names a codec."""
    blob, header = _checked(frame_header, path, index, size, digest)
    return decode_payload(memoryview(blob)[header.payload_off :], header.codec)


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
