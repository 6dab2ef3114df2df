"""Checkpoint frames: back to back, in chain order, in one append-only
``record.pack``.  Frame *k* lies at its log offset (the sum of the log's
sizes of the frames before it, :attr:`~.log.Log.frame_off`) and is checked
against the log's size and digest before it is parsed.  The log stores
each frame's content digest (the SHA-256 the frame embeds), so a reader
hashes every frame byte once.

:func:`read_frames` is the one frame reader: one open of the pack per
call, one read per run of adjacent frames, and each frame handed on as a
zero-copy slice of its run's read.  A whole-frame read
(:func:`load_frame`), a payload read (:func:`load_payload`) and a scan
(:func:`check_frame`) make the same checks on that slice in the same
order.

A frame is *missing* when the pack ends at or before its start, and
*corrupt* when the pack ends inside it or its bytes fail a check."""

from __future__ import annotations

from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from .. import telemetry
from ..core.diff import CheckpointDiff, content_digest, frame_header
from ..core.serialize import decode_payload
from ..errors import IntegrityError, SerializationError, StorageError
from .bytestore import ByteStore
from .log import PACK_FILE, Log

T = TypeVar("T")

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

#: An inclusive ``(first, last)`` range of adjacent checkpoints.
Run = Tuple[int, int]


def runs_of(ids: Iterable[int]) -> List[Run]:
    """The distinct *ids*, ascending, as runs of adjacent checkpoints."""
    runs: List[Run] = []
    for k in sorted(set(ids)):
        if runs and runs[-1][1] == k - 1:
            runs[-1] = (runs[-1][0], k)
        else:
            runs.append((k, k))
    return runs


def _pack_reads(store: ByteStore, extents: List[Tuple[int, int]]) -> Iterator[bytes]:
    try:
        yield from store.read(PACK_FILE, extents)
    except FileNotFoundError:  # before the first extent: there is no pack
        yield from (b"" for _ in extents)


def read_frames(
    store: ByteStore,
    log: Log,
    runs: Sequence[Run],
    take: Callable[[memoryview, int], T],
) -> Iterator[T]:
    """Yield ``take(blob, k)`` for every frame *k* of *runs*, in order.

    The pack is opened once and read once per run, from its first frame's
    offset through its last frame's end; *blob* is the slice of that read
    the log places frame *k* at — shorter than the log's size when the
    pack ends inside the run, and empty when it ends before the frame.
    Each run's bytes are dropped before the next run is read, so a *take*
    that keeps nothing of its blob leaves one run in memory at a time.
    """
    off, size = log.frame_off, log.frame_bytes
    extents = [(off[a], off[b] + size[b] - off[a]) for a, b in runs]
    reads = _pack_reads(store, extents)
    try:
        for first, last in runs:
            run = memoryview(next(reads))
            for k in range(first, last + 1):
                at = off[k] - off[first]
                yield take(run[at : at + size[k]], k)
            del run  # before the next run is read
    finally:
        reads.close()


def _short(held: int, size: int) -> str:
    return f"pack holds {held} of its {size} bytes"


def _checked(parse: Callable, blob, log: Log, k: int, path):
    """``parse(blob)`` of checkpoint *k*'s frame *blob* (as
    :func:`read_frames` hands it on; *path* is the record's location),
    checked in order against the log's size (the pack must hold the whole
    range), then the log's digest (one SHA-256 pass), then by *parse* —
    :func:`~repro.core.diff.frame_header` or
    :meth:`CheckpointDiff.from_bytes`, which make the same header checks
    and compare the embedded digest to the log's — and last that it holds
    checkpoint *k*.  Raises on any damage."""
    size, digest = log.frame_bytes[k], log.frame_sha[k]
    where, pack = f"{PACK_FILE} frame {k}", f"{path}/{PACK_FILE}"
    if not blob:
        raise StorageError(
            f"record is missing checkpoint frame {k} "
            f"({PACK_FILE} ends before byte {log.frame_off[k]})"
        )
    if len(blob) != size:
        raise IntegrityError(
            f"{where}: {_short(len(blob), size)}", ckpt_id=k, path=pack
        )
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(size)
    actual = content_digest(blob)
    if actual != digest:
        raise IntegrityError(
            f"{where}: digest mismatch against the record log "
            f"(record log {digest.hex()[:16]}…, pack {actual.hex()[:16]}…)",
            ckpt_id=k,
            path=pack,
        )
    try:
        parsed = parse(blob, digest=actual)
    except IntegrityError as exc:
        raise IntegrityError(str(exc), ckpt_id=k, path=pack) from exc
    if parsed.ckpt_id != k:
        raise StorageError(f"{where} holds checkpoint {parsed.ckpt_id}")
    return parsed


def load_frame(blob, log: Log, k: int, path) -> CheckpointDiff:
    """Checkpoint *k*'s frame *blob*, fully verified against the log's
    size and digest; raises on any damage.

    One SHA-256 pass: the frame's content digest is compared to the log's
    before anything is parsed, and the parse compares the digest the frame
    embeds to the same value instead of hashing the frame again."""
    return _checked(CheckpointDiff.from_bytes, blob, log, k, path)


def load_payload(blob, log: Log, k: int, path) -> np.ndarray:
    """Checkpoint *k*'s payload, after every check :func:`load_frame`
    makes, in the same order and with the same errors — but no
    :class:`CheckpointDiff` is built: the payload is a view of *blob*,
    decompressed when its header names a codec."""
    header = _checked(frame_header, blob, log, k, path)
    return decode_payload(memoryview(blob)[header.payload_off :], header.codec)


def check_frame(blob, log: Log, k: int) -> Tuple[str, str, Optional[bytes]]:
    """Classify checkpoint *k*'s frame *blob* against the log's size and
    digest without raising: ``(status, detail, content digest)``, the
    digest ``None`` when the frame was not hashed (missing, or cut short).
    The same one pass and the same checks as :func:`load_frame` — the
    header checks are :func:`~repro.core.diff.frame_header`'s, which is
    every check :meth:`CheckpointDiff.from_bytes` makes — and nothing of
    the frame is copied."""
    size = log.frame_bytes[k]
    if not blob:
        return STATUS_MISSING, f"{PACK_FILE} ends before its frame", None
    if len(blob) != size:
        return STATUS_CORRUPT, _short(len(blob), size), None
    actual = content_digest(blob)
    if actual != log.frame_sha[k]:
        return STATUS_CORRUPT, "digest mismatch against the record log", actual
    try:
        held = frame_header(blob, digest=actual).ckpt_id
    except SerializationError as exc:  # includes IntegrityError
        return STATUS_CORRUPT, str(exc), actual
    if held != k:
        return STATUS_CORRUPT, f"holds checkpoint {held}", actual
    return STATUS_OK, "", actual
