"""Primitive record fault injectors: damage to one checkpoint's frame.

A record's frames lie back to back in ``record.pack``; each injector
damages checkpoint *k*'s extent there — the bytes of its frame the pack
still holds — in one precisely described way, and returns an
:class:`AppliedFault` receipt naming the checkpoint and the offset inside
its frame, so a campaign can log exactly what was done and a replay can
re-apply it.  Only the extents the record log seals are targets: bytes
an interrupted append left past them belong to no checkpoint.

* :func:`flip_bit` — one bit of the frame;
* :func:`truncate_frame` — the pack cut inside the frame: the torn tail
  an append-only file can suffer, every later frame lost with it;
* :func:`delete_frame` — the extent zero-filled: a lost extent.

Injectors raise :class:`~repro.errors.FaultError` when the *injection*
itself is impossible (no readable record, a checkpoint the pack holds no
byte of, an out-of-range offset); the downstream damage surfaces later as
:class:`~repro.errors.IntegrityError` / :class:`~repro.errors.
StorageError` when the corrupted frame is read back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, NamedTuple, Union

from ..errors import FaultError, ReproError
from ..record import PACK_FILE, RecordView
from ..telemetry import events

PathLike = Union[str, Path]


@dataclass(frozen=True)
class AppliedFault:
    """Receipt for one injected fault."""

    kind: str  # "bitflip" | "truncate" | "delete"
    #: The pack the damaged frame lies in.
    path: str
    #: The checkpoint whose frame was damaged.
    ckpt: int
    #: In-frame byte offset of the flip / in-frame bytes kept by the cut /
    #: bytes zero-filled.
    detail: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}(ckpt {self.ckpt}, {self.detail})"


class FrameExtent(NamedTuple):
    """Where checkpoint *ckpt*'s frame lies in the pack."""

    ckpt: int
    #: Byte offset of the frame in ``record.pack``.
    offset: int
    #: Bytes of the frame the pack holds (0: the pack ends before it).
    held: int


def record_frames(record_dir: PathLike) -> List[FrameExtent]:
    """Every frame the record log seals, in chain order.  Raises
    :class:`~repro.errors.FaultError` when *record_dir* holds no readable
    record, or a pack that holds no byte of any frame."""
    try:
        view = RecordView(record_dir)
    except (ReproError, OSError) as exc:
        raise FaultError(f"{record_dir} holds no record to corrupt: {exc}") from exc
    frames = [
        FrameExtent(k, offset, held)
        for k, (offset, held) in enumerate(zip(view.log.frame_off, view.frame_sizes()))
    ]
    if not any(frame.held for frame in frames):
        raise FaultError(f"{record_dir} holds no checkpoint frames to corrupt")
    return frames


def _extent(record_dir: PathLike, ckpt: int) -> FrameExtent:
    frames = record_frames(record_dir)
    if not 0 <= ckpt < len(frames) or not frames[ckpt].held:
        raise FaultError(
            f"{record_dir}/{PACK_FILE} holds no byte of checkpoint {ckpt}'s frame"
        )
    return frames[ckpt]


def _applied(kind: str, pack: Path, ckpt: int, detail: int, **extra) -> AppliedFault:
    events.emit(
        events.RECORD_FAULT,
        kind=kind,
        path=str(pack),
        ckpt=ckpt,
        detail=detail,
        **extra,
    )
    return AppliedFault(kind, str(pack), ckpt, detail)


def flip_bit(
    record_dir: PathLike, ckpt: int, byte_offset: int, bit: int = 0
) -> AppliedFault:
    """Flip one bit of checkpoint *ckpt*'s frame, *byte_offset* bytes in."""
    if not 0 <= bit < 8:
        raise FaultError(f"bit index must be in [0, 8), got {bit}")
    extent = _extent(record_dir, ckpt)
    if not 0 <= byte_offset < extent.held:
        raise FaultError(
            f"byte offset {byte_offset} outside the {extent.held} bytes of "
            f"checkpoint {ckpt}'s frame"
        )
    pack = Path(record_dir) / PACK_FILE
    with open(pack, "rb+") as f:
        f.seek(extent.offset + byte_offset)
        original = f.read(1)[0]
        f.seek(extent.offset + byte_offset)
        f.write(bytes([original ^ (1 << bit)]))
    return _applied("bitflip", pack, ckpt, byte_offset, bit=bit)


def truncate_frame(record_dir: PathLike, ckpt: int, keep_bytes: int) -> AppliedFault:
    """Cut the pack *keep_bytes* bytes into checkpoint *ckpt*'s frame (a
    torn tail: every later frame goes with it)."""
    extent = _extent(record_dir, ckpt)
    if not 0 <= keep_bytes < extent.held:
        raise FaultError(
            f"a cut {keep_bytes} bytes into checkpoint {ckpt}'s frame does not "
            f"shorten its {extent.held} bytes"
        )
    pack = Path(record_dir) / PACK_FILE
    os.truncate(pack, extent.offset + keep_bytes)
    return _applied("truncate", pack, ckpt, keep_bytes)


def delete_frame(record_dir: PathLike, ckpt: int) -> AppliedFault:
    """Zero-fill checkpoint *ckpt*'s extent in the pack (a lost extent)."""
    extent = _extent(record_dir, ckpt)
    pack = Path(record_dir) / PACK_FILE
    with open(pack, "rb+") as f:
        f.seek(extent.offset)
        f.write(bytes(extent.held))
    return _applied("delete", pack, ckpt, extent.held)
