"""Primitive file-level fault injectors.

Each injector damages one stored artifact in a precisely described way
and returns an :class:`AppliedFault` receipt, so a campaign can log
exactly what was done and a test can assert the damage was detected.
Injectors raise :class:`~repro.errors.FaultError` when the *injection*
itself is impossible (missing file, empty file, out-of-range offset);
the downstream damage surfaces later as
:class:`~repro.errors.IntegrityError` / :class:`~repro.errors.
StorageError` when the corrupted artifact is read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from ..errors import FaultError
from ..record import frame_files
from ..telemetry import events

PathLike = Union[str, Path]


@dataclass(frozen=True)
class AppliedFault:
    """Receipt for one injected fault."""

    kind: str  # "bitflip" | "truncate" | "delete"
    path: str
    #: Byte offset of the flip / new length after truncation / original
    #: size for deletion.
    detail: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({Path(self.path).name}, {self.detail})"


def record_files(record_dir: PathLike) -> List[Path]:
    """The checkpoint frames of a record directory, in chain order."""
    files = frame_files(record_dir)
    if not files:
        raise FaultError(f"{record_dir} holds no checkpoint frames to corrupt")
    return files


def flip_bit(path: PathLike, byte_offset: int, bit: int = 0) -> AppliedFault:
    """Flip one bit of *path* in place."""
    target = Path(path)
    if not target.exists():
        raise FaultError(f"cannot flip a bit of missing file {target}")
    if not 0 <= bit < 8:
        raise FaultError(f"bit index must be in [0, 8), got {bit}")
    size = target.stat().st_size
    if size == 0:
        raise FaultError(f"cannot flip a bit of empty file {target}")
    if not 0 <= byte_offset < size:
        raise FaultError(
            f"byte offset {byte_offset} outside {target} of {size} bytes"
        )
    with open(target, "rb+") as f:
        f.seek(byte_offset)
        original = f.read(1)[0]
        f.seek(byte_offset)
        f.write(bytes([original ^ (1 << bit)]))
    events.emit(
        events.RECORD_FAULT,
        kind="bitflip",
        path=str(target),
        detail=byte_offset,
        bit=bit,
    )
    return AppliedFault("bitflip", str(target), byte_offset)


def truncate_file(path: PathLike, keep_bytes: int) -> AppliedFault:
    """Cut *path* down to its first *keep_bytes* bytes (a torn write)."""
    target = Path(path)
    if not target.exists():
        raise FaultError(f"cannot truncate missing file {target}")
    size = target.stat().st_size
    if not 0 <= keep_bytes < size:
        raise FaultError(
            f"truncation to {keep_bytes} bytes does not shorten {target} "
            f"({size} bytes)"
        )
    with open(target, "rb+") as f:
        f.truncate(keep_bytes)
    events.emit(
        events.RECORD_FAULT, kind="truncate", path=str(target), detail=keep_bytes
    )
    return AppliedFault("truncate", str(target), keep_bytes)


def delete_file(path: PathLike) -> AppliedFault:
    """Remove *path* entirely (a lost object)."""
    target = Path(path)
    if not target.exists():
        raise FaultError(f"cannot delete missing file {target}")
    size = target.stat().st_size
    target.unlink()
    events.emit(events.RECORD_FAULT, kind="delete", path=str(target), detail=size)
    return AppliedFault("delete", str(target), size)
