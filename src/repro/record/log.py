"""The record header (``record.json``) and the sealed log (``record.log``)."""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import NamedTuple, Tuple

from ..errors import IntegrityError, StorageError

HEADER_FILE = "record.json"
LOG_FILE = "record.log"
INDEX_FILE = "provenance.rpix"
FORMAT_VERSION = 4

#: One log entry: frame bytes, frame content digest (the SHA-256 over
#: header ‖ body the frame embeds), index-group offset, length, kind and
#: SHA-256 — then the 32-byte seal.
LOG_BODY = struct.Struct("<Q32sQII32s")
LOG_ENTRY = struct.Struct(LOG_BODY.format + "32s")
SEAL_BYTES = 32


class Log(NamedTuple):
    """A record's sealed log, column by column: ``column[k]`` is
    checkpoint *k*'s value."""

    frame_bytes: Tuple[int, ...] = ()
    frame_sha: Tuple[bytes, ...] = ()
    group_off: Tuple[int, ...] = ()
    group_len: Tuple[int, ...] = ()
    group_kind: Tuple[int, ...] = ()
    group_sha: Tuple[bytes, ...] = ()
    seal: Tuple[bytes, ...] = ()

    @property
    def count(self) -> int:
        """Checkpoints the log commits."""
        return len(self.seal)

    def group_end(self, k: int) -> int:
        """Index-file offset just past checkpoint *k*'s row-group."""
        return self.group_off[k] + self.group_len[k]


def is_record(directory) -> bool:
    """Whether *directory* holds a record header."""
    return (Path(directory) / HEADER_FILE).exists()


def read_header(path: Path) -> dict:
    """Load and validate ``record.json``, wrapping parse errors.

    A malformed header is a *storage* failure, not a programming error:
    raw ``json.JSONDecodeError`` / ``KeyError`` must never escape to
    callers.
    """
    manifest_path = path / HEADER_FILE
    if not manifest_path.exists():
        raise StorageError(f"{path} holds no record manifest")
    try:
        header = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"malformed record manifest {manifest_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise StorageError(
            f"malformed record manifest {manifest_path}: not a JSON object"
        )
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported record format {version!r}")
    if not isinstance(header.get("log"), str) or not isinstance(
        header.get("index", ""), str
    ):
        raise StorageError(
            f"malformed record manifest {manifest_path}: it must name the "
            f"record log and the index by file name"
        )
    for key in ("data_len", "chunk_size"):
        if not isinstance(header.get(key), int):
            raise StorageError(
                f"malformed record manifest {manifest_path}: bad {key}"
            )
    if "index" not in header:
        raise StorageError(
            f"{manifest_path} names no provenance index: the unindexed "
            f"record is a retired format"
        )
    return header


def read_log(path: Path, header: dict):
    """The sealed entries of a record's log, and the running seal over them.

    The last whole entry's seal is recomputed over everything before it,
    so whatever is returned is authenticated end to end.  A partial tail
    entry, or a whole tail entry that fails its seal, is a torn append —
    not a checkpoint, silently left out; a failed seal anywhere before the
    tail is damage and raises :class:`IntegrityError`.  The second value
    is a SHA-256 that has consumed exactly the sealed bytes, so a writer
    continues the seal chain from it without reading the log again.
    """
    log_path = path / header["log"]
    raw = log_path.read_bytes() if log_path.exists() else b""
    size = LOG_ENTRY.size
    whole = len(raw) // size
    for count in (whole, whole - 1):
        end = max(count, 0) * size
        if not end:
            return Log(), hashlib.sha256()
        sealer = hashlib.sha256(raw[: end - SEAL_BYTES])
        seal = raw[end - SEAL_BYTES : end]
        if sealer.digest() == seal:
            sealer.update(seal)
            return Log(*zip(*LOG_ENTRY.iter_unpack(raw[:end]))), sealer
    # Damage, so time no longer matters: name the first unsealed entry.
    sealer = hashlib.sha256()
    for k in range(whole):
        end = (k + 1) * size
        sealer.update(raw[end - size : end - SEAL_BYTES])
        if sealer.digest() != raw[end - SEAL_BYTES : end]:
            break
        sealer.update(raw[end - SEAL_BYTES : end])
    raise IntegrityError(
        f"{log_path.name}: entry {k} of {whole} fails its seal "
        f"(damaged record log)",
        ckpt_id=k,
        path=str(log_path),
    )
