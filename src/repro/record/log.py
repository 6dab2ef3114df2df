"""The record header (``record.json``) and the sealed log (``record.log``)."""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import accumulate
from typing import NamedTuple, Tuple

from ..errors import IntegrityError, StorageError
from .bytestore import ByteStore, as_store

HEADER_FILE = "record.json"
LOG_FILE = "record.log"
INDEX_FILE = "provenance.rpix"
#: The frames, back to back in chain order; its name is fixed by the format.
PACK_FILE = "record.pack"
FORMAT_VERSION = 5

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
    #: Derived, never stored: each frame's offset in ``record.pack``, the
    #: sum of the sizes of the frames before it.
    frame_off: Tuple[int, ...] = ()

    @property
    def count(self) -> int:
        """Checkpoints the log commits."""
        return len(self.seal)

    @property
    def pack_bytes(self) -> int:
        """Bytes of ``record.pack`` the log seals: the sum of the frame
        sizes (what an interrupted append left past them is not a frame)."""
        return self.frame_off[-1] + self.frame_bytes[-1] if self.seal else 0

    def group_end(self, k: int) -> int:
        """Index-file offset just past checkpoint *k*'s row-group."""
        return self.group_off[k] + self.group_len[k]


def is_record(record) -> bool:
    """Whether *record* (a directory or a store) holds a record header."""
    try:
        as_store(record).size(HEADER_FILE)
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def read_header(store: ByteStore) -> dict:
    """Load and validate ``record.json``, wrapping parse errors.

    A malformed header is a *storage* failure, not a programming error:
    raw ``json.JSONDecodeError`` / ``KeyError`` must never escape to
    callers.
    """
    manifest_path = f"{store.path}/{HEADER_FILE}"
    try:
        header = json.loads(store.pread(HEADER_FILE))
    except FileNotFoundError:
        raise StorageError(f"{store.path} holds no record manifest") from None
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


def read_log(store: ByteStore, header: dict):
    """The sealed entries of a record's log, and the running seal over them.

    The last whole entry's seal is recomputed over everything before it,
    so whatever is returned is authenticated end to end.  A partial tail
    entry, or a whole tail entry that fails its seal, is a torn append —
    not a checkpoint, silently left out; a failed seal anywhere before the
    tail is damage and raises :class:`IntegrityError`.  The second value
    is a SHA-256 that has consumed exactly the sealed bytes, so a writer
    continues the seal chain from it without reading the log again.
    """
    name = header["log"]
    try:
        raw = store.pread(name)
    except FileNotFoundError:
        raw = b""
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
            log = Log(*zip(*LOG_ENTRY.iter_unpack(raw[:end])))
            offsets = tuple(accumulate(log.frame_bytes[:-1], initial=0))
            return log._replace(frame_off=offsets), sealer
    # Damage, so time no longer matters: name the first unsealed entry.
    sealer = hashlib.sha256()
    for k in range(whole):
        end = (k + 1) * size
        sealer.update(raw[end - size : end - SEAL_BYTES])
        if sealer.digest() != raw[end - SEAL_BYTES : end]:
            break
        sealer.update(raw[end - SEAL_BYTES : end])
    raise IntegrityError(
        f"{name}: entry {k} of {whole} fails its seal (damaged record log)",
        ckpt_id=k,
        path=f"{store.path}/{name}",
    )
