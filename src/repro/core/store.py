"""On-disk checkpoint record store.

Persists a diff chain as one file per checkpoint plus a sealed log — the
shape a deployment would push down the Fig. 3 hierarchy.  The wire
format of a frame is the versioned encoding of
:class:`~repro.core.diff.CheckpointDiff`, so records written here can be
read by any tool that speaks it.

Layout::

    <dir>/record.json            static header: format, method, geometry,
                                 the log and index file names
    <dir>/record.log             one fixed-size sealed entry per checkpoint
    <dir>/ckpt-00000.rdif        CheckpointDiff.to_bytes() per checkpoint
    <dir>/ckpt-00001.rdif
    ...
    <dir>/provenance.rpix        RPIX v4 index: one row-group per checkpoint

**The log entry is the commit point.**  An append writes the frame, then
its index row-group, then one log entry — three pure appends; the header
is written (temp file + ``os.replace``) only when one of its fields
changes, in practice once.  An entry holds the frame's size and SHA-256,
the offset / length / kind / SHA-256 of the index group, and a *seal*:
the SHA-256 of every log byte before it — all earlier entries, their
seals included, then this entry's other columns — so the last whole
entry authenticates every column of the log in one hash.  A
checkpoint exists iff its entry is whole and sealed: a torn or flipped
tail entry is simply not a checkpoint, and whatever an interrupted append
left behind (a frame, a group, part of an entry) is overwritten or
truncated by the next writer.  A failed seal *before* the tail is damage
and is refused by every entry point.  Swapping one valid frame for
another valid-but-wrong frame is detected even though both self-verify,
because the log holds each frame's digest.

This is the only layout read: manifest v1/v2 (per-checkpoint columns in
``record.json``), v1 frames and RPIX v1–v3 indexes are rejected by name,
never loaded unverified.  See ``docs/FAULT_MODEL.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..errors import IntegrityError, ReproError, SerializationError, StorageError
from .. import telemetry
from ..telemetry import events
from . import provenance as _prov
from .chunking import ChunkSpec
from .diff import CheckpointDiff

_FRAMES_READ = telemetry.counter(
    "store.frames_read", "Checkpoint .rdif frames read and parsed"
)
_FRAME_BYTES_READ = telemetry.counter(
    "store.frame_bytes_read", "Bytes of .rdif frames read from disk"
)
_FRAMES_WRITTEN = telemetry.counter(
    "store.frames_written", "Checkpoint .rdif frames written to disk"
)
_FRAMES_REUSED = telemetry.counter(
    "store.frames_reused",
    "Frames already on disk with matching digests, skipped by save_record",
)
_SALVAGE_EVENTS = telemetry.counter(
    "store.salvage_events", "Non-strict loads truncated at a damaged frame"
)
_INDEX_GROUPS_DECODED = telemetry.counter(
    "store.index_groups_decoded",
    "Provenance row-groups verified and decoded (a row read decodes its "
    "keyframe plus the deltas up to it)",
)

_MANIFEST = "record.json"
_LOG_FILE = "record.log"
_PATTERN = "ckpt-{:05d}.rdif"
_INDEX_FILE = "provenance.rpix"
_FORMAT_VERSION = 3
_INDEX_VERSION = 4

#: One log entry: frame bytes, frame SHA-256, index-group offset, length,
#: kind (0: the record is unindexed) and SHA-256 — then the 32-byte seal.
_LOG_BODY = struct.Struct("<Q32sQII32s")
_LOG_ENTRY = struct.Struct(_LOG_BODY.format + "32s")
_SEAL_BYTES = 32
#: The group columns of an entry in an unindexed record.
_NO_GROUP = (0, 0, 0, bytes(32))

#: Per-checkpoint statuses reported by :func:`verify_record`.
STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_MISSING = "missing"


class _Log(NamedTuple):
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


def _file_digest(path: Path) -> str:
    with open(path, "rb") as f:
        if hasattr(hashlib, "file_digest"):  # Python >= 3.11: zero-copy path
            return hashlib.file_digest(f, "sha256").hexdigest()
        h = hashlib.sha256()
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
        return h.hexdigest()


def _chain_digest(digests: Sequence[bytes]) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _read_header(path: Path) -> dict:
    """Load and validate ``record.json``, wrapping parse errors.

    A malformed header is a *storage* failure, not a programming error:
    raw ``json.JSONDecodeError`` / ``KeyError`` must never escape to
    callers.
    """
    manifest_path = path / _MANIFEST
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
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported record format {version!r}")
    if not isinstance(header.get("log"), str) or not isinstance(
        header.get("index", ""), str
    ):
        raise StorageError(
            f"malformed record manifest {manifest_path}: it must name the "
            f"record log (and the index, if any) by file name"
        )
    for key in ("data_len", "chunk_size"):
        if not isinstance(header.get(key), int):
            raise StorageError(
                f"malformed record manifest {manifest_path}: bad {key}"
            )
    return header


def _read_log(path: Path, header: dict) -> _Log:
    """The sealed entries of a record's log.

    The last whole entry's seal is recomputed over everything before it,
    so whatever is returned is authenticated end to end.  A partial tail
    entry, or a whole tail entry that fails its seal, is a torn append —
    not a checkpoint, silently left out; a failure anywhere before the
    tail is damage and raises :class:`IntegrityError`.
    """
    log_path = path / header["log"]
    raw = log_path.read_bytes() if log_path.exists() else b""
    size = _LOG_ENTRY.size
    whole = len(raw) // size
    for count in (whole, whole - 1):
        end = max(count, 0) * size
        seal = raw[end - _SEAL_BYTES : end]
        if not end or hashlib.sha256(raw[: end - _SEAL_BYTES]).digest() == seal:
            return _Log(*zip(*_LOG_ENTRY.iter_unpack(raw[:end])))
    # Damage, so time no longer matters: name the first unsealed entry.
    sealer = hashlib.sha256()
    for k in range(whole):
        end = (k + 1) * size
        sealer.update(raw[end - size : end - _SEAL_BYTES])
        if sealer.digest() != raw[end - _SEAL_BYTES : end]:
            break
        sealer.update(raw[end - _SEAL_BYTES : end])
    raise IntegrityError(
        f"{log_path.name}: entry {k} of {whole} fails its seal "
        f"(damaged record log)",
        ckpt_id=k,
        path=str(log_path),
    )


def _read_record(path: Path) -> Tuple[dict, _Log]:
    header = _read_header(path)
    return header, _read_log(path, header)


def record_manifest(directory: Union[str, Path]) -> dict:
    """A stored record's manifest: its header fields plus, derived from
    the sealed log, ``num_checkpoints``, per-checkpoint ``digests`` /
    ``frame_bytes``, the ``chain_digest`` over the frame digests, and —
    when the record is indexed — ``provenance`` (``file``, ``version``,
    ``rows``, ``chain_sha256`` over the group digests)."""
    header, log = _read_record(Path(directory))
    manifest = {
        "format_version": header["format_version"],
        "method": header.get("method", ""),
        "num_checkpoints": log.count,
        "data_len": header["data_len"],
        "chunk_size": header["chunk_size"],
        "digests": [digest.hex() for digest in log.frame_sha],
        "frame_bytes": list(log.frame_bytes),
        "chain_digest": _chain_digest(log.frame_sha),
    }
    if "index" in header:
        manifest["provenance"] = {
            "file": header["index"],
            "version": _INDEX_VERSION,
            "rows": log.count,
            "chain_sha256": _chain_digest(log.group_sha),
        }
    return manifest


@dataclass
class AppendReceipt:
    """What one :meth:`RecordWriter.append` actually put on disk."""

    ckpt_id: int
    #: Bytes of the new ``.rdif`` frame (the checkpoint itself).
    frame_bytes: int
    #: Provenance rows appended (0 when the record is unindexed).
    index_rows_appended: int
    #: Bytes appended to ``provenance.rpix``: this checkpoint's keyframe or
    #: delta group (plus the prologue on checkpoint 0); nothing is rewritten.
    index_bytes: int
    #: Bytes of the appended log entry, plus the ``record.json`` header
    #: when this append (re)wrote it.
    manifest_bytes: int

    @property
    def bytes_written(self) -> int:
        """Total bytes this append put on disk."""
        return self.frame_bytes + self.index_bytes + self.manifest_bytes


class RecordWriter:
    """Append-optimized handle on a record directory.

    ``open → append(diff) × N → close``; the record is loadable after
    *every* append.  Each append is three pure appends — the new frame,
    one RPIX row-group, one fixed-size log entry, in that order — so the
    cost of appending checkpoint N is O(what checkpoint N changed), not
    O(chain): nothing already on disk is rewritten.

    The row-group is a delta (16 B per chunk whose source changed) iff
    the deltas since the last keyframe, this one included, stay smaller
    than that keyframe; otherwise it is a keyframe (the absolute row).
    The rule uses only sizes the writer already holds, and bounds what a
    restore reads by twice one keyframe.

    Opening an existing record is the only O(chain) step: the log is
    read and its seal verified (no frame is re-read or re-hashed,
    except a cheap sanity check of the last one), whatever an
    interrupted append left past the last sealed entry is truncated
    away, and every row of the index is rebuilt by keyframe decode +
    delta fold into the :class:`~repro.core.provenance.ProvenanceBuilder`.
    A record with *no* index (an unindexable chain) stays unindexed.

    The writer mirrors :func:`save_record`'s leniency for hand-built
    chains: a diff the builder rejects drops the index (the record still
    saves, restores fall back to replay), exactly as the whole-chain
    path always behaved.
    """

    def __init__(self, directory: Union[str, Path], method: str = "") -> None:
        self.path = Path(directory)
        self.path.mkdir(parents=True, exist_ok=True)
        self.method = method
        self._closed = False
        self._clear()
        if (self.path / _MANIFEST).exists():
            self._open_existing()

    def _clear(self) -> None:
        """The state of a writer on an empty record."""
        self._last_method = ""
        self._header: Optional[dict] = None  # record.json as it stands on disk
        self._count = 0
        self._sealer = hashlib.sha256()  # over every log byte written
        self._data_len: Optional[int] = None
        self._chunk_size: Optional[int] = None
        self._builder: Optional[_prov.ProvenanceBuilder] = _prov.ProvenanceBuilder()
        self._index_end = 0  # byte offset past the last committed row-group
        self._keyframe_bytes = 0  # the last keyframe group ...
        self._delta_bytes = 0  # ... and the delta groups since it

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Checkpoints the record currently holds."""
        return self._count

    @property
    def indexed(self) -> bool:
        """Whether the record carries a provenance index."""
        return self._builder is not None

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Mark the writer closed (every append was already committed)."""
        self._closed = True

    # ------------------------------------------------------------------
    def _open_existing(self) -> None:
        header, log = _read_record(self.path)
        if (header["log"], header.get("index", _INDEX_FILE)) != (_LOG_FILE, _INDEX_FILE):
            # Appending under other names would orphan the files it names.
            raise StorageError(
                f"{self.path / _MANIFEST} names record files this writer "
                f"does not write"
            )
        self._header = header
        count = log.count
        if count == 0:
            return
        self._data_len = header["data_len"]
        self._chunk_size = header["chunk_size"]
        held_method = header.get("method")
        if held_method:
            if self.method and count > 1 and held_method != self.method:
                raise StorageError(
                    f"{self.path} holds an incompatible record: "
                    f"method={held_method!r} on disk vs {self.method!r} "
                    f"being saved"
                )
            self._last_method = str(held_method)

        # Torn-append sanity: the log entry is written last, so the one
        # frame that could disagree with it after a crash is the final
        # one.  One file hash, not a chain re-scan.
        last = self.path / _PATTERN.format(count - 1)
        if not last.exists() or _file_digest(last) != log.frame_sha[-1].hex():
            raise IntegrityError(
                f"{last.name}: frame does not match the record log "
                f"(damaged or torn record; run verify_record)",
                ckpt_id=count - 1,
                path=str(last),
            )
        self._count = count
        log_path = self.path / header["log"]
        _truncate(log_path, count * _LOG_ENTRY.size)
        self._sealer.update(log_path.read_bytes())

        if "index" not in header:
            # Unindexed record (unindexable chain, or the index was
            # dropped): appends continue without an index.
            self._builder = None
            return
        self._builder.indexes = _decode_rows(self.path, header, log)
        self._index_end = log.group_end(count - 1)
        _truncate(self.path / header["index"], self._index_end)
        keyframe = _keyframe_of(log, count - 1)
        self._keyframe_bytes = log.group_len[keyframe]
        self._delta_bytes = sum(log.group_len[keyframe + 1 :])

    # ------------------------------------------------------------------
    def _write_header(self) -> int:
        """Bring ``record.json`` up to date; returns the bytes written
        (0: it already says all of this)."""
        header = {
            "format_version": _FORMAT_VERSION,
            "method": self.method or self._last_method,
            "data_len": self._data_len,
            "chunk_size": self._chunk_size,
            "log": _LOG_FILE,
        }
        if self.indexed:
            header["index"] = _INDEX_FILE
        if header == self._header:
            return 0
        text = json.dumps(header, indent=2)
        scratch = self.path / (_MANIFEST + ".tmp")
        scratch.write_text(text)
        os.replace(scratch, self.path / _MANIFEST)
        self._header = header
        return len(text)

    def _drop_index(self) -> None:
        self._builder = None
        self._write_header()  # first: no header may name a deleted index
        index_path = self.path / _INDEX_FILE
        if index_path.exists():
            index_path.unlink()
        self._index_end = 0

    def _append_index(self, diff: CheckpointDiff):
        """Extend the index by *diff*'s row-group; returns the bytes
        appended and the group's ``(offset, length, kind, digest)`` log
        columns (zeros: the builder rejected the diff, the index is
        dropped)."""
        try:
            row = self._builder.append(diff)
        except ReproError:
            self._drop_index()
            return 0, _NO_GROUP
        with telemetry.span("store.index.append_group", ckpt=row.ckpt_id) as span:
            changed = None
            if row.ckpt_id:
                changed = _prov.changed_chunks(self._builder.indexes[-2], row)
                size = _prov.delta_group_bytes(changed.size)
                if self._delta_bytes + size >= self._keyframe_bytes:
                    changed = None
            record, digest = _prov.encode_group(row, changed)
            if changed is None:
                kind = _prov.KEYFRAME
                self._keyframe_bytes, self._delta_bytes = len(record), 0
            else:
                kind = _prov.DELTA
                self._delta_bytes += len(record)
            # Checkpoint 0 starts the file afresh, prologue first.
            prologue = b""
            if row.ckpt_id == 0:
                prologue = _prov.encode_prologue(
                    row.num_chunks, row.data_len, row.chunk_size
                )
                self._index_end = 0
            with open(self.path / _INDEX_FILE, "ab" if row.ckpt_id else "wb") as f:
                f.write(prologue + record)
            offset = self._index_end + len(prologue)
            self._index_end = offset + len(record)
            span.set(bytes=len(prologue) + len(record), kind=kind)
        return len(prologue) + len(record), (offset, len(record), kind, digest)

    # ------------------------------------------------------------------
    def append(self, diff: CheckpointDiff) -> AppendReceipt:
        """Append one checkpoint: frame, row-group, then the log entry
        that commits both."""
        if self._closed:
            raise StorageError(f"record writer for {self.path} is closed")
        if self._data_len is not None and diff.data_len != self._data_len:
            raise StorageError(
                f"{self.path} holds an incompatible record: "
                f"data_len={self._data_len!r} on disk vs "
                f"{diff.data_len!r} being saved"
            )
        with telemetry.span(
            "store.append", ckpt=diff.ckpt_id, path=str(self.path)
        ) as span:
            blob = diff.to_bytes()
            frame_sha = hashlib.sha256(blob).digest()
            diff._frame_digest = frame_sha.hex()
            (self.path / _PATTERN.format(diff.ckpt_id)).write_bytes(blob)
            _FRAMES_WRITTEN.inc()
            prior = self._count
            if self._data_len is None:
                self._data_len = diff.data_len
                self._chunk_size = diff.chunk_size
            self._last_method = diff.method

            index_bytes, group = (
                self._append_index(diff) if self.indexed else (0, _NO_GROUP)
            )
            rows_appended = int(index_bytes > 0)

            manifest_bytes = self._write_header() + _LOG_ENTRY.size
            body = _LOG_BODY.pack(len(blob), frame_sha, *group)
            self._sealer.update(body)
            seal = self._sealer.digest()
            self._sealer.update(seal)
            # The commit point.  Checkpoint 0 starts the log afresh.
            with open(self.path / _LOG_FILE, "ab" if prior else "wb") as f:
                f.write(body + seal)
            self._count = prior + 1
            span.set(
                bytes=len(blob) + index_bytes + manifest_bytes,
                frame_bytes=len(blob),
                index_bytes=index_bytes,
                manifest_bytes=manifest_bytes,
            )
        receipt = AppendReceipt(
            ckpt_id=diff.ckpt_id,
            frame_bytes=len(blob),
            index_rows_appended=rows_appended,
            index_bytes=index_bytes,
            manifest_bytes=manifest_bytes,
        )
        events.emit(
            events.RECORD_APPENDED,
            path=str(self.path),
            ckpt_id=diff.ckpt_id,
            frames_written=1,
            frames_reused=prior,
            index_rows_appended=rows_appended,
            bytes_written=receipt.bytes_written,
            checkpoint_bytes=len(blob),
        )
        return receipt

    def reset(self) -> None:
        """Drop the record entirely (a crashed chain restarts at 0)."""
        # The log first: from then on the record holds no checkpoint.
        for name in (_LOG_FILE, _INDEX_FILE, _MANIFEST):
            target = self.path / name
            if target.exists():
                target.unlink()
        for frame in self.path.glob("ckpt-*.rdif"):
            frame.unlink()
        self._clear()


def _truncate(path: Path, size: int) -> None:
    """Cut what an interrupted append left past *size* (a partial log
    entry, an orphan row-group), so the next append is a pure append."""
    if path.stat().st_size > size:
        os.truncate(path, size)


def save_record(
    diffs: List[CheckpointDiff],
    directory: Union[str, Path],
    method: str = "",
) -> Path:
    """Write a diff chain to *directory* (created if missing).

    Refuses to overwrite a directory already holding a different record
    length unless it holds a strict prefix of this chain (append-style
    updates are fine) — and the existing record must agree on geometry
    (``data_len``, ``chunk_size``) and ``method``, so a chain can never
    be silently mixed with an incompatible one.

    A thin wrapper over :class:`RecordWriter`: frames whose stored
    digests already match the chain are *reused*, never rewritten, and
    only the suffix past the stored prefix is appended — so appending
    one checkpoint through this legacy entry point costs one frame, one
    index row-group, and a log entry, not a record rewrite.
    """
    if not diffs:
        raise StorageError("cannot save an empty record")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    prefix = 0
    # (A header with an empty log — a first append that never committed —
    # holds nothing to be compatible with.)
    if (path / _MANIFEST).exists() and (existing := record_manifest(path))[
        "num_checkpoints"
    ]:
        if existing["num_checkpoints"] > len(diffs):
            raise StorageError(
                f"{path} already holds a longer record "
                f"({existing['num_checkpoints']} checkpoints)"
            )
        for key, value in (
            ("data_len", diffs[0].data_len),
            ("chunk_size", diffs[0].chunk_size),
        ):
            held = existing.get(key)
            if held is not None and held != value:
                raise StorageError(
                    f"{path} holds an incompatible record: "
                    f"{key}={held!r} on disk vs {value!r} being saved"
                )
        # Method compatibility: a single-checkpoint record's manifest
        # method is just its first diff's method (a tree chain opens
        # with a full checkpoint), so only a longer record pins the
        # chain method.
        held_method = existing.get("method")
        new_method = method or diffs[-1].method
        if (
            held_method is not None
            and existing["num_checkpoints"] > 1
            and held_method != new_method
        ):
            raise StorageError(
                f"{path} holds an incompatible record: "
                f"method={held_method!r} on disk vs {new_method!r} being saved"
            )
        # Strongest append guard: the overlapping prefix must be the
        # same bytes checkpoint for checkpoint.  The diffs' cached frame
        # digests make this O(chain) hash *comparisons*, not O(chain)
        # re-serialization.
        prefix = existing["num_checkpoints"]
        for i, held in enumerate(existing["digests"]):
            if diffs[i].frame_digest() != held:
                raise StorageError(
                    f"{path} holds a different chain: checkpoint {i} "
                    f"does not match the stored record (append must "
                    f"extend, not rewrite)"
                )

    with telemetry.span(
        "store.save_record", frames=len(diffs), path=str(path)
    ) as span:
        writer = RecordWriter(path, method=method)
        _FRAMES_REUSED.inc(prefix)
        written = 0
        for i in range(prefix, len(diffs)):
            written += writer.append(diffs[i]).frame_bytes
        writer.close()
        span.set(
            bytes=written,
            frames_written=len(diffs) - prefix,
            frames_reused=prefix,
            indexed=writer.indexed,
        )
    return path


def _load_one(path: Path, index: int, expected_digest: bytes) -> CheckpointDiff:
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


def load_record(
    directory: Union[str, Path], strict: bool = True
) -> List[CheckpointDiff]:
    """Read a diff chain previously written by :func:`save_record`.

    With ``strict=True`` (the default) any missing, corrupt, or
    mismatched checkpoint file raises (:class:`StorageError` /
    :class:`IntegrityError`).  With ``strict=False`` the longest valid
    *prefix* of the chain is salvaged instead: loading stops at the first
    bad checkpoint and whatever verified before it is returned (possibly
    an empty list).  Diffs are chains — a checkpoint past a hole cannot
    be reconstructed anyway, so the valid prefix is exactly the
    recoverable part.
    """
    path = Path(directory)
    _header, log = _read_record(path)
    count, digests = log.count, log.frame_sha
    diffs: List[CheckpointDiff] = []
    with telemetry.span(
        "store.load_record", path=str(path), frames=count, strict=strict
    ) as span:
        for i in range(count):
            try:
                diffs.append(_load_one(path / _PATTERN.format(i), i, digests[i]))
            except (StorageError, SerializationError) as exc:
                if strict:
                    raise
                _SALVAGE_EVENTS.inc()
                telemetry.instant(
                    "store.salvage",
                    path=str(path),
                    first_bad=i,
                    valid_prefix=len(diffs),
                    error=type(exc).__name__,
                )
                events.emit(
                    events.SALVAGE,
                    path=str(path),
                    first_bad=i,
                    valid_prefix=len(diffs),
                    error=type(exc).__name__,
                )
                break
        span.set(loaded=len(diffs))
    return diffs


def load_record_frames(
    directory: Union[str, Path], indices: Sequence[int]
) -> Dict[int, CheckpointDiff]:
    """Load + verify only the named checkpoint frames of a record.

    The selective-read primitive behind the indexed restore path: a
    provenance index names the frames whose payloads a checkpoint's bytes
    live in, and only those files are read and parsed.  Each frame still
    gets the full treatment (record-log digest + embedded digest).
    """
    path = Path(directory)
    _header, log = _read_record(path)
    count, digests = log.count, log.frame_sha
    frames: Dict[int, CheckpointDiff] = {}
    with telemetry.span(
        "store.load_frames", path=str(path), frames_total=count
    ) as span:
        for i in indices:
            i = int(i)
            if not 0 <= i < count:
                raise StorageError(f"checkpoint {i} outside record of {count}")
            if i in frames:
                continue
            frames[i] = _load_one(path / _PATTERN.format(i), i, digests[i])
        span.set(frames_read=len(frames))
    return frames


def record_frame_sizes(directory: Union[str, Path]) -> List[int]:
    """On-disk byte size of each ``.rdif`` frame (0 for missing files)."""
    path = Path(directory)
    manifest = record_manifest(path)
    sizes = []
    for i in range(manifest["num_checkpoints"]):
        frame = path / _PATTERN.format(i)
        sizes.append(frame.stat().st_size if frame.exists() else 0)
    return sizes


def _keyframe_of(log: _Log, k: int) -> int:
    """The last keyframe at or before checkpoint *k*."""
    while k > 0 and log.group_kind[k] != _prov.KEYFRAME:
        k -= 1
    return k


def _read_groups(
    path: Path, header: dict, log: _Log, ckpt: Optional[int] = None
) -> Tuple[int, List[bytes]]:
    """The group records a read of checkpoint *ckpt*'s row needs, as
    ``(first checkpoint, records)``: its keyframe span — the last
    keyframe at or before it through its own group — in one ``pread`` of
    exactly that byte range.  Without *ckpt*, every group, read with the
    file prologue, which must agree with the header's geometry.
    """
    index_path = path / header["index"]
    if not index_path.exists():
        raise IntegrityError(
            f"manifest names provenance index {index_path.name}, "
            f"which is missing",
            path=str(index_path),
        )
    first = 0 if ckpt is None else _keyframe_of(log, ckpt)
    last = log.count - 1 if ckpt is None else ckpt
    start = 0 if ckpt is None else log.group_off[first]
    with open(index_path, "rb") as f:
        blob = os.pread(f.fileno(), log.group_end(last) - start, start)
    if ckpt is None:
        geometry = _prov.decode_prologue(blob)
        held = (header["data_len"], header["chunk_size"])
        if (geometry["data_len"], geometry["chunk_size"]) != held:
            raise IntegrityError(
                f"{index_path.name} indexes checkpoints of "
                f"{geometry['data_len']} bytes in {geometry['chunk_size']}-byte "
                f"chunks, record holds {held[0]} in {held[1]}",
                path=str(index_path),
            )
    return first, [
        blob[log.group_off[k] - start : log.group_end(k) - start]
        for k in range(first, last + 1)
    ]


def _decode_rows(
    path: Path, header: dict, log: _Log, ckpt: Optional[int] = None
) -> List[_prov.ProvenanceIndex]:
    """Rows of :func:`_read_groups`' span, by keyframe decode + delta
    fold; each group is checked against its own digest and the log's."""
    first, records = _read_groups(path, header, log, ckpt)
    spec = ChunkSpec(header["data_len"], header["chunk_size"])
    rows: List[_prov.ProvenanceIndex] = []
    for k, record in enumerate(records, first):
        rows.append(
            _prov.decode_group(
                record, k, log.group_sha[k], spec, rows[-1] if rows else None
            )
        )
        _INDEX_GROUPS_DECODED.inc()
    return rows


def load_provenance(directory: Union[str, Path], ckpt: Optional[int] = None):
    """Load a record's persisted provenance index, if it has one.

    Returns checkpoint *ckpt*'s :class:`~repro.core.provenance.
    ProvenanceIndex` row: the record log is read and its seal chain
    verified, then the one contiguous byte range from *ckpt*'s last
    keyframe through its own group is read, each group in it checked
    against its header digest and the log's, the keyframe decoded and
    the deltas folded onto it — so a restore costs at most two keyframes'
    bytes at any chain length, and damage in any group *outside* that
    span never blocks it.  Without *ckpt*, every row stacked into a
    :class:`~repro.core.provenance.ProvenanceTable`; ``None`` when the
    record has no index (the chain was not indexable at save time).
    A *present but damaged* index raises :class:`IntegrityError` —
    callers choose whether to fall back.
    """
    path = Path(directory)
    header, log = _read_record(path)
    if "index" not in header or not log.count:
        return None
    if ckpt is None:
        return _prov.ProvenanceTable.from_rows(_decode_rows(path, header, log))
    if not 0 <= ckpt < log.count:
        raise StorageError(f"checkpoint {ckpt} outside record index of {log.count}")
    row = _decode_rows(path, header, log, ckpt)[-1]
    span_start = log.group_off[_keyframe_of(log, ckpt)]
    row.bytes_read = log.count * _LOG_ENTRY.size + log.group_end(ckpt) - span_start
    return row


def record_index_bytes(directory: Union[str, Path]) -> int:
    """On-disk byte size of the record's provenance index (0 if absent)."""
    path = Path(directory)
    index_name = _read_header(path).get("index")
    if index_name is None or not (path / index_name).exists():
        return 0
    return (path / index_name).stat().st_size


@dataclass
class CheckpointStatus:
    """Verification outcome of one stored checkpoint."""

    index: int
    filename: str
    status: str  # one of STATUS_OK / STATUS_CORRUPT / STATUS_MISSING
    detail: str = ""

    @property
    def loadable(self) -> bool:
        """Whether the frame is present and verified."""
        return self.status == STATUS_OK


@dataclass
class RecordVerification:
    """Full integrity report of a stored record directory."""

    directory: str
    format_version: int
    checkpoints: List[CheckpointStatus] = field(default_factory=list)
    chain_ok: bool = False
    provenance_ok: Optional[bool] = None  # None when the record has no index
    #: On-disk provenance index size vs its uncompressed 12 B/chunk form
    #: (both 0 when the record has no index or the index is damaged).
    index_bytes: int = 0
    index_raw_bytes: int = 0
    #: Row-group accounting: total groups scanned, and the checkpoint
    #: of every group whose digest did not match.
    index_groups: int = 0
    index_bad_groups: List[int] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Every checkpoint verified and the chain digest matched.

        A record without a provenance index is still ``ok`` (replay
        restores it); a record whose index is *damaged* is not.
        """
        return (
            all(c.status == STATUS_OK for c in self.checkpoints)
            and self.chain_ok
            and self.provenance_ok is not False
        )

    @property
    def first_bad(self) -> Optional[int]:
        """Index of the first non-loadable checkpoint, or ``None``."""
        for c in self.checkpoints:
            if not c.loadable:
                return c.index
        return None

    @property
    def index_compression_ratio(self) -> float:
        """Raw index bytes over stored (compressed row-group) bytes."""
        if self.index_bytes <= 0:
            return 0.0
        return self.index_raw_bytes / self.index_bytes

    @property
    def valid_prefix_len(self) -> int:
        """Length of the longest loadable prefix (what salvage recovers)."""
        n = 0
        for c in self.checkpoints:
            if not c.loadable:
                break
            n += 1
        return n

    def summary(self) -> str:
        """One line per checkpoint plus the chain verdict."""
        lines = [
            f"{c.filename}: {c.status}" + (f" ({c.detail})" if c.detail else "")
            for c in self.checkpoints
        ]
        lines.append(f"chain digest: {'ok' if self.chain_ok else 'MISMATCH'}")
        if self.provenance_ok is None:
            lines.append("provenance index: absent")
        elif not self.provenance_ok:
            detail = (
                f" ({len(self.index_bad_groups)}/{self.index_groups} "
                f"row-groups damaged)"
                if self.index_bad_groups
                else ""
            )
            lines.append(f"provenance index: DAMAGED{detail}")
        else:
            ratio = self.index_compression_ratio
            groups_part = (
                f", {self.index_groups} row-groups" if self.index_groups else ""
            )
            detail = (
                f" ({self.index_bytes} B, {ratio:.1f}x vs raw 12 B/chunk"
                f"{groups_part})"
                if ratio
                else ""
            )
            lines.append(f"provenance index: ok{detail}")
        return "\n".join(lines)


def verify_record(directory: Union[str, Path]) -> RecordVerification:
    """Scan a record directory and report per-checkpoint integrity.

    Never raises for damage to a frame or the index (only for an unusable
    header or a damaged record log, which includes any pre-integrity
    format): every checkpoint is classified ``ok`` / ``corrupt`` /
    ``missing`` so callers see the full extent of the damage, not just
    the first problem.
    """
    path = Path(directory)
    header, log = _read_record(path)
    report = RecordVerification(
        directory=str(path), format_version=header["format_version"]
    )

    seen_digests: List[bytes] = []
    skipped_hash = False
    for i in range(log.count):
        blob_path = path / _PATTERN.format(i)
        name = blob_path.name
        # One open per frame: a file that vanishes after an existence
        # check could otherwise escape as a raw FileNotFoundError.
        try:
            with open(blob_path, "rb") as f:
                actual_size = os.fstat(f.fileno()).st_size
                # Size fast path: the log's digest cannot possibly match,
                # so the frame is classified without reading or hashing it.
                blob = f.read() if actual_size == log.frame_bytes[i] else None
        except FileNotFoundError:
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_MISSING, "file not found")
            )
            continue
        if blob is None:
            report.checkpoints.append(
                CheckpointStatus(
                    i,
                    name,
                    STATUS_CORRUPT,
                    f"file size {actual_size} != record log {log.frame_bytes[i]}",
                )
            )
            skipped_hash = True
            continue
        seen_digests.append(hashlib.sha256(blob).digest())
        if seen_digests[-1] != log.frame_sha[i]:
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_CORRUPT, "file digest mismatch")
            )
            continue
        try:
            diff = CheckpointDiff.from_bytes(blob)
        except SerializationError as exc:  # includes IntegrityError
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_CORRUPT, str(exc))
            )
            continue
        if diff.ckpt_id != i:
            report.checkpoints.append(
                CheckpointStatus(
                    i, name, STATUS_CORRUPT, f"holds checkpoint {diff.ckpt_id}"
                )
            )
            continue
        report.checkpoints.append(CheckpointStatus(i, name, STATUS_OK))

    complete = all(c.status != STATUS_MISSING for c in report.checkpoints)
    report.chain_ok = (
        complete
        and not skipped_hash
        and seen_digests == list(log.frame_sha)
    )

    # Per-row-group integrity, reported not raised: every group is
    # checked independently against its own digest and the log's, so the
    # report names exactly which groups are damaged — a checkpoint whose
    # keyframe span holds none of them is still restorable.
    if "index" not in header or not log.count:
        return report
    try:
        _first, records = _read_groups(path, header, log)
    except (StorageError, SerializationError):
        report.provenance_ok = False
        return report
    report.index_groups = len(records)
    report.index_bad_groups = [
        k
        for k, record in enumerate(records)
        if not _prov.group_intact(record, k, log.group_sha[k])
    ]
    report.provenance_ok = not report.index_bad_groups
    if report.provenance_ok:
        report.index_bytes = log.group_end(log.count - 1)
        report.index_raw_bytes = (
            log.count
            * ChunkSpec(header["data_len"], header["chunk_size"]).num_chunks
            * _prov.RAW_INDEX_BYTES_PER_CHUNK
        )
    return report
