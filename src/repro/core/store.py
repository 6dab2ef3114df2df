"""On-disk checkpoint record store.

Persists a diff chain as one file per checkpoint plus a small JSON
manifest — the shape a deployment would push down the Fig. 3 hierarchy.
The wire format is the versioned encoding of
:class:`~repro.core.diff.CheckpointDiff`, so records written here can be
read by any tool that speaks it.

Layout::

    <dir>/record.json            manifest: method, count, geometry, digests
    <dir>/ckpt-00000.rdif        CheckpointDiff.to_bytes() per checkpoint
    <dir>/ckpt-00001.rdif
    ...
    <dir>/provenance.rpix        RPIX v3 index: one row-group per checkpoint

The manifest (format v2) carries a per-checkpoint SHA-256 of each
``.rdif`` file and a manifest-level *chain digest* (SHA-256 over the
concatenated per-file digests), so swapping one valid frame for another
valid-but-wrong frame is detected even though both frames self-verify.
This is the only layout read: a pre-integrity record (manifest v1, a
digest-less manifest, v1 frames, an RPIX v1/v2 index) is rejected by
name, never loaded unverified.  See ``docs/FAULT_MODEL.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import IntegrityError, ReproError, SerializationError, StorageError
from .. import telemetry
from ..telemetry import events
from . import provenance as _prov
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
    "Provenance row-group bodies verified and decoded (one per row read)",
)

_MANIFEST = "record.json"
_PATTERN = "ckpt-{:05d}.rdif"
_INDEX_FILE = "provenance.rpix"
_FORMAT_VERSION = 2

#: Per-checkpoint statuses reported by :func:`verify_record`.
STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_MISSING = "missing"


def _file_digest(path: Path) -> str:
    with open(path, "rb") as f:
        if hasattr(hashlib, "file_digest"):  # Python >= 3.11: zero-copy path
            return hashlib.file_digest(f, "sha256").hexdigest()
        h = hashlib.sha256()
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
        return h.hexdigest()


def _chain_digest(digests: List[str]) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(bytes.fromhex(d))
    return h.hexdigest()


def _read_manifest(path: Path) -> dict:
    """Load and minimally validate a manifest, wrapping parse errors.

    A malformed manifest is a *storage* failure, not a programming error:
    raw ``json.JSONDecodeError`` / ``KeyError`` must never escape to
    callers.
    """
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"{path} holds no record manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"malformed record manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StorageError(
            f"malformed record manifest {manifest_path}: not a JSON object"
        )
    try:
        manifest["num_checkpoints"] = int(manifest["num_checkpoints"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"malformed record manifest {manifest_path}: bad num_checkpoints"
        ) from exc
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported record format {version!r}")
    per_frame = (manifest.get("digests"), manifest.get("frame_bytes"))
    if not isinstance(manifest.get("chain_digest"), str) or any(
        not isinstance(column, list) or len(column) != manifest["num_checkpoints"]
        for column in per_frame
    ):
        raise StorageError(
            f"malformed record manifest {manifest_path}: it must hold one "
            f"frame digest and size per checkpoint and a chain digest "
            f"(pre-integrity manifests are not supported)"
        )
    return manifest


@dataclass
class AppendReceipt:
    """What one :meth:`RecordWriter.append` actually put on disk."""

    ckpt_id: int
    #: Bytes of the new ``.rdif`` frame (the checkpoint itself).
    frame_bytes: int
    #: Provenance rows appended (0 when the record is unindexed).
    index_rows_appended: int
    #: Bytes appended to + rewritten in ``provenance.rpix``.
    index_bytes: int
    #: Bytes of the rewritten manifest.
    manifest_bytes: int

    @property
    def bytes_written(self) -> int:
        """Total bytes this append put on disk."""
        return self.frame_bytes + self.index_bytes + self.manifest_bytes


class RecordWriter:
    """Append-optimized handle on a record directory.

    ``open → append(diff) × N → close``; the record is durable and
    loadable after *every* append.  Each append writes only the new
    frame, one RPIX v3 row-group, the 60-byte index prologue, and the
    manifest — never the existing frames or index rows, so the cost of
    appending checkpoint N is O(rows in checkpoint N), not O(chain).

    Opening an existing record is the only O(chain) step: the manifest's
    cached per-frame digests seed the rolling chain digest (no frame is
    re-read or re-hashed, except a cheap sanity check of the last frame),
    and every row of the persisted index is decoded once into the
    :class:`~repro.core.provenance.ProvenanceBuilder`.  A record with
    *no* index (an unindexable chain) stays unindexed.

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
        self._digests: List[str] = []
        self._frame_sizes: List[int] = []
        self._chain = hashlib.sha256()
        self._data_len: Optional[int] = None
        self._chunk_size: Optional[int] = None
        self._builder: Optional[_prov.ProvenanceBuilder] = _prov.ProvenanceBuilder()
        self._group_chain = hashlib.sha256()
        self._index_end = 0  # byte offset past the last valid row-group

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Checkpoints the record currently holds."""
        return len(self._digests)

    @property
    def indexed(self) -> bool:
        """Whether the record carries a provenance index."""
        return self._builder is not None

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Mark the writer closed (every append was already durable)."""
        self._closed = True

    # ------------------------------------------------------------------
    def _open_existing(self) -> None:
        existing = _read_manifest(self.path)
        count = existing["num_checkpoints"]
        if count <= 0:
            return
        self._data_len = existing.get("data_len")
        self._chunk_size = existing.get("chunk_size")
        held_method = existing.get("method")
        if held_method:
            if self.method and count > 1 and held_method != self.method:
                raise StorageError(
                    f"{self.path} holds an incompatible record: "
                    f"method={held_method!r} on disk vs {self.method!r} "
                    f"being saved"
                )
            self._last_method = str(held_method)

        self._digests = [str(d) for d in existing["digests"]]
        # Torn-append sanity: the manifest is written last, so the one
        # frame that could disagree with it after a crash is the final
        # one.  One file hash, not a chain re-scan.
        last = self.path / _PATTERN.format(count - 1)
        if not last.exists() or _file_digest(last) != self._digests[-1]:
            raise IntegrityError(
                f"{last.name}: frame does not match the manifest "
                f"(damaged or torn record; run verify_record)",
                ckpt_id=count - 1,
                path=str(last),
            )
        for d in self._digests:
            self._chain.update(bytes.fromhex(d))

        self._frame_sizes = [int(s) for s in existing["frame_bytes"]]

        walk = _walk_index(self.path, existing)
        if walk is None:
            # Unindexed record (unindexable chain, or the index was
            # dropped): appends continue without an index.
            self._builder = None
            return
        self._builder.indexes = walk.all_rows()
        for g in walk.groups:
            self._group_chain.update(g.digest)
        self._index_end = walk.groups[-1].body_off + walk.groups[-1].body_len

    # ------------------------------------------------------------------
    def _drop_index(self) -> None:
        self._builder = None
        index_path = self.path / _INDEX_FILE
        if index_path.exists():
            index_path.unlink()
        self._index_end = 0

    def _append_index(self, diff: CheckpointDiff) -> int:
        """Extend the v3 index by *diff*'s row-group; returns the bytes
        written (0: the builder rejected the diff, the index is dropped)."""
        try:
            row = self._builder.append(diff)
        except ReproError:
            self._drop_index()
            return 0
        with telemetry.span("store.index.append_group", ckpt=row.ckpt_id) as span:
            record, digest = _prov.encode_v3_group(row)
            self._group_chain.update(digest)
            prologue = _prov.encode_v3_prologue(
                row.ckpt_id + 1, row.num_chunks, row.data_len, row.chunk_size
            )
            index_path = self.path / _INDEX_FILE
            if row.ckpt_id == 0:
                index_path.write_bytes(prologue + record)
                self._index_end = len(prologue)
            else:
                with open(index_path, "r+b") as f:
                    f.seek(self._index_end)
                    f.write(record)
                    f.truncate()
                    f.seek(0)
                    f.write(prologue)
            self._index_end += len(record)
            written = len(record) + len(prologue)
            span.set(bytes=written)
        return written

    # ------------------------------------------------------------------
    def append(self, diff: CheckpointDiff) -> AppendReceipt:
        """Durably append one checkpoint: frame + row-group + manifest."""
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
            digest = hashlib.sha256(blob).hexdigest()
            diff._frame_digest = digest
            (self.path / _PATTERN.format(diff.ckpt_id)).write_bytes(blob)
            _FRAMES_WRITTEN.inc()
            prior = self.count
            self._digests.append(digest)
            self._frame_sizes.append(len(blob))
            self._chain.update(bytes.fromhex(digest))
            if self._data_len is None:
                self._data_len = diff.data_len
                self._chunk_size = diff.chunk_size
            self._last_method = diff.method

            index_bytes = self._append_index(diff) if self.indexed else 0
            rows_appended = int(index_bytes > 0)
            manifest_bytes = self._write_manifest()
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

    def _write_manifest(self) -> int:
        manifest = {
            "format_version": _FORMAT_VERSION,
            "method": self.method or self._last_method,
            "num_checkpoints": self.count,
            "data_len": self._data_len,
            "chunk_size": self._chunk_size,
            "digests": list(self._digests),
            "frame_bytes": list(self._frame_sizes),
            "chain_digest": self._chain.hexdigest(),
        }
        if self._builder is not None and self._builder.indexes:
            manifest["provenance"] = {
                "file": _INDEX_FILE,
                "version": 3,
                "rows": len(self._builder.indexes),
                "chain_sha256": self._group_chain.hexdigest(),
            }
        text = json.dumps(manifest, indent=2)
        (self.path / _MANIFEST).write_text(text)
        return len(text)

    def reset(self) -> None:
        """Drop the record entirely (a crashed chain restarts at 0)."""
        for frame in self.path.glob("ckpt-*.rdif"):
            frame.unlink()
        for name in (_INDEX_FILE, _MANIFEST):
            target = self.path / name
            if target.exists():
                target.unlink()
        self._clear()


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
    index row-group, and a manifest, not a record rewrite.
    """
    if not diffs:
        raise StorageError("cannot save an empty record")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    manifest_path = path / _MANIFEST
    prefix = 0
    if manifest_path.exists():
        existing = _read_manifest(path)
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


def _load_one(path: Path, index: int, expected_digest: str) -> CheckpointDiff:
    """Load + fully verify one checkpoint frame; raises on any damage."""
    if not path.exists():
        raise StorageError(f"record is missing checkpoint file {path.name}")
    blob = path.read_bytes()
    _FRAMES_READ.inc()
    _FRAME_BYTES_READ.inc(len(blob))
    actual = hashlib.sha256(blob).hexdigest()
    if actual != expected_digest:
        raise IntegrityError(
            f"{path.name}: file digest mismatch "
            f"(manifest {expected_digest[:16]}…, file {actual[:16]}…)",
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
    manifest = _read_manifest(path)
    count = manifest["num_checkpoints"]
    digests = manifest["digests"]
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
    gets the full treatment (manifest digest + embedded digest).
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    count = manifest["num_checkpoints"]
    digests = manifest["digests"]
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
    manifest = _read_manifest(path)
    sizes = []
    for i in range(manifest["num_checkpoints"]):
        frame = path / _PATTERN.format(i)
        sizes.append(frame.stat().st_size if frame.exists() else 0)
    return sizes


def _index_path(path: Path, manifest: dict) -> Optional[Path]:
    """The file the manifest's provenance entry names (``None`` if unindexed)."""
    entry = manifest.get("provenance")
    if entry is None:
        return None
    try:
        return path / str(entry["file"])
    except (TypeError, KeyError) as exc:
        raise StorageError(
            f"malformed provenance entry in {path / _MANIFEST}"
        ) from exc


@dataclass
class _IndexWalk:
    """One structural pass over a record's ``provenance.rpix``.

    The single place the manifest's provenance entry is parsed, the blob
    read, its row-groups framed (:func:`~repro.core.provenance.scan_v3`,
    no bodies decoded) and the manifest's rolling ``chain_sha256`` over
    the stored group digests compared — shared by :func:`load_provenance`,
    :func:`verify_record` and a reopening :class:`RecordWriter`.
    """

    path: Path
    blob: bytes
    header: dict
    groups: List[_prov.RowGroup]
    chain_ok: bool

    def row(self, k: int) -> _prov.ProvenanceIndex:
        """Verify and decode row-group *k* alone: checkpoint *k*'s row."""
        if not self.chain_ok:
            raise IntegrityError(
                f"{self.path.name}: row-group chain digest does not match "
                f"the manifest",
                path=str(self.path),
            )
        if not 0 <= k < len(self.groups):
            raise StorageError(
                f"checkpoint {k} outside record index of {len(self.groups)}"
            )
        _INDEX_GROUPS_DECODED.inc()
        return _prov.decode_v3_group(self.blob, self.groups[k], self.header)

    def all_rows(self) -> List[_prov.ProvenanceIndex]:
        return [self.row(k) for k in range(len(self.groups))]


def _walk_index(path: Path, manifest: dict) -> Optional[_IndexWalk]:
    """Walk the record's index file; ``None`` when the record has none.

    Raises :class:`StorageError` for a manifest entry that is not the
    RPIX v3 form (``rows`` + ``chain_sha256`` — the whole-file ``sha256``
    entries of RPIX v1/v2 are not read) and :class:`IntegrityError` for a
    missing, structurally damaged or pre-v3 index file.  A chain-digest
    mismatch is *reported* (``chain_ok``), so :func:`verify_record` can
    still name the damaged groups.
    """
    index_path = _index_path(path, manifest)
    if index_path is None:
        return None
    entry = manifest["provenance"]
    try:
        rows = int(entry["rows"])
        expected_chain = str(entry["chain_sha256"])
    except (TypeError, KeyError, ValueError) as exc:
        raise StorageError(
            f"unsupported provenance entry in {path / _MANIFEST}: only "
            f"RPIX v3 row-group indexes (rows + chain_sha256) are read"
        ) from exc
    if not index_path.exists():
        raise IntegrityError(
            f"manifest names provenance index {index_path.name}, "
            f"which is missing",
            path=str(index_path),
        )
    blob = index_path.read_bytes()
    header, groups = _prov.scan_v3(blob, max_rows=rows)
    if not groups:
        raise IntegrityError(
            f"{index_path.name}: provenance index holds no row-groups",
            path=str(index_path),
        )
    actual_chain = hashlib.sha256(b"".join(g.digest for g in groups)).hexdigest()
    return _IndexWalk(
        path=index_path,
        blob=blob,
        header=header,
        groups=groups,
        chain_ok=actual_chain == expected_chain,
    )


def load_provenance(directory: Union[str, Path], ckpt: Optional[int] = None):
    """Load a record's persisted provenance index, if it has one.

    Returns checkpoint *ckpt*'s :class:`~repro.core.provenance.
    ProvenanceIndex` row — row-group *ckpt* alone is hashed and decoded,
    so a restore costs one row at any chain length and damage in any
    *other* group never blocks it — or, without *ckpt*, every row stacked
    into a :class:`~repro.core.provenance.ProvenanceTable`; ``None`` when
    the record has no index (the chain was not indexable at save time).
    The structural walk and the manifest's ``chain_sha256`` over the
    stored group digests always cover the whole file (no body decoding).
    A *present but damaged* index raises :class:`IntegrityError` —
    callers choose whether to fall back.
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    walk = _walk_index(path, manifest)
    if walk is None:
        return None
    if ckpt is None:
        return _prov.ProvenanceTable.from_rows(walk.all_rows())
    count, held_len = manifest["num_checkpoints"], manifest.get("data_len")
    indexed_len = walk.header["data_len"]
    if len(walk.groups) < count or held_len not in (None, indexed_len):
        raise IntegrityError(
            f"provenance index covers {len(walk.groups)} checkpoints of "
            f"{indexed_len} bytes, record holds {count} of {held_len}",
            path=str(walk.path),
        )
    return walk.row(ckpt)


def record_index_bytes(directory: Union[str, Path]) -> int:
    """On-disk byte size of the record's provenance index (0 if absent)."""
    path = Path(directory)
    index_path = _index_path(path, _read_manifest(path))
    if index_path is None or not index_path.exists():
        return 0
    return index_path.stat().st_size


def record_manifest(directory: Union[str, Path]) -> dict:
    """Read just the manifest of a stored record."""
    return _read_manifest(Path(directory))


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

    Never raises for damage inside the record (only for an unusable
    manifest, which includes any pre-integrity format): every checkpoint
    is classified ``ok`` / ``corrupt`` / ``missing`` so callers see the
    full extent of the damage, not just the first problem.
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    digests = manifest["digests"]
    report = RecordVerification(
        directory=str(path), format_version=manifest["format_version"]
    )

    frame_sizes = manifest["frame_bytes"]
    seen_digests: List[str] = []
    skipped_hash = False
    for i in range(manifest["num_checkpoints"]):
        blob_path = path / _PATTERN.format(i)
        name = blob_path.name
        if not blob_path.exists():
            report.checkpoints.append(
                CheckpointStatus(i, name, STATUS_MISSING, "file not found")
            )
            continue
        expected_size = int(frame_sizes[i])
        actual_size = blob_path.stat().st_size
        if actual_size != expected_size:
            # Size fast path: the manifest digest cannot possibly match,
            # so the frame is classified without reading or hashing it.
            report.checkpoints.append(
                CheckpointStatus(
                    i,
                    name,
                    STATUS_CORRUPT,
                    f"file size {actual_size} != manifest {expected_size}",
                )
            )
            skipped_hash = True
            continue
        blob = blob_path.read_bytes()
        seen_digests.append(hashlib.sha256(blob).hexdigest())
        if seen_digests[-1] != digests[i]:
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
        and _chain_digest(seen_digests) == manifest["chain_digest"]
    )

    # Per-row-group integrity, reported not raised: every group's digest
    # is checked independently, so the report names exactly which
    # checkpoints' rows are damaged — every other checkpoint is still
    # restorable, since a restore decodes only the row it names.
    try:
        walk = _walk_index(path, manifest)
    except (StorageError, SerializationError):
        report.provenance_ok = False
        return report
    if walk is not None:
        report.index_groups = len(walk.groups)
        report.index_bad_groups = [
            g.ckpt_id
            for g in walk.groups
            if not _prov.verify_v3_group(walk.blob, g)
        ]
        report.provenance_ok = walk.chain_ok and not report.index_bad_groups
        if report.provenance_ok:
            report.index_bytes = len(walk.blob)
            report.index_raw_bytes = (
                len(walk.groups)
                * walk.header["num_chunks"]
                * _prov.RAW_INDEX_BYTES_PER_CHUNK
            )
    return report
