"""The one writer of a record: :class:`RecordWriter`."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .. import telemetry
from ..core import provenance as _prov
from ..core.diff import CheckpointDiff
from ..errors import IntegrityError, RestoreError, StorageError
from ..telemetry import events
from . import index
from .bytestore import ByteStore, as_store
from .frames import STATUS_OK, check_frame
from .log import FORMAT_VERSION, HEADER_FILE, INDEX_FILE, LOG_BODY, LOG_ENTRY
from .log import LOG_FILE, PACK_FILE, is_record
from .view import RecordView

_FRAMES_WRITTEN = telemetry.counter(
    "store.frames_written", "Checkpoint frames appended to record.pack"
)


@dataclass
class AppendReceipt:
    """What one :meth:`RecordWriter.append` actually put on disk."""

    ckpt_id: int
    #: Bytes of the frame appended to ``record.pack`` (the checkpoint itself).
    frame_bytes: int
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
    """Append-optimized handle on a record: a directory, or any byte
    store (:mod:`.bytestore`) — a unit without a record directory keeps
    its record in a :class:`~.bytestore.MemoryStore`.

    ``open → append(diff) × N → close``; the record is loadable after
    *every* append, and an append writes only what checkpoint N changed:
    frame (onto ``record.pack``), row-group, log entry, each a pure
    append — checkpoint 0 creates the record's four files, and no later
    append creates one.  The row-group is a delta (16 B per chunk whose
    source changed) iff the deltas since the last keyframe, this one
    included, stay smaller than that keyframe; otherwise a keyframe — so
    a restore reads at most twice one keyframe.

    Opening an existing record is the only O(chain) step: one
    :class:`RecordView` checks the log's seal, the last frame is checked
    against it at its pack offset (a torn append), whatever an interrupted
    append left past the last sealed entry — of the log, the index and
    the pack — is truncated, and the index is folded one row at a time
    into the :class:`~repro.core.provenance.ProvenanceBuilder`
    — every group verified, but only the newest row and the builder's
    first-store table kept, so the writer's memory follows the stored
    chunks, not the chain length.  :meth:`check` is the one
    compatibility check.  Every append composes its row before it opens
    a file: a diff the builder rejects — out of order, another geometry,
    a chunk map no reader can restore, or a shift of a chunk its
    checkpoint did not store — is refused, and the record is left as it
    was.
    """

    def __init__(self, directory: Union[str, Path, ByteStore], method: str = "") -> None:
        #: The byte store the record lives in.
        self.store = as_store(directory, create=True)
        self.method = method
        self._closed = False
        #: The record as this writer opened it (``None``: there was none).
        self.view: Optional[RecordView] = None
        self._header: Optional[dict] = None  # record.json as it stands on disk
        self._count = 0
        self._sealer = hashlib.sha256()  # over every log byte written
        self._builder = _prov.ProvenanceBuilder()
        self._index_end = 0  # byte offset past the last committed row-group
        self._keyframe_bytes = 0  # the last keyframe group ...
        self._delta_bytes = 0  # ... and the delta groups since it
        if is_record(self.store):
            self.view = RecordView(self.store)
            self._open_existing(self.view)

    # ------------------------------------------------------------------
    @property
    def path(self):
        """Where the record lives (a swap may move the store's files)."""
        return self.store.path

    @property
    def count(self) -> int:
        """Checkpoints the record currently holds."""
        return self._count

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Mark the writer closed (every append was already committed)."""
        self._closed = True

    # ------------------------------------------------------------------
    def _open_existing(self, view: RecordView) -> None:
        header, log = view.header, view.log
        if (header["log"], header["index"]) != (LOG_FILE, INDEX_FILE):
            # Appending under other names would orphan the files it names.
            raise StorageError(
                f"{self.path}/{HEADER_FILE} names record files this writer "
                f"does not write"
            )
        self._header = header
        count = log.count
        if count == 0:
            return

        # Torn-append sanity: the log entry is written last, so the one
        # frame that could disagree with it after a crash is the final
        # one.  One frame check, not a chain re-scan.
        if check_frame(self.store, log, count - 1)[0] != STATUS_OK:
            raise IntegrityError(
                f"{PACK_FILE} frame {count - 1}: frame does not match the "
                f"record log (damaged or torn record; run verify_record)",
                ckpt_id=count - 1,
                path=f"{self.path}/{PACK_FILE}",
            )
        self._count = count
        # Cut what an interrupted append left past the sealed log, so the
        # next append is a pure append and no unsealed frame outlives it.
        self.store.truncate(LOG_FILE, count * LOG_ENTRY.size)
        self.store.truncate(PACK_FILE, log.pack_bytes)
        self._sealer = view.sealer.copy()
        for row in view.fold():
            self._builder.push(row)
        self._index_end = log.group_end(count - 1)
        self.store.truncate(INDEX_FILE, self._index_end)
        keyframe = view.keyframe_of(count - 1)
        self._keyframe_bytes = log.group_len[keyframe]
        self._delta_bytes = sum(log.group_len[keyframe + 1 :])

    # ------------------------------------------------------------------
    def check(self, diff: CheckpointDiff) -> None:
        """Raise :class:`StorageError` unless the record can take *diff*
        next: the record's ``data_len`` and ``chunk_size``, and — once two
        checkpoints pin it — its method (one checkpoint does not: a chain
        opens with a full checkpoint whatever its method)."""
        if not self._count:
            return  # an empty record holds nothing to be compatible with
        held = self._header
        wanted = {"data_len": diff.data_len, "chunk_size": diff.chunk_size}
        if self._count > 1 and held.get("method"):
            wanted["method"] = self.method or diff.method
        for key, value in wanted.items():
            if held[key] != value:
                raise StorageError(
                    f"{self.path} holds an incompatible record: "
                    f"{key}={held[key]!r} on disk vs {value!r} being saved"
                )

    def _write_header(self, diff: CheckpointDiff) -> int:
        """Bring ``record.json`` up to date for an append of *diff*;
        returns the bytes written (0: it already says all of this)."""
        header = {
            "format_version": FORMAT_VERSION,
            "method": self.method or diff.method,
            "data_len": diff.data_len,
            "chunk_size": diff.chunk_size,
            "log": LOG_FILE,
            "index": INDEX_FILE,
        }
        if header == self._header:
            return 0
        text = json.dumps(header, indent=2).encode()
        self.store.replace(HEADER_FILE, text)
        self._header = header
        return len(text)

    def _append_index(self, row, prev):
        """Extend the index by *row*'s row-group (a delta is taken against
        *prev*, the row before it); returns the bytes appended and the
        group's ``(offset, length, kind, digest)`` log columns."""
        with telemetry.span("store.index.append_group", ckpt=row.ckpt_id) as span:
            changed = None
            if prev is not None:
                changed = index.changed_chunks(prev, row)
                size = index.delta_group_bytes(changed.size)
                if self._delta_bytes + size >= self._keyframe_bytes:
                    changed = None
            record, digest = index.encode_group(row, changed)
            if changed is None:
                kind = index.KEYFRAME
                self._keyframe_bytes, self._delta_bytes = len(record), 0
            else:
                kind = index.DELTA
                self._delta_bytes += len(record)
            # Checkpoint 0 starts the file afresh, prologue first.
            prologue = b""
            if row.ckpt_id == 0:
                prologue = index.encode_prologue(
                    row.num_chunks, row.data_len, row.chunk_size
                )
                self._index_end = 0
            if row.ckpt_id:
                self.store.append(INDEX_FILE, record)
            else:
                self.store.create(INDEX_FILE, prologue + record)
            offset = self._index_end + len(prologue)
            self._index_end = offset + len(record)
            span.set(bytes=len(prologue) + len(record), kind=kind)
        return len(prologue) + len(record), (offset, len(record), kind, digest)

    # ------------------------------------------------------------------
    def append(self, diff: CheckpointDiff) -> AppendReceipt:
        """Append one checkpoint: compose its row, then append the frame
        to the pack, the row-group to the index and the log entry that
        commits both."""
        if self._closed:
            raise StorageError(f"record writer for {self.path} is closed")
        self.check(diff)
        with telemetry.span(
            "store.append", ckpt=diff.ckpt_id, path=str(self.path)
        ) as span:
            # The row first: a diff no reader could restore writes nothing.
            prev = self._builder.last
            try:
                row = self._builder.append(diff)
            except RestoreError as exc:
                raise StorageError(
                    f"{self.path}: cannot append checkpoint {diff.ckpt_id}: {exc}"
                ) from exc
            blob = diff.to_bytes()
            prior = self._count
            # Checkpoint 0 starts the pack afresh.
            if prior:
                self.store.append(PACK_FILE, blob)
            else:
                self.store.create(PACK_FILE, blob)
            _FRAMES_WRITTEN.inc()

            index_bytes, group = self._append_index(row, prev)

            manifest_bytes = self._write_header(diff) + LOG_ENTRY.size
            body = LOG_BODY.pack(len(blob), diff.content_digest(), *group)
            self._sealer.update(body)
            seal = self._sealer.digest()
            self._sealer.update(seal)
            # The commit point.  Checkpoint 0 starts the log afresh.
            if prior:
                self.store.append(LOG_FILE, body + seal)
            else:
                self.store.create(LOG_FILE, body + seal)
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
            index_bytes=index_bytes,
            manifest_bytes=manifest_bytes,
        )
        events.emit(
            events.RECORD_APPENDED,
            path=str(self.path),
            ckpt_id=diff.ckpt_id,
            frames_written=1,
            frames_reused=prior,
            bytes_written=receipt.bytes_written,
            checkpoint_bytes=len(blob),
        )
        return receipt
