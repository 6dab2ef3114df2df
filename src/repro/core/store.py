"""The stored-record entry points callers (and the end-to-end benchmark,
which patches several of them) reach :mod:`repro.record` through.  Each
takes a record directory or an open :class:`~repro.record.RecordView`,
so an operation that needs several opens one view and reads and
seal-checks the header and log once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .. import telemetry
from ..errors import SerializationError, StorageError
from ..record import (
    STATUS_CORRUPT,
    STATUS_MISSING,
    STATUS_OK,
    AppendReceipt,
    CheckpointStatus,
    RecordVerification,
    RecordView,
    RecordWriter,
)
from ..telemetry import events
from . import provenance as _prov
from .diff import CheckpointDiff

_FRAMES_REUSED = telemetry.counter(
    "store.frames_reused",
    "Frames already on disk with matching digests, skipped by save_record",
)
_SALVAGE_EVENTS = telemetry.counter(
    "store.salvage_events", "Non-strict loads truncated at a damaged frame"
)

#: A record directory, or a view already opened on one.
Record = Union[str, Path, RecordView]


def record_manifest(record: Record) -> dict:
    """A stored record's manifest (:meth:`~repro.record.RecordView.manifest`)."""
    return RecordView.of(record).manifest()


def save_record(
    diffs: List[CheckpointDiff],
    directory: Union[str, Path],
    method: str = "",
) -> Path:
    """Write a diff chain to *directory* (created if missing).

    Refuses to overwrite a directory already holding a different record
    length unless it holds a strict prefix of this chain (append-style
    updates are fine); the writer refuses a chain of another geometry or
    method (:meth:`~repro.record.RecordWriter.check`), so a chain can
    never be silently mixed with an incompatible one.

    A thin wrapper over :class:`~repro.record.RecordWriter`: frames whose
    stored digests already match the chain are *reused*, never rewritten,
    and only the suffix past the stored prefix is appended — so appending
    one checkpoint through this entry point costs one frame, one index
    row-group, and a log entry, not a record rewrite.
    """
    if not diffs:
        raise StorageError("cannot save an empty record")
    path = Path(directory)
    with telemetry.span(
        "store.save_record", frames=len(diffs), path=str(path)
    ) as span:
        writer = RecordWriter(path, method=method)
        prefix = writer.count
        if prefix:
            if prefix > len(diffs):
                raise StorageError(
                    f"{path} already holds a longer record ({prefix} checkpoints)"
                )
            # The last diff names the chain's method (a tree chain opens
            # with a full checkpoint).
            writer.check(diffs[-1])
            # Strongest append guard: the overlapping prefix must be the
            # same bytes checkpoint for checkpoint.  The diffs' cached
            # frame digests make this O(chain) hash *comparisons*, not
            # O(chain) re-serialization.
            for i, held in enumerate(writer.view.log.frame_sha):
                if diffs[i].frame_digest() != held.hex():
                    raise StorageError(
                        f"{path} holds a different chain: checkpoint {i} "
                        f"does not match the stored record (append must "
                        f"extend, not rewrite)"
                    )
        _FRAMES_REUSED.inc(prefix)
        written = 0
        for diff in diffs[prefix:]:
            written += writer.append(diff).frame_bytes
        writer.close()
        span.set(
            bytes=written,
            frames_written=len(diffs) - prefix,
            frames_reused=prefix,
            indexed=writer.indexed,
        )
    return path


def load_record(record: Record, strict: bool = True) -> List[CheckpointDiff]:
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
    view = RecordView.of(record)
    path = str(view.path)
    diffs: List[CheckpointDiff] = []
    with telemetry.span(
        "store.load_record", path=path, frames=view.count, strict=strict
    ) as span:
        for i in range(view.count):
            try:
                diffs.append(view.frame(i))
            except (StorageError, SerializationError) as exc:
                if strict:
                    raise
                _SALVAGE_EVENTS.inc()
                salvage = dict(
                    path=path,
                    first_bad=i,
                    valid_prefix=len(diffs),
                    error=type(exc).__name__,
                )
                telemetry.instant("store.salvage", **salvage)
                events.emit(events.SALVAGE, **salvage)
                break
        span.set(loaded=len(diffs))
    return diffs


def load_record_frames(
    record: Record, indices: Sequence[int]
) -> Dict[int, CheckpointDiff]:
    """Load + verify only the named checkpoint frames of a record
    (:meth:`~repro.record.RecordView.frames`): the selective read behind
    the indexed restore path."""
    return RecordView.of(record).frames(indices)


def record_frame_sizes(record: Record) -> List[int]:
    """On-disk byte size of each ``.rdif`` frame (0 for missing files)."""
    return RecordView.of(record).frame_sizes()


def load_provenance(record: Record, ckpt: Optional[int] = None):
    """Load a record's persisted provenance index, if it has one.

    Returns checkpoint *ckpt*'s row (:meth:`~repro.record.RecordView.row`)
    or, without *ckpt*, every row stacked into a
    :class:`~repro.core.provenance.ProvenanceTable`; ``None`` when the
    record has no index (the chain was not indexable at save time).
    A *present but damaged* index raises :class:`IntegrityError` —
    callers choose whether to fall back.
    """
    view = RecordView.of(record)
    if not view.indexed or not view.count:
        return None
    if ckpt is None:
        return _prov.ProvenanceTable.from_rows(view.rows())
    return view.row(ckpt)


def record_index_bytes(record: Record) -> int:
    """On-disk byte size of the record's provenance index (0 if absent)."""
    return RecordView.of(record).index_bytes()


def verify_record(record: Record) -> RecordVerification:
    """Scan a record and report per-checkpoint integrity
    (:meth:`~repro.record.RecordView.verify`)."""
    return RecordView.of(record).verify()
