"""The stored-record entry points callers (and the end-to-end benchmark,
which patches several of them) reach :mod:`repro.record` through.  Each
takes a record — a directory, a byte store or an open
:class:`~repro.record.RecordView` — so an operation that needs several
opens one view and reads and seal-checks the header and log once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..errors import StorageError
from ..record import (
    STATUS_CORRUPT,
    STATUS_MISSING,
    STATUS_OK,
    AppendReceipt,
    ByteStore,
    CheckpointStatus,
    RecordVerification,
    RecordView,
    RecordWriter,
)
from . import provenance as _prov
from .diff import CheckpointDiff

_FRAMES_REUSED = telemetry.counter(
    "store.frames_reused",
    "Frames already on disk with matching digests, skipped by save_record",
)

#: A record directory, a byte store, or a view already opened on either.
Record = Union[str, Path, ByteStore, RecordView]


def record_manifest(record: Record) -> dict:
    """A stored record's manifest (:meth:`~repro.record.RecordView.manifest`)."""
    return RecordView.of(record).manifest()


def save_record(
    diffs: List[CheckpointDiff],
    directory: Union[str, Path, ByteStore],
    method: str = "",
) -> Union[Path, ByteStore]:
    """Write a diff chain to *directory* (created if missing) or to a byte
    store — ``save_record(diffs, MemoryStore())`` is a chain as a RAM
    record — and return where it now lives: the directory's path, or the
    store.

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
    writer = RecordWriter(directory, method=method)
    path = writer.path
    with telemetry.span(
        "store.save_record", frames=len(diffs), path=str(path)
    ) as span:
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
            # content digests make this O(chain) hash *comparisons*, not
            # O(chain) re-serialization.
            for i, held in enumerate(writer.view.log.frame_sha):
                if diffs[i].content_digest() != held:
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
        )
    return writer.store if writer.store is directory else path


def load_record(record: Record) -> List[CheckpointDiff]:
    """Read a diff chain previously written by :func:`save_record`.

    Any missing, corrupt, or mismatched checkpoint frame raises
    (:class:`StorageError` / :class:`IntegrityError`).  What a damaged
    record still restores is answered checkpoint by checkpoint by
    :func:`~repro.core.provenance.restore_record_indexed`, never by a
    partial load.
    """
    view = RecordView.of(record)
    with telemetry.span(
        "store.load_record", path=str(view.path), frames=view.count
    ) as span:
        diffs = list(view.frames())
        span.set(loaded=len(diffs))
    return diffs


def load_record_frames(
    record: Record, indices: Sequence[int]
) -> Dict[int, np.ndarray]:
    """The verified payloads of only the named checkpoint frames of a
    record, as uint8 arrays (:meth:`~repro.record.RecordView.payloads`):
    the selective read behind the indexed restore path.  Each frame is
    checked as :func:`load_record` checks it, but no whole diff is built."""
    return RecordView.of(record).payloads(indices)


def record_frame_sizes(record: Record) -> List[int]:
    """The bytes of each frame ``record.pack`` holds (its log size when
    whole, 0 when the pack ends before it)."""
    return RecordView.of(record).frame_sizes()


def load_provenance(record: Record, ckpt: Optional[int] = None):
    """Load a record's persisted provenance index.

    Returns checkpoint *ckpt*'s row (:meth:`~repro.record.RecordView.row`)
    or, without *ckpt*, every row stacked into a
    :class:`~repro.core.provenance.ProvenanceTable`; ``None`` when the
    record holds no checkpoint.  A damaged index raises
    :class:`IntegrityError`.
    """
    view = RecordView.of(record)
    if not view.count:
        return None
    if ckpt is None:
        return _prov.ProvenanceTable.from_rows(view.rows())
    return view.row(ckpt)


def record_index_bytes(record: Record) -> int:
    """Bytes of the record's provenance index the log seals
    (:meth:`~repro.record.RecordView.index_bytes`)."""
    return RecordView.of(record).index_bytes()


def verify_record(record: Record) -> RecordVerification:
    """Scan a record and report per-checkpoint integrity
    (:meth:`~repro.record.RecordView.verify`)."""
    return RecordView.of(record).verify()
