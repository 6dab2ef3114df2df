"""Chunk-provenance index: restore without chain replay.

Chain replay reconstructs checkpoint *k* by applying every diff ``0..k``
in order — O(chain) buffer copies no matter what *k* actually references.
But the diff chain fully determines, for every chunk of checkpoint *k*,
*which stored payload byte range holds its bytes*: a chunk last written as
a first occurrence of checkpoint *t* lives in diff *t*'s payload; a chunk
covered by a shifted duplicate inherits the provenance of the chunk it
references; an untouched chunk keeps the previous checkpoint's entry.

:class:`ProvenanceBuilder` composes that mapping transitively as diffs
are appended — one vectorized pass per diff, one fancy-index composition
per *unique* referenced checkpoint — yielding a
:class:`ProvenanceIndex` per checkpoint: two flat arrays ``src_ckpt``
(int32, ``-1`` = never written, i.e. implicit zeros) and ``src_off``
(int64 byte offset into the *decompressed* payload of diff ``src_ckpt``).

Materializing checkpoint *k* is then one batched gather per referenced
source payload (:func:`materialize_index`) — typically a handful of
diffs out of an arbitrarily long chain.  That gather is the only
production reconstruction, and it always reads a record: a unit's own
restore (its record in RAM or on disk), a cold restore, an N-rank
sharded restart and a node's crash restart all first
:func:`resolve_source` the record to one index row plus a
``payload_of(t)`` callable, then gather a chunk range.  A restore only
has to *read the payloads of the frames the index names*
(:func:`restore_record_indexed`), because
:class:`~repro.record.RecordWriter` persists one RPIX row-group per
checkpoint next to the record log with the same digest discipline as the
``.rdif`` frames.  Only the rebase's rewrite and a replayed run's final
restore still walk an in-memory chain, state by state, through
:func:`gather_states`.

The composition relies on the engines' serialization invariant (§2.2):
shifted-duplicate references point at content stored as a first
occurrence, never at bytes another shifted duplicate of the same diff
wrote.  Every restore path in the test suite asserts bit-identity against
chain replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..telemetry import events
from ..errors import RestoreError
from ..record import RecordView
from . import store
from .chunking import ChunkSpec
from .diff import CheckpointDiff
from .serialize import chunk_map, diff_payload, group_by_source, place_chunks

#: ``src_ckpt`` value for chunks never written by any diff (implicit zeros).
ZERO_SOURCE = -1

#: Uncompressed index bytes per chunk per checkpoint: i4 src_ckpt + i8 src_off.
RAW_INDEX_BYTES_PER_CHUNK = 12


@dataclass
class ProvenanceIndex:
    """Resolved chunk sources of one checkpoint.

    ``src_ckpt[c]`` is the checkpoint whose payload holds chunk *c*'s
    bytes (:data:`ZERO_SOURCE` for implicit zeros); ``src_off[c]`` the
    byte offset of those bytes inside that payload (after payload-codec
    decompression, for hybrid tree diffs).
    """

    ckpt_id: int
    data_len: int
    chunk_size: int
    src_ckpt: np.ndarray  # int32, shape (num_chunks,)
    src_off: np.ndarray  # int64, shape (num_chunks,)
    #: Record-log + index-group bytes read to decode this row from a
    #: stored record (0 for a row composed in memory).
    bytes_read: int = 0

    @property
    def num_chunks(self) -> int:
        return int(self.src_ckpt.shape[0])

    def referenced(self) -> np.ndarray:
        """Checkpoints whose payloads this checkpoint's bytes live in."""
        uniq = np.unique(self.src_ckpt)
        return uniq[uniq >= 0].astype(np.int64)


class ProvenanceBuilder:
    """Incrementally composes :class:`ProvenanceIndex` rows over a chain.

    Append diffs in chain order (``append`` validates ordering and
    geometry); ``index_for(k)`` returns checkpoint *k*'s resolved index.
    The builder holds one int32+int64 pair per chunk per checkpoint —
    metadata-sized, never payload-sized.
    """

    def __init__(self) -> None:
        self.indexes: List[ProvenanceIndex] = []

    def extend(self, diffs: Sequence[CheckpointDiff]) -> None:
        for diff in diffs:
            self.append(diff)

    def index_for(self, ckpt_id: int) -> ProvenanceIndex:
        if not 0 <= ckpt_id < len(self.indexes):
            raise RestoreError(
                f"checkpoint {ckpt_id} outside indexed chain of {len(self.indexes)}"
            )
        return self.indexes[ckpt_id]

    # ------------------------------------------------------------------
    def append(self, diff: CheckpointDiff) -> ProvenanceIndex:
        """Compose the next checkpoint's index from *diff*.

        Row *k* is row *k-1* with *diff*'s :func:`chunk_map` applied: its
        first occurrences point into its own payload, its shifted
        duplicates copy the entries of the rows they reference.  A diff
        the map finds a problem in raises that problem as
        :class:`RestoreError` — the composition relies on every one of
        those checks, the §4 invariant included.
        """
        k = len(self.indexes)
        if diff.ckpt_id != k:
            raise RestoreError(
                f"diff chain out of order: position {k} holds "
                f"checkpoint {diff.ckpt_id}"
            )
        prev = self.indexes[-1] if self.indexes else None
        if prev is not None and (prev.data_len, prev.chunk_size) != (
            diff.data_len, diff.chunk_size
        ):
            raise RestoreError(f"checkpoint geometry changed mid-chain at {k}")
        cmap = chunk_map(diff)
        if cmap.problems:
            raise RestoreError(cmap.problems[0])
        if prev is None:
            src_ckpt = np.full(cmap.spec.num_chunks, ZERO_SOURCE, dtype=np.int32)
            src_off = np.zeros(cmap.spec.num_chunks, dtype=np.int64)
        else:
            src_ckpt, src_off = prev.src_ckpt.copy(), prev.src_off.copy()

        src_ckpt[cmap.first_chunks] = k
        src_off[cmap.first_chunks] = cmap.first_offs
        for t in np.unique(cmap.refs):
            sel = cmap.refs == t
            ref = self.indexes[t] if t < k else None
            dst, src = cmap.dst[sel], cmap.src[sel]
            src_ckpt[dst] = (src_ckpt if ref is None else ref.src_ckpt)[src]
            src_off[dst] = (src_off if ref is None else ref.src_off)[src]

        index = ProvenanceIndex(
            ckpt_id=k,
            data_len=diff.data_len,
            chunk_size=diff.chunk_size,
            src_ckpt=src_ckpt,
            src_off=src_off,
        )
        self.indexes.append(index)
        return index


@dataclass
class ProvenanceTable:
    """All checkpoints' provenance rows, stacked — the persisted form.

    Row *k* (``row(k)``) is checkpoint *k*'s :class:`ProvenanceIndex`.
    On disk it is the RPIX v4 row-group file of :mod:`repro.record.index`
    (one group per row).
    """

    data_len: int
    chunk_size: int
    src_ckpt: np.ndarray  # int32, shape (num_checkpoints, num_chunks)
    src_off: np.ndarray  # int64, shape (num_checkpoints, num_chunks)

    @property
    def num_checkpoints(self) -> int:
        return int(self.src_ckpt.shape[0])

    @property
    def num_chunks(self) -> int:
        return int(self.src_ckpt.shape[1])

    def row(self, ckpt_id: int) -> ProvenanceIndex:
        if not 0 <= ckpt_id < self.num_checkpoints:
            raise RestoreError(
                f"checkpoint {ckpt_id} outside indexed chain of "
                f"{self.num_checkpoints}"
            )
        return ProvenanceIndex(
            ckpt_id=ckpt_id,
            data_len=self.data_len,
            chunk_size=self.chunk_size,
            src_ckpt=self.src_ckpt[ckpt_id],
            src_off=self.src_off[ckpt_id],
        )

    @classmethod
    def from_rows(cls, rows: Sequence[ProvenanceIndex]) -> "ProvenanceTable":
        """Stack checkpoint rows ``0..n-1`` (composed or decoded) in order."""
        if not rows:
            raise RestoreError("cannot build a provenance table from no rows")
        return cls(
            data_len=rows[0].data_len,
            chunk_size=rows[0].chunk_size,
            src_ckpt=np.stack([r.src_ckpt for r in rows]),
            src_off=np.stack([r.src_off for r in rows]),
        )

    @classmethod
    def from_diffs(cls, diffs: Sequence[CheckpointDiff]) -> "ProvenanceTable":
        builder = ProvenanceBuilder()
        builder.extend(diffs)
        return cls.from_rows(builder.indexes)

    # ------------------------------------------------------------------
    @property
    def raw_index_bytes(self) -> int:
        """Uncompressed array bytes: 12 B/chunk/checkpoint."""
        return self.num_checkpoints * self.num_chunks * RAW_INDEX_BYTES_PER_CHUNK


# ----------------------------------------------------------------------
# Lineage analytics (the attribution plane reads these)
# ----------------------------------------------------------------------
def lineage_depths(table: ProvenanceTable) -> np.ndarray:
    """Restore-gather hop distance of every chunk of every checkpoint.

    Entry ``[k, c]`` is how many checkpoints back checkpoint *k* reaches
    for chunk *c*'s bytes (``k - src_ckpt``); self-sourced chunks and
    implicit zeros are depth 0.  Because the table is fully transitively
    resolved, this is exactly the age of the payload a restore-time
    gather touches — derivable on cold records without replay.
    """
    rows = np.arange(table.num_checkpoints, dtype=np.int64)[:, None]
    depth = rows - table.src_ckpt.astype(np.int64)
    depth[table.src_ckpt == ZERO_SOURCE] = 0
    return depth


def cell_reference_counts(table: ProvenanceTable) -> Tuple[np.ndarray, int]:
    """How many table entries resolve to each chunk's payload cell.

    A *cell* is one distinct ``(src_ckpt, src_off)`` pair — one stored
    chunk's bytes on disk.  Returns ``(counts, num_cells)``: ``counts``
    has the table's shape and gives, per entry, the total number of
    entries anywhere in the table sharing its cell (≥ 1; 0 for implicit
    zeros); ``num_cells`` is the number of distinct non-zero cells, i.e.
    the record's unique stored-chunk population.
    """
    keys = np.empty(
        table.src_ckpt.size, dtype=[("c", "<i8"), ("o", "<i8")]
    )
    keys["c"] = table.src_ckpt.astype(np.int64).ravel()
    keys["o"] = table.src_off.astype(np.int64).ravel()
    uniq, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    per_entry = counts[inverse].astype(np.int64)
    zero = keys["c"] == ZERO_SOURCE
    per_entry[zero] = 0
    num_cells = int(np.count_nonzero(uniq["c"] >= 0))
    return per_entry.reshape(table.src_ckpt.shape), num_cells


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------
@dataclass
class RestoreReport:
    """What one restore read and gathered from a record: its target's
    index span and only the frames that row names."""

    target_ckpt: int
    data_len: int
    #: Checkpoints the record holds.
    frames_total: int
    #: Frames parsed: the frames the target's row names.
    frames_parsed: int
    #: Total ``.rdif`` bytes the record holds.
    record_bytes: int = 0
    #: ``.rdif`` bytes actually read, plus :attr:`index_bytes`.
    record_bytes_read: int = 0
    #: Record-log bytes + the index byte range (the target's keyframe
    #: through its own group) read for the row.
    index_bytes: int = 0
    #: Every restore reads the row from the record's index.
    used_index: bool = True
    #: Payload bytes gathered per referenced source checkpoint.
    payload_bytes_read: Dict[int, int] = field(default_factory=dict)

    @property
    def frames_referenced(self) -> int:
        """How many diffs' payloads the target actually lives in."""
        return len(self.payload_bytes_read)

    @property
    def total_payload_bytes_read(self) -> int:
        return sum(self.payload_bytes_read.values())


def materialize_index(
    index: ProvenanceIndex,
    payload_of: Callable[[int], np.ndarray],
    out: Optional[np.ndarray] = None,
    space=None,
    report=None,
    chunk_lo: int = 0,
    chunk_hi: Optional[int] = None,
    zero: bool = True,
) -> np.ndarray:
    """Gather checkpoint bytes straight from source payloads.

    ``payload_of(t)`` must return diff *t*'s (decompressed) payload as a
    uint8 array; it is called once per checkpoint the index references,
    in ascending *t*.  The written chunks are sorted by source once and
    every payload is placed by one grouped
    :func:`~repro.core.serialize.place_chunks` call — one compiled call
    when the native object loaded — so a gather costs its bytes plus a
    few array operations per call.  *report* is a
    :class:`RestoreReport` or a shard's report: the bytes gathered from
    each source accumulate in its ``payload_bytes_read``.

    ``[chunk_lo, chunk_hi)`` restricts the gather to a chunk range — the
    sharding primitive: each simulated GPU of a fleet restore
    materializes its own contiguous range into the shared ``out`` buffer
    and uploads only that range.  ``zero=False`` skips the
    upfront zero fill (a sharded caller zeroes ``out`` once, not once
    per shard per window).
    """
    spec = ChunkSpec(index.data_len, index.chunk_size)
    cs = spec.chunk_size
    lo = chunk_lo
    hi = spec.num_chunks if chunk_hi is None else chunk_hi
    if not 0 <= lo <= hi <= spec.num_chunks:
        raise RestoreError(
            f"chunk range [{lo}, {hi}) outside checkpoint of "
            f"{spec.num_chunks} chunks"
        )
    if out is None:
        out = np.zeros(index.data_len, dtype=np.uint8)
    elif zero:
        out[lo * cs : min(hi * cs, index.data_len)] = 0

    # The written chunks grouped by source checkpoint (chunk order within
    # each group), then one scatter over every source payload at once.
    sub_ckpt = index.src_ckpt[lo:hi]
    written = np.flatnonzero(sub_ckpt >= 0)
    order, refs, ends = group_by_source(sub_ckpt[written])
    chunks = written[order] + lo
    refs = refs.tolist()
    payloads = [payload_of(t) for t in refs]
    try:
        placed = place_chunks(
            out, spec, chunks, index.src_off[chunks], payloads, ends
        )
    except RestoreError as exc:
        raise RestoreError(
            f"provenance index points outside checkpoint {refs[exc.group]}'s "
            f"payload"
        ) from exc
    items = np.diff(ends, prepend=0).tolist()
    for t, gathered, n in zip(refs, placed.tolist(), items):
        if report is not None:
            report.payload_bytes_read[t] = (
                report.payload_bytes_read.get(t, 0) + gathered
            )
        if space is not None:
            # One gather kernel per source payload: reads the gathered
            # bytes plus the index row slice once, writes them into place.
            space.launch(
                "restore.gather",
                items=n,
                bytes_read=gathered + (hi - lo) * RAW_INDEX_BYTES_PER_CHUNK,
                bytes_written=gathered,
            )
    if space is not None:
        extent = min(hi * cs, index.data_len) - lo * cs
        if extent > 0:
            space.transfer("H2D", extent)
    return out


# ----------------------------------------------------------------------
# Resolve a record, then gather: the one reconstruction path
# ----------------------------------------------------------------------
def resolve_source(record, upto: Optional[int] = None):
    """Resolve ``(record, upto)`` for a gather; *record* is a directory, a
    byte store or a :class:`~repro.record.RecordView`.

    Returns ``(index, payload_of, report)``: checkpoint *upto*'s
    :class:`ProvenanceIndex` row, the ``payload_of(t)`` callable
    :func:`materialize_index` pulls source payloads through, and the
    :class:`RestoreReport` the gather fills.  Every reconstruction except
    the :class:`~repro.core.restore.Restorer` replay oracle and
    :func:`gather_states` starts here.

    The row is decoded from the target's keyframe span alone — its last
    keyframe and the deltas up to its own group; damage in any group
    outside that span does not block the restore — and only the payloads
    of the frames that row names are read, each frame verified against
    the log and its header checked first.
    """
    view = RecordView.of(record)
    count = view.count
    if upto is None:
        upto = count - 1
    if not 0 <= upto < count:
        raise RestoreError(f"checkpoint {upto} outside record of {count}")
    index = store.load_provenance(view, ckpt=upto)
    parsed = [int(t) for t in index.referenced()]
    payload_of = store.load_record_frames(view, parsed).__getitem__
    frame_sizes = view.log.frame_bytes
    report = RestoreReport(
        target_ckpt=upto,
        data_len=index.data_len,
        frames_total=count,
        frames_parsed=len(parsed),
        record_bytes=int(sum(frame_sizes)),
        record_bytes_read=int(sum(frame_sizes[t] for t in parsed))
        + index.bytes_read,
        index_bytes=index.bytes_read,
    )
    return index, payload_of, report


def restore_indexed(record, upto: Optional[int] = None, space=None):
    """Reconstruct checkpoint *upto* of a record: resolve, gather.

    Bit-identical to :meth:`~repro.core.restore.Restorer.restore` over
    the record's chain, but materialized as one batched gather per
    referenced source payload instead of replaying the chain.  Returns
    ``(buffer, report)`` with the report :func:`resolve_source` built.
    """
    index, payload_of, report = resolve_source(record, upto)
    with telemetry.span(
        "restore.indexed_record",
        space=space,
        upto=index.ckpt_id,
        chain_len=report.frames_total,
    ) as span:
        out = materialize_index(index, payload_of, space=space, report=report)
        fields = {
            "sources": report.frames_referenced,
            "payload_bytes": report.total_payload_bytes_read,
            "record_bytes_read": report.record_bytes_read,
        }
        span.set(**fields)
    events.emit(
        events.RESTORE,
        path="indexed_record",
        target_ckpt=index.ckpt_id,
        chain_len=report.frames_total,
        state_bytes=int(out.nbytes),
        **fields,
    )
    return out, report


#: The name cold restarts (and the end-to-end benchmark) call it by.
restore_record_indexed = restore_indexed


def gather_states(
    diffs: Sequence[CheckpointDiff], start: int = 0
) -> Iterator[np.ndarray]:
    """Checkpoints ``start..end`` of an in-memory chain, one at a time.

    The chain is composed once — one :class:`ProvenanceBuilder`, one
    payload cache — and each state is gathered as soon as its row
    exists, so a caller that drops a state before taking the next holds
    the rows, the payloads and one state, never the whole history.  Only
    the rebase's rewrite and a replayed run's final restore reconstruct
    through it; unlike a restore it journals nothing.
    """
    payload_of = lru_cache(maxsize=None)(lambda t: diff_payload(diffs[t]))
    builder = ProvenanceBuilder()
    for diff in diffs:
        index = builder.append(diff)
        if index.ckpt_id >= start:
            yield materialize_index(index, payload_of)
