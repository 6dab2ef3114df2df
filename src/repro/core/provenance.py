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
production reconstruction: an in-memory chain, a stored record, an
N-rank sharded restart and a node's crash restart all first
:func:`resolve_source` to one index row plus a ``payload_of(t)``
callable, then gather a chunk range.  A cold restart from disk only has
to *parse the frames the index names* (:func:`restore_record_indexed`),
because :class:`~repro.core.store.RecordWriter` persists one RPIX
row-group per checkpoint next to the record log with the same digest
discipline as the ``.rdif`` frames.

The composition relies on the engines' serialization invariant (§2.2):
shifted-duplicate references point at content stored as a first
occurrence, never at bytes another shifted duplicate of the same diff
wrote.  Every restore path in the test suite asserts bit-identity against
chain replay.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..telemetry import events
from ..errors import IntegrityError, RestoreError
from .chunking import ChunkSpec
from .diff import CheckpointDiff
from .restore import scrub_chain
from .serialize import chunk_map, diff_payload, group_by_source, place_chunks

#: ``src_ckpt`` value for chunks never written by any diff (implicit zeros).
ZERO_SOURCE = -1

_TABLE_MAGIC = b"RPIX"
#: The one on-disk layout: a fixed prologue (geometry header + header
#: digest, written once) followed by *row-group* records, one per
#: appended checkpoint, each carrying its own digest.  A group is a
#: **keyframe** — checkpoint *k*'s absolute row as three
#: cascaded-compressed planes (``src_ckpt``, and ``src_off`` split into
#: low/high u32 words: the rows are runny, so 12 B/chunk raw shrinks
#: toward 1–2 B/chunk) — or a **delta**: exactly the chunks where row *k*
#: differs from row *k−1*, raw, 16 B each.  Appending a checkpoint
#: appends one group record; nothing else in the file is touched.  The
#: writer (:class:`~repro.core.store.RecordWriter`) picks the kind by a
#: size rule, so a row is always one keyframe plus less than one
#: keyframe's bytes of deltas away.  Versions 1–3 are rejected by name.
_TABLE_VERSION = 4
_TABLE_HEADER = struct.Struct("<4sHHIQI")
# magic, version, reserved, num_chunks, data_len, chunk_size
_TABLE_DIGEST_BYTES = 32
_PLANE_LEN = struct.Struct("<Q")
#: Row-group record header: body length, checkpoint row, kind, SHA-256
#: over ``pack("<II", ckpt_id, kind) + body``.
_GROUP_HEADER = struct.Struct("<QII32s")
KEYFRAME = 1
DELTA = 2
#: One delta entry: u32 chunk id + i32 ``src_ckpt`` + i64 ``src_off``.
_DELTA_ENTRY_BYTES = 16
#: Fixed prologue: table header + SHA-256 of the header bytes.
PROLOGUE_BYTES = _TABLE_HEADER.size + _TABLE_DIGEST_BYTES
#: Uncompressed index bytes per chunk per checkpoint: i4 src_ckpt + i8 src_off.
RAW_INDEX_BYTES_PER_CHUNK = 12


def _pack_planes(src_ckpt: np.ndarray, src_off: np.ndarray) -> bytes:
    """Three length-prefixed cascaded-compressed planes over one row.

    ``src_off`` is split into low/high u32 words (rather than
    interleaving an i8 stream) so the delta pass sees the arithmetic
    progression directly and the high plane is almost entirely zero runs.
    """
    from ..compress.cascaded import CascadedCodec  # local: core ↔ compress

    codec = CascadedCodec()
    ckpt_plane = np.ascontiguousarray(src_ckpt, dtype="<i4").tobytes()
    off = np.ascontiguousarray(src_off, dtype=np.int64)
    lo_plane = (off & np.int64(0xFFFFFFFF)).astype("<u4").tobytes()
    hi_plane = (off >> np.int64(32)).astype("<u4").tobytes()
    parts = [codec.compress(p) for p in (ckpt_plane, lo_plane, hi_plane)]
    return b"".join(_PLANE_LEN.pack(len(p)) + p for p in parts)


def _unpack_planes(buf: bytes, n_chunks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Decode the three planes back into one row's ``(src_ckpt, src_off)``.

    Consumes all of *buf* — trailing bytes are damage.
    """
    from ..compress.cascaded import CascadedCodec  # local: core ↔ compress
    from ..errors import CompressionError

    codec = CascadedCodec()
    off = 0
    planes = []
    for name in ("src_ckpt", "src_off_lo", "src_off_hi"):
        if off + _PLANE_LEN.size > len(buf):
            raise IntegrityError(
                f"provenance index truncated before {name} plane"
            )
        (length,) = _PLANE_LEN.unpack_from(buf, off)
        off += _PLANE_LEN.size
        if off + length > len(buf):
            raise IntegrityError(
                f"provenance index {name} plane overruns the file"
            )
        try:
            raw = codec.decompress(buf[off : off + length])
        except CompressionError as exc:
            raise IntegrityError(
                f"provenance index {name} plane is damaged: {exc}"
            ) from exc
        if len(raw) != n_chunks * 4:
            raise IntegrityError(
                f"provenance index {name} plane holds {len(raw)} bytes, "
                f"expected {n_chunks * 4}"
            )
        planes.append(raw)
        off += length
    if off != len(buf):
        raise IntegrityError(
            f"provenance index has {len(buf) - off} trailing bytes"
        )
    src_ckpt = np.frombuffer(planes[0], dtype="<i4").copy()
    lo = np.frombuffer(planes[1], dtype="<u4").astype(np.int64)
    hi = np.frombuffer(planes[2], dtype="<u4").astype(np.int64)
    return src_ckpt, (hi << np.int64(32)) | lo


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
    On disk it is the RPIX v4 row-group file below (one group per row).
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
# RPIX v4: append-only keyframe / delta row-groups
# ----------------------------------------------------------------------
def encode_prologue(num_chunks: int, data_len: int, chunk_size: int) -> bytes:
    """The fixed-size file prologue: geometry header + its SHA-256."""
    header = _TABLE_HEADER.pack(
        _TABLE_MAGIC, _TABLE_VERSION, 0, num_chunks, data_len, chunk_size
    )
    return header + hashlib.sha256(header).digest()


def decode_prologue(blob: bytes) -> dict:
    """Check a file's prologue (magic, version, header digest) and return
    its geometry: ``num_chunks``, ``data_len``, ``chunk_size``."""
    if len(blob) < PROLOGUE_BYTES:
        raise IntegrityError(f"provenance index too short ({len(blob)} bytes)")
    magic, version, _reserved, n_chunks, data_len, chunk_size = (
        _TABLE_HEADER.unpack_from(blob, 0)
    )
    if magic != _TABLE_MAGIC:
        raise IntegrityError(f"bad provenance index magic {magic!r}")
    if version != _TABLE_VERSION:
        raise IntegrityError(
            f"unsupported provenance index version {version} "
            f"(expected v{_TABLE_VERSION})"
        )
    stored = blob[_TABLE_HEADER.size : PROLOGUE_BYTES]
    if hashlib.sha256(blob[: _TABLE_HEADER.size]).digest() != stored:
        raise IntegrityError("provenance index header digest mismatch")
    return {"num_chunks": n_chunks, "data_len": data_len, "chunk_size": chunk_size}


def changed_chunks(prev: ProvenanceIndex, row: ProvenanceIndex) -> np.ndarray:
    """Ascending ids of the chunks whose source differs between two rows."""
    return np.flatnonzero(
        (row.src_ckpt != prev.src_ckpt) | (row.src_off != prev.src_off)
    )


def delta_group_bytes(num_changed: int) -> int:
    """Record bytes of a delta group over *num_changed* chunks."""
    return _GROUP_HEADER.size + _DELTA_ENTRY_BYTES * num_changed


def _group_digest(ckpt_id: int, kind: int, body: bytes) -> bytes:
    return hashlib.sha256(struct.pack("<II", ckpt_id, kind) + body).digest()


def encode_group(
    row: ProvenanceIndex, changed: Optional[np.ndarray] = None
) -> Tuple[bytes, bytes]:
    """Encode checkpoint *row* as one row-group record.

    Without *changed* a keyframe (the absolute row, cascaded-packed);
    with it — :func:`changed_chunks` against row ``k-1`` — a delta: the
    changed chunks' ids, ``src_ckpt`` and ``src_off`` as three raw
    little-endian columns.  Returns ``(record_bytes, group_digest)``; the
    digest is also what the record log stores for the group.
    """
    if changed is None:
        kind = KEYFRAME
        body = _pack_planes(row.src_ckpt, row.src_off)
    else:
        kind = DELTA
        body = (
            changed.astype("<u4").tobytes()
            + row.src_ckpt[changed].astype("<i4").tobytes()
            + row.src_off[changed].astype("<i8").tobytes()
        )
    digest = _group_digest(row.ckpt_id, kind, body)
    return _GROUP_HEADER.pack(len(body), row.ckpt_id, kind, digest) + body, digest


def _open_group(record: bytes, ckpt_id: int, digest: bytes) -> Tuple[int, bytes]:
    """Frame and authenticate one group record: ``(kind, body)``.

    The record must be checkpoint *ckpt_id*'s whole group, and its bytes
    must hash to both the digest its own header stores and *digest*, the
    record log's copy.
    """
    if len(record) < _GROUP_HEADER.size:
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} is truncated "
            f"({len(record)} bytes)"
        )
    body_len, held_id, kind, stored = _GROUP_HEADER.unpack_from(record, 0)
    body = record[_GROUP_HEADER.size:]
    if kind not in (KEYFRAME, DELTA):
        raise IntegrityError(
            f"unsupported provenance index row-group kind {kind} at "
            f"checkpoint {ckpt_id}"
        )
    if held_id != ckpt_id or body_len != len(body):
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} is misframed: claims "
            f"checkpoint {held_id} and {body_len} body bytes, holds {len(body)}"
        )
    if _group_digest(ckpt_id, kind, body) != stored or stored != digest:
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} digest mismatch "
            f"(stored {stored.hex()[:16]}…)"
        )
    return kind, body


def group_intact(record: bytes, ckpt_id: int, digest: bytes) -> bool:
    """Whether a group record is whole and matches both of its digests."""
    try:
        _open_group(record, ckpt_id, digest)
    except IntegrityError:
        return False
    return True


def _apply_delta(
    body: bytes, prev: Optional[ProvenanceIndex]
) -> Tuple[np.ndarray, np.ndarray]:
    """Row *k* from row *k-1* and a delta body; *prev* is not modified."""
    if prev is None:
        raise IntegrityError("delta row-group has no row before it")
    n, rest = divmod(len(body), _DELTA_ENTRY_BYTES)
    if rest:
        raise IntegrityError(f"delta body of {len(body)} bytes is not whole entries")
    ids = np.frombuffer(body, dtype="<u4", count=n).astype(np.int64)
    if n and (np.any(np.diff(ids) <= 0) or int(ids[-1]) >= prev.num_chunks):
        raise IntegrityError(
            f"delta chunk ids are not ascending inside {prev.num_chunks} chunks"
        )
    src_ckpt, src_off = prev.src_ckpt.copy(), prev.src_off.copy()
    src_ckpt[ids] = np.frombuffer(body, dtype="<i4", count=n, offset=4 * n)
    src_off[ids] = np.frombuffer(body, dtype="<i8", count=n, offset=8 * n)
    return src_ckpt, src_off


def decode_group(
    record: bytes,
    ckpt_id: int,
    digest: bytes,
    spec: ChunkSpec,
    prev: Optional[ProvenanceIndex] = None,
) -> ProvenanceIndex:
    """Verify and decode checkpoint *ckpt_id*'s group record into its row.

    *digest* is the record log's copy of the group digest, *spec* the
    record's geometry; a delta folds onto *prev*, row ``ckpt_id - 1``.
    Nothing outside *record* is hashed or decoded.
    """
    kind, body = _open_group(record, ckpt_id, digest)
    try:
        if kind == KEYFRAME:
            src_ckpt, src_off = _unpack_planes(body, spec.num_chunks)
        else:
            src_ckpt, src_off = _apply_delta(body, prev)
    except IntegrityError as exc:
        raise IntegrityError(
            f"provenance index row-group {ckpt_id} is damaged: {exc}"
        ) from exc
    return ProvenanceIndex(
        ckpt_id=ckpt_id,
        data_len=spec.data_len,
        chunk_size=spec.chunk_size,
        src_ckpt=src_ckpt,
        src_off=src_off,
    )


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
class IndexedRestoreReport:
    """What one indexed restore actually touched."""

    target_ckpt: int
    data_len: int
    chain_len: int
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
    :func:`~repro.core.serialize.place_chunks` call, so a gather costs
    its bytes plus a few array operations per source.  *report* is any
    of the restore reports: the bytes gathered from each source
    accumulate in its ``payload_bytes_read``.

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
# Resolve a source, then gather: the one reconstruction path
# ----------------------------------------------------------------------
@dataclass
class RecordRestoreReport:
    """I/O accounting of one from-disk restore."""

    target_ckpt: int
    frames_total: int
    #: Frames actually read and parsed (index-referenced ones on the fast
    #: path; the whole record when no index is available or scrub is on).
    frames_parsed: int
    #: Total ``.rdif`` bytes the record holds on disk.
    record_bytes: int
    #: ``.rdif`` bytes actually read, plus :attr:`index_bytes`.
    record_bytes_read: int
    #: Record-log bytes + the index byte range (the target's keyframe
    #: through its own group) read on the fast path; 0 without the index.
    index_bytes: int
    used_index: bool
    payload_bytes_read: Dict[int, int] = field(default_factory=dict)


def resolve_source(
    source,
    upto: Optional[int] = None,
    payload_codec=None,
    scrub: bool = False,
):
    """Resolve ``(diff chain | record directory, upto)`` for a gather.

    Returns ``(index, payload_of, report)``: checkpoint *upto*'s
    :class:`ProvenanceIndex` row, the ``payload_of(t)`` callable
    :func:`materialize_index` pulls source payloads through, and the
    report the gather fills — an :class:`IndexedRestoreReport` for a
    chain, a :class:`RecordRestoreReport` for a record.  Every
    reconstruction except the :class:`~repro.core.restore.Restorer`
    replay oracle starts here.

    A chain's row is composed on the fly by a :class:`ProvenanceBuilder`
    over diffs ``0..upto``.  A record's row is decoded from the target's
    keyframe span alone — its last keyframe and the deltas up to its own
    group; damage in any group outside that span does not block the
    restore — and only the frames that row names are read and parsed; a
    record without an index, or ``scrub=True`` (which
    validates the whole chain and so needs every frame), loads the full
    record and resolves it as a chain.
    """
    from . import store  # local: store imports this module at its top

    is_record = isinstance(source, (str, os.PathLike))
    if is_record:
        manifest = store.record_manifest(source)
        count = manifest["num_checkpoints"]
        frame_sizes = manifest["frame_bytes"]
    else:
        count = len(source)
        if count == 0:
            raise RestoreError("cannot restore from an empty diff chain")
    if upto is None:
        upto = count - 1
    if not 0 <= upto < count:
        raise RestoreError(
            f"checkpoint {upto} outside "
            f"{'record' if is_record else 'chain'} of {count}"
        )

    index = None
    if is_record and not scrub:
        index = store.load_provenance(source, ckpt=upto)
    used_index = index is not None
    if used_index:
        parsed = [int(t) for t in index.referenced()]
        frames = store.load_record_frames(source, parsed)
        index_bytes = index.bytes_read
    else:
        frames = store.load_record(source) if is_record else source
        if scrub:
            scrub_chain(frames[: upto + 1], payload_codec)
        builder = ProvenanceBuilder()
        builder.extend(frames[: upto + 1])
        index = builder.indexes[upto]
        parsed, index_bytes = range(count), 0

    payloads: Dict[int, np.ndarray] = {}

    def payload_of(t: int) -> np.ndarray:
        cached = payloads.get(t)
        if cached is None:
            cached = payloads[t] = diff_payload(frames[t], payload_codec)
        return cached

    if is_record:
        report = RecordRestoreReport(
            target_ckpt=upto,
            frames_total=count,
            frames_parsed=len(parsed),
            record_bytes=int(sum(frame_sizes)),
            record_bytes_read=int(sum(frame_sizes[t] for t in parsed))
            + index_bytes,
            index_bytes=index_bytes,
            used_index=used_index,
        )
    else:
        report = IndexedRestoreReport(
            target_ckpt=upto, data_len=index.data_len, chain_len=count
        )
    return index, payload_of, report


def restore_indexed(
    source,
    upto: Optional[int] = None,
    payload_codec=None,
    scrub: bool = False,
    space=None,
):
    """Reconstruct checkpoint *upto* of a chain or record: resolve, gather.

    Bit-identical to :meth:`~repro.core.restore.Restorer.restore` on
    intact chains, but materialized as one batched gather per referenced
    source payload instead of replaying the chain.  Returns
    ``(buffer, report)`` with the report :func:`resolve_source` built.
    """
    index, payload_of, report = resolve_source(source, upto, payload_codec, scrub)
    on_disk = isinstance(report, RecordRestoreReport)
    path = "indexed_record" if on_disk and report.used_index else "indexed"
    chain_len = report.frames_total if on_disk else report.chain_len
    with telemetry.span(
        f"restore.{path}", space=space, upto=index.ckpt_id, chain_len=chain_len
    ) as span:
        out = materialize_index(index, payload_of, space=space, report=report)
        fields = {
            "sources": len(report.payload_bytes_read),
            "payload_bytes": sum(report.payload_bytes_read.values()),
        }
        if on_disk:
            fields["record_bytes_read"] = report.record_bytes_read
        span.set(**fields)
    events.emit(
        events.RESTORE,
        path=path,
        target_ckpt=index.ckpt_id,
        chain_len=chain_len,
        state_bytes=int(out.nbytes),
        **fields,
    )
    return out, report


def restore_record_indexed(
    directory,
    upto: Optional[int] = None,
    payload_codec=None,
    scrub: bool = False,
    space=None,
) -> Tuple[np.ndarray, RecordRestoreReport]:
    """Cold restart: :func:`restore_indexed` on a stored record directory,
    parsing only the frames its provenance index names.  Frame and index
    integrity checks apply whether or not the index is used.
    """
    return restore_indexed(directory, upto, payload_codec, scrub, space)
