"""The record report, and the cross-record dedup census.

The paper's evaluation hangs on one number — deduplication ratio — but an
aggregate ratio explains nothing: *which* chunks earned it, where shifted
duplicates point, and how much more a shared cross-record pool would
recover all stay invisible.  This module builds that attribution plane:

* :func:`attribute_record` is the one per-record report (``repro
  inspect``): every checkpoint's logical bytes split into **first /
  shift / fixed / zero** classes (plus the metadata overhead alongside),
  with per-chunk reference counts and lineage depth, derived from the
  record's RPIX provenance index — so a cold record is attributable
  without replaying its chain — beside the facts of its verified frame
  (method, region-size histograms, shift targets) and the structural
  problems its :func:`~repro.core.serialize.chunk_map` finds.  Its
  *sweep* re-chunks the checkpoints, gathered from the same frames'
  payloads, at alternative chunk sizes to price the dedup-vs-metadata
  tradeoff (:func:`chunk_size_sweep`).
* :class:`ChunkCensus` streams N records' chunk digests into one
  content-addressed frequency table and reports achieved-vs-attainable
  dedup (intra-record vs shared-pool), the top duplicated chunk families,
  and a fleet dedup forecast with p50/p99 per-record contribution.

Each takes a record — a directory, a byte store or an open
:class:`~repro.record.RecordView` — and reads its stored index (never
re-composes it) once, and its frames, each frame once.

Imports of ``repro.core`` happen inside functions so the telemetry
package stays import-light and free of core↔telemetry cycles.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import events

#: Per-chunk class codes, ordered so ``CLASS_NAMES[code]`` names them.
CLASS_ZERO = 0
CLASS_FIRST = 1
CLASS_SHIFT = 2
CLASS_FIXED = 3
CLASS_NAMES = ("zero", "first", "shift", "fixed")

#: Byte classes an attribution decomposes logical bytes into (metadata is
#: reported alongside, not part of the logical-byte identity).
BYTE_CLASSES = ("first", "shift", "fixed", "zero")

_DIGEST_SIZE = 16


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


# ----------------------------------------------------------------------
# The record report
# ----------------------------------------------------------------------
def classify_chunks(table, ckpt_id: int) -> np.ndarray:
    """Class code (:data:`CLASS_NAMES`) of every chunk of checkpoint *k*.

    Derived from the resolved provenance table alone: a chunk is *zero*
    when it has no source, *fixed* when its cell matches the previous
    checkpoint's, *first* when it is the lowest-numbered chunk owning a
    freshly written payload cell, and *shift* when it duplicates another
    cell (an owner in this checkpoint, or any older checkpoint's cell).
    """
    from ..core.provenance import ZERO_SOURCE

    ck = table.src_ckpt[ckpt_id].astype(np.int64)
    off = table.src_off[ckpt_id].astype(np.int64)
    zero = ck == ZERO_SOURCE
    if ckpt_id == 0:
        changed = ~zero
    else:
        changed = (ck != table.src_ckpt[ckpt_id - 1]) | (
            off != table.src_off[ckpt_id - 1]
        )
        changed &= ~zero
    classes = np.full(ck.shape[0], CLASS_FIXED, dtype=np.int8)
    classes[zero] = CLASS_ZERO
    classes[changed & (ck < ckpt_id)] = CLASS_SHIFT
    self_src = np.nonzero(changed & (ck == ckpt_id))[0]
    if self_src.size:
        # The lowest chunk id per distinct payload offset owns the cell
        # (first occurrence); every other chunk duplicates it (shift).
        order = np.argsort(off[self_src], kind="stable")
        sorted_offs = off[self_src][order]
        is_owner = np.ones(self_src.size, dtype=bool)
        is_owner[1:] = sorted_offs[1:] != sorted_offs[:-1]
        classes[self_src] = CLASS_SHIFT
        classes[self_src[order][is_owner]] = CLASS_FIRST
    return classes


@dataclass
class CheckpointAttribution:
    """One checkpoint's row of the record report.

    The byte classes come from the stored index, and ``first + shift +
    fixed + zero == data_len`` exactly — they partition the logical bytes.
    The frame facts — the method that wrote it, its on-disk
    ``metadata_bytes`` / ``stored_bytes``, its region-size histograms and
    shift targets — come from the verified frame's
    :func:`~repro.core.serialize.chunk_map`.
    """

    ckpt_id: int
    method: str
    data_len: int
    chunk_size: int
    first_bytes: int
    shift_bytes: int
    fixed_bytes: int
    zero_bytes: int
    metadata_bytes: int
    stored_bytes: int
    #: Restore-gather hop distance over this checkpoint's chunks.
    max_lineage_depth: int
    mean_lineage_depth: float
    #: Whole-table reference counts of this checkpoint's payload cells.
    max_ref_count: int
    mean_ref_count: float
    #: Region-size histogram (chunks per region) of the frame's first and
    #: shift regions.
    first_region_chunks: Counter
    shift_region_chunks: Counter
    #: Referenced checkpoint → number of shifted regions pointing there.
    shift_targets: Counter

    @property
    def class_bytes(self) -> Dict[str, int]:
        return {
            "first": self.first_bytes,
            "shift": self.shift_bytes,
            "fixed": self.fixed_bytes,
            "zero": self.zero_bytes,
        }

    @property
    def changed_fraction(self) -> float:
        """Share of the buffer written by this checkpoint (first + shift)."""
        return (self.first_bytes + self.shift_bytes) / self.data_len

    @property
    def consolidation_factor(self) -> Optional[float]:
        """Chunks covered per region (higher = better compaction);
        ``None`` when the frame holds no region at all (nothing changed),
        so JSON consumers see ``null`` instead of a non-serializable inf."""
        regions = self.first_region_chunks + self.shift_region_chunks
        if not regions:
            return None
        return sum(k * v for k, v in regions.items()) / sum(regions.values())

    def as_dict(self) -> Dict[str, Any]:
        def histogram(counts: Counter) -> Dict[str, int]:
            return {str(k): v for k, v in sorted(counts.items())}

        return {
            "ckpt_id": self.ckpt_id,
            "method": self.method,
            "data_len": self.data_len,
            "first_bytes": self.first_bytes,
            "shift_bytes": self.shift_bytes,
            "fixed_bytes": self.fixed_bytes,
            "zero_bytes": self.zero_bytes,
            "metadata_bytes": self.metadata_bytes,
            "stored_bytes": self.stored_bytes,
            "changed_fraction": self.changed_fraction,
            "consolidation_factor": self.consolidation_factor,
            "first_region_chunks": histogram(self.first_region_chunks),
            "shift_region_chunks": histogram(self.shift_region_chunks),
            "shift_targets": histogram(self.shift_targets),
            "max_lineage_depth": self.max_lineage_depth,
            "mean_lineage_depth": round(self.mean_lineage_depth, 4),
            "max_ref_count": self.max_ref_count,
            "mean_ref_count": round(self.mean_ref_count, 4),
        }


@dataclass
class RecordAttribution:
    """The record report: per-checkpoint rows, aggregates, the structural
    verdict and the optional chunk-size sweep."""

    record: str
    method: Optional[str]
    data_len: int
    chunk_size: int
    checkpoints: List[CheckpointAttribution]
    #: Distinct payload cells the index references (the record's unique
    #: stored-chunk population).
    unique_cells: int
    #: Logical chunk references per unique cell (≥ 1; intra-record dedup).
    sharing_factor: float
    #: Lineage-depth histogram over every chunk of every checkpoint.
    depth_histogram: Counter = field(default_factory=Counter)
    #: Every structural fault the frames' chunk maps found (empty = sound).
    problems: List[str] = field(default_factory=list)
    #: The priced chunk sizes, when a sweep was asked for.
    sweep: List[SweepPoint] = field(default_factory=list)

    @property
    def chain_ok(self) -> bool:
        return not self.problems

    @property
    def num_checkpoints(self) -> int:
        return len(self.checkpoints)

    @property
    def logical_bytes(self) -> int:
        return sum(c.data_len for c in self.checkpoints)

    @property
    def stored_bytes(self) -> int:
        return sum(c.stored_bytes for c in self.checkpoints)

    @property
    def totals(self) -> Dict[str, int]:
        out = {name: 0 for name in BYTE_CLASSES}
        out["metadata"] = 0
        for c in self.checkpoints:
            for name, nbytes in c.class_bytes.items():
                out[name] += nbytes
            out["metadata"] += c.metadata_bytes
        return out

    @property
    def achieved_ratio(self) -> Optional[float]:
        """Logical bytes per stored byte (None without stored sizes)."""
        return self.logical_bytes / self.stored_bytes if self.stored_bytes else None

    @property
    def max_lineage_depth(self) -> int:
        return max((c.max_lineage_depth for c in self.checkpoints), default=0)

    def as_dict(self) -> Dict[str, Any]:
        achieved = self.achieved_ratio
        doc = {
            "record": self.record,
            "method": self.method,
            "num_checkpoints": self.num_checkpoints,
            "data_len": self.data_len,
            "chunk_size": self.chunk_size,
            "logical_bytes": self.logical_bytes,
            "stored_bytes": self.stored_bytes,
            "achieved_ratio": None if achieved is None else round(achieved, 4),
            "unique_cells": self.unique_cells,
            "sharing_factor": round(self.sharing_factor, 4),
            "max_lineage_depth": self.max_lineage_depth,
            "totals": self.totals,
            "depth_histogram": {
                str(k): v for k, v in sorted(self.depth_histogram.items())
            },
            "checkpoints": [c.as_dict() for c in self.checkpoints],
            "problems": self.problems,
            "chain_ok": self.chain_ok,
        }
        if self.sweep:
            doc["sweep"] = [p.as_dict() for p in self.sweep]
        return doc

    def summary(self) -> str:
        """Human-readable per-checkpoint table."""
        lines = [
            f"record {self.record}: {self.num_checkpoints} checkpoints × "
            f"{self.data_len:,d} B (chunk {self.chunk_size} B, "
            f"method {self.method or '?'})",
            f"{'ckpt':>4s} {'method':<6s} {'first%':>7s} {'shift%':>7s} "
            f"{'fixed%':>7s} {'zero%':>6s} {'regions':>7s} {'consol':>7s} "
            f"{'meta':>8s} {'depth':>5s} {'refs':>5s} {'stored':>10s}",
        ]
        for c in self.checkpoints:
            regions = sum((c.first_region_chunks + c.shift_region_chunks).values())
            consol = c.consolidation_factor
            lines.append(
                f"{c.ckpt_id:>4d} {c.method:<6s} "
                f"{100 * c.first_bytes / c.data_len:>6.1f}% "
                f"{100 * c.shift_bytes / c.data_len:>6.1f}% "
                f"{100 * c.fixed_bytes / c.data_len:>6.1f}% "
                f"{100 * c.zero_bytes / c.data_len:>5.1f}% "
                f"{regions:>7d} "
                f"{'—' if consol is None else f'{consol:.2f}':>7s} "
                f"{c.metadata_bytes:>8,d} "
                f"{c.max_lineage_depth:>5d} "
                f"{c.max_ref_count:>5d} "
                f"{c.stored_bytes:>10,d}"
            )
        achieved = self.achieved_ratio
        lines.append(
            f"unique cells {self.unique_cells:,d}, sharing ×"
            f"{self.sharing_factor:.2f}, dedup "
            + ("n/a" if achieved is None else f"×{achieved:.2f}")
        )
        return "\n".join(lines)


def _indexed(source, name: Optional[str]):
    """A record's ``(view, table, name)``: the view opened on it, its
    stored RPIX index, and *name*, defaulting to the record's directory
    name."""
    import os

    from ..core.store import load_provenance
    from ..errors import StorageError
    from ..record import RecordView

    view = RecordView.of(source)
    table = load_provenance(view)
    if table is None:
        raise StorageError(f"{view.path} holds no checkpoint to attribute")
    if name is None:
        name = os.path.basename(os.path.normpath(str(view.path)))
    return view, table, name


def attribute_record(
    source,
    record: Optional[str] = None,
    emit: bool = True,
    sweep: Sequence[int] = (),
) -> RecordAttribution:
    """The record report of a record — a directory, a byte store or a
    view: the stored index decoded once, each frame read and verified once.

    *sweep* also prices those chunk sizes over the checkpoints gathered
    from the same frames' payloads.  *record* names the report (default:
    the record's directory name).  Any damage a read meets raises; the
    frames' structural problems are reported, not raised.
    """
    from ..core.chunking import ChunkSpec
    from ..core.provenance import cell_reference_counts, lineage_depths
    from ..core.serialize import chunk_map, diff_payload

    view, table, name = _indexed(source, record)
    geometry = (table.data_len, table.chunk_size)
    lengths = ChunkSpec(*geometry).lengths()
    cs = table.chunk_size
    depths = lineage_depths(table)
    refcounts, unique_cells = cell_reference_counts(table)

    checkpoints: List[CheckpointAttribution] = []
    depth_histogram: Counter = Counter()
    problems: List[str] = []
    payloads: List[np.ndarray] = []
    for k in range(table.num_checkpoints):
        frame = view.frame(k)
        cmap = chunk_map(frame)
        if (frame.data_len, frame.chunk_size) != geometry:
            problems.append(f"ckpt {k}: geometry changed mid-chain")
        problems.extend(cmap.problems)
        if sweep:
            payloads.append(diff_payload(frame))
        classes = classify_chunks(table, k)
        class_bytes = [
            int(lengths[classes == code].sum()) for code in range(len(CLASS_NAMES))
        ]
        row_depths = depths[k]
        row_refs = refcounts[k]
        nonzero = row_refs > 0
        checkpoints.append(
            CheckpointAttribution(
                ckpt_id=k,
                method=frame.method,
                data_len=table.data_len,
                chunk_size=table.chunk_size,
                first_bytes=class_bytes[CLASS_FIRST],
                shift_bytes=class_bytes[CLASS_SHIFT],
                fixed_bytes=class_bytes[CLASS_FIXED],
                zero_bytes=class_bytes[CLASS_ZERO],
                metadata_bytes=frame.metadata_bytes,
                stored_bytes=frame.serialized_size,
                max_lineage_depth=int(row_depths.max(initial=0)),
                mean_lineage_depth=float(row_depths.mean()) if row_depths.size else 0.0,
                max_ref_count=int(row_refs.max(initial=0)),
                mean_ref_count=(
                    float(row_refs[nonzero].mean()) if nonzero.any() else 0.0
                ),
                first_region_chunks=_regions(cmap.first_start, cmap.first_end, cs),
                shift_region_chunks=_regions(cmap.shift_start, cmap.shift_end, cs),
                shift_targets=Counter(cmap.shift_ckpt.tolist()),
            )
        )
        values, counts = np.unique(row_depths, return_counts=True)
        for v, n in zip(values, counts):
            depth_histogram[int(v)] += int(n)

    total_refs = int((refcounts > 0).sum())
    attribution = RecordAttribution(
        record=name,
        method=view.header.get("method") or None,
        data_len=table.data_len,
        chunk_size=table.chunk_size,
        checkpoints=checkpoints,
        unique_cells=unique_cells,
        sharing_factor=total_refs / unique_cells if unique_cells else 0.0,
        depth_histogram=depth_histogram,
        problems=problems,
        sweep=_sweep(table, payloads.__getitem__, sweep) if sweep else [],
    )
    if emit:
        totals = attribution.totals
        events.emit(
            events.ATTRIBUTION_SUMMARY,
            scope="record",
            record=name,
            method=attribution.method,
            num_checkpoints=attribution.num_checkpoints,
            data_len=table.data_len,
            chunk_size=table.chunk_size,
            logical_bytes=attribution.logical_bytes,
            stored_bytes=attribution.stored_bytes,
            first_bytes=totals["first"],
            shift_bytes=totals["shift"],
            fixed_bytes=totals["fixed"],
            zero_bytes=totals["zero"],
            metadata_bytes=totals["metadata"],
            unique_cells=unique_cells,
            sharing_factor=attribution.sharing_factor,
            max_lineage_depth=attribution.max_lineage_depth,
        )
    return attribution


def _regions(start: np.ndarray, end: np.ndarray, chunk_size: int) -> Counter:
    """Chunks-per-region histogram of regions ``[start, end)`` (bytes)."""
    return Counter((-(-(end - start) // chunk_size)).tolist())


# ----------------------------------------------------------------------
# Cross-record census
# ----------------------------------------------------------------------
@dataclass
class CensusRecord:
    """One record's row in the census."""

    name: str
    chunk_size: int
    num_checkpoints: int
    logical_bytes: int
    stored_bytes: int
    unique_chunks: int
    unique_bytes: int

    @property
    def intra_ratio(self) -> float:
        """Attainable dedup keeping the record to itself."""
        return self.logical_bytes / self.unique_bytes if self.unique_bytes else 0.0

    @property
    def achieved_ratio(self) -> Optional[float]:
        return self.logical_bytes / self.stored_bytes if self.stored_bytes else None


@dataclass
class CensusReport:
    """Fleet-wide census results."""

    records: List[Dict[str, Any]]
    num_records: int
    total_logical_bytes: int
    total_stored_bytes: int
    pool_unique_chunks: int
    pool_unique_bytes: int
    #: Attainable fleet dedup with one shared pool.
    pool_forecast_ratio: float
    #: Best attainable dedup any single record reaches on its own.
    best_intra_ratio: float
    #: p50/p99 of the per-record pooled ratios (shared bytes charged
    #: evenly across the records containing them).
    record_pool_ratio_p50: float
    record_pool_ratio_p99: float
    top_families: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "num_records": self.num_records,
            "total_logical_bytes": self.total_logical_bytes,
            "total_stored_bytes": self.total_stored_bytes,
            "pool_unique_chunks": self.pool_unique_chunks,
            "pool_unique_bytes": self.pool_unique_bytes,
            "pool_forecast_ratio": round(self.pool_forecast_ratio, 4),
            "best_intra_ratio": round(self.best_intra_ratio, 4),
            "record_pool_ratio_p50": round(self.record_pool_ratio_p50, 4),
            "record_pool_ratio_p99": round(self.record_pool_ratio_p99, 4),
            "records": self.records,
            "top_families": self.top_families,
        }

    def summary(self) -> str:
        lines = [
            f"census: {self.num_records} records, "
            f"{self.total_logical_bytes:,d} logical B, pool of "
            f"{self.pool_unique_chunks:,d} unique chunks "
            f"({self.pool_unique_bytes:,d} B)",
            f"shared-pool forecast ×{self.pool_forecast_ratio:.2f} "
            f"(best single record ×{self.best_intra_ratio:.2f}; per-record "
            f"p50 ×{self.record_pool_ratio_p50:.2f}, "
            f"p99 ×{self.record_pool_ratio_p99:.2f})",
            f"{'record':<24s} {'ckpts':>5s} {'intra':>7s} {'pooled':>7s} "
            f"{'xdup%':>6s} {'unique':>12s}",
        ]
        for row in self.records:
            lines.append(
                f"{row['name']:<24s} {row['num_checkpoints']:>5d} "
                f"×{row['intra_ratio']:>5.2f} ×{row['pool_ratio']:>5.2f} "
                f"{100 * row['cross_duplicate_share']:>5.1f}% "
                f"{row['unique_bytes']:>12,d}"
            )
        if self.top_families:
            lines.append("top duplicated chunk families:")
            for fam in self.top_families:
                lines.append(
                    f"  {fam['digest']}… ×{fam['refs']} refs across "
                    f"{fam['records']} record(s), {fam['chunk_bytes']} B/chunk"
                )
        return "\n".join(lines)


class ChunkCensus:
    """Content-addressed chunk frequency table over many records.

    Records stream in one at a time (:meth:`add_record`); each
    contributes the digests of its *unique payload cells* — enumerated
    from the RPIX index, sliced straight out of stored payloads, never
    replayed — weighted by how many logical chunk slots reference them.
    :meth:`report` then prices a shared cross-record pool against
    per-record dedup.
    """

    def __init__(self) -> None:
        #: digest → chunk byte length.
        self._chunk_bytes: Dict[bytes, int] = {}
        #: digest → logical references across the whole fleet.
        self._refs: Counter = Counter()
        #: digest → record names containing it.
        self._owners: Dict[bytes, set] = {}
        #: record name → digest → logical references within the record.
        self._record_refs: Dict[str, Dict[bytes, int]] = {}
        self.records: List[CensusRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def add_record(self, source, name: Optional[str] = None) -> CensusRecord:
        """Ingest a record — a directory, a byte store or a view — from its
        stored index, payloads sliced cold, each frame read once."""
        from functools import lru_cache

        from ..core.store import load_record_frames

        view, table, label = _indexed(source, name)
        stored = int(sum(view.frame_sizes()))
        # Each frame's payload read once, when first asked for.
        payload_of = lru_cache(maxsize=None)(
            lambda t: load_record_frames(view, [t])[t]
        )
        return self._ingest(label, table, payload_of, stored)

    def _ingest(
        self,
        name: str,
        table,
        payload_of: Callable[[int], np.ndarray],
        stored_bytes: int,
    ) -> CensusRecord:
        from ..core.chunking import ChunkSpec
        from ..core.provenance import ZERO_SOURCE

        if name in self._record_refs:
            raise ValueError(f"census already holds a record named {name!r}")
        spec = ChunkSpec(table.data_len, table.chunk_size)
        lengths = spec.lengths()
        keys = np.empty(
            table.src_ckpt.size, dtype=[("c", "<i8"), ("o", "<i8"), ("l", "<i8")]
        )
        keys["c"] = table.src_ckpt.astype(np.int64).ravel()
        keys["o"] = table.src_off.astype(np.int64).ravel()
        keys["l"] = np.broadcast_to(lengths, table.src_ckpt.shape).ravel()
        uniq, counts = np.unique(keys, return_counts=True)

        rec_refs: Dict[bytes, int] = {}
        for i in range(uniq.shape[0]):
            src = int(uniq["c"][i])
            length = int(uniq["l"][i])
            if src == ZERO_SOURCE:
                data = bytes(length)
            else:
                off = int(uniq["o"][i])
                data = payload_of(src)[off : off + length].tobytes()
            digest = _digest(data)
            self._chunk_bytes.setdefault(digest, length)
            self._refs[digest] += int(counts[i])
            self._owners.setdefault(digest, set()).add(name)
            rec_refs[digest] = rec_refs.get(digest, 0) + int(counts[i])

        self._record_refs[name] = rec_refs
        record = CensusRecord(
            name=name,
            chunk_size=table.chunk_size,
            num_checkpoints=table.num_checkpoints,
            logical_bytes=table.num_checkpoints * table.data_len,
            stored_bytes=stored_bytes,
            unique_chunks=len(rec_refs),
            unique_bytes=sum(self._chunk_bytes[d] for d in rec_refs),
        )
        self.records.append(record)
        return record

    def report(self, top: int = 10, emit: bool = True) -> CensusReport:
        """Price the shared pool against per-record dedup."""
        if not self.records:
            raise ValueError("census holds no records")
        pool_unique_bytes = sum(self._chunk_bytes.values())
        total_logical = sum(r.logical_bytes for r in self.records)
        total_stored = sum(r.stored_bytes for r in self.records)
        pool_forecast = total_logical / pool_unique_bytes

        rows: List[Dict[str, Any]] = []
        pool_ratios: List[float] = []
        for rec in self.records:
            refs = self._record_refs[rec.name]
            shared_bytes = sum(
                self._chunk_bytes[d] for d in refs if len(self._owners[d]) > 1
            )
            # Shared chunks charged evenly across their owners, so the
            # per-record charges sum back to the pool's unique bytes.
            charged = sum(
                self._chunk_bytes[d] / len(self._owners[d]) for d in refs
            )
            pool_ratio = rec.logical_bytes / charged if charged else 0.0
            pool_ratios.append(pool_ratio)
            achieved = rec.achieved_ratio
            rows.append(
                {
                    "name": rec.name,
                    "chunk_size": rec.chunk_size,
                    "num_checkpoints": rec.num_checkpoints,
                    "logical_bytes": rec.logical_bytes,
                    "stored_bytes": rec.stored_bytes,
                    "unique_chunks": rec.unique_chunks,
                    "unique_bytes": rec.unique_bytes,
                    "intra_ratio": round(rec.intra_ratio, 4),
                    "achieved_ratio": (
                        None if achieved is None else round(achieved, 4)
                    ),
                    "pool_ratio": round(pool_ratio, 4),
                    "shared_bytes": shared_bytes,
                    "cross_duplicate_share": round(
                        shared_bytes / rec.unique_bytes if rec.unique_bytes else 0.0,
                        4,
                    ),
                }
            )

        families = [
            {
                "digest": digest.hex()[:12],
                "refs": int(refs),
                "records": len(self._owners[digest]),
                "chunk_bytes": self._chunk_bytes[digest],
            }
            for digest, refs in self._refs.most_common(top)
        ]
        report = CensusReport(
            records=rows,
            num_records=len(self.records),
            total_logical_bytes=total_logical,
            total_stored_bytes=total_stored,
            pool_unique_chunks=len(self._chunk_bytes),
            pool_unique_bytes=pool_unique_bytes,
            pool_forecast_ratio=pool_forecast,
            best_intra_ratio=max(r.intra_ratio for r in self.records),
            record_pool_ratio_p50=float(np.percentile(pool_ratios, 50)),
            record_pool_ratio_p99=float(np.percentile(pool_ratios, 99)),
            top_families=families,
        )
        if emit:
            for row in rows:
                events.emit(
                    events.ATTRIBUTION_SUMMARY,
                    scope="census_record",
                    record=row["name"],
                    num_checkpoints=row["num_checkpoints"],
                    logical_bytes=row["logical_bytes"],
                    unique_bytes=row["unique_bytes"],
                    shared_bytes=row["shared_bytes"],
                    cross_duplicate_share=row["cross_duplicate_share"],
                    intra_ratio=row["intra_ratio"],
                    pool_ratio=row["pool_ratio"],
                )
            events.emit(
                events.ATTRIBUTION_SUMMARY,
                scope="census",
                num_records=report.num_records,
                total_logical_bytes=total_logical,
                pool_unique_bytes=pool_unique_bytes,
                pool_forecast_ratio=round(pool_forecast, 4),
                best_intra_ratio=round(report.best_intra_ratio, 4),
                record_pool_ratio_p50=round(report.record_pool_ratio_p50, 4),
                record_pool_ratio_p99=round(report.record_pool_ratio_p99, 4),
            )
        return report


# ----------------------------------------------------------------------
# What-if chunk-size sweep
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    """Dedup-vs-metadata pricing at one alternative chunk size."""

    chunk_size: int
    num_chunks: int
    unique_chunks: int
    unique_bytes: int
    #: Index cost at this granularity (12 B per chunk per checkpoint).
    metadata_bytes: int
    dedup_ratio: float
    #: Dedup net of index overhead — what the sweep actually prices.
    net_ratio: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "chunk_size": self.chunk_size,
            "num_chunks": self.num_chunks,
            "unique_chunks": self.unique_chunks,
            "unique_bytes": self.unique_bytes,
            "metadata_bytes": self.metadata_bytes,
            "dedup_ratio": round(self.dedup_ratio, 4),
            "net_ratio": round(self.net_ratio, 4),
        }


def chunk_size_sweep(source, chunk_sizes: Sequence[int]) -> List[SweepPoint]:
    """Re-chunk a record's checkpoints at alternative chunk sizes: the
    sweep of its report (:func:`attribute_record`)."""
    if not chunk_sizes:
        raise ValueError("chunk_size_sweep needs at least one chunk size")
    return attribute_record(source, emit=False, sweep=chunk_sizes).sweep


def _sweep(
    table, payload_of: Callable[[int], np.ndarray], chunk_sizes: Sequence[int]
) -> List[SweepPoint]:
    """Gather each checkpoint from the resolved index *table* over
    ``payload_of(t)`` — one state at a time — and digest it at every
    candidate size, pricing content-level dedup against the per-chunk
    index metadata."""
    from ..core.chunking import ChunkSpec
    from ..core.provenance import RAW_INDEX_BYTES_PER_CHUNK, materialize_index

    specs = [ChunkSpec(table.data_len, int(size)) for size in chunk_sizes]
    seen: List[Dict[bytes, int]] = [{} for _ in specs]
    for k in range(table.num_checkpoints):
        state = memoryview(materialize_index(table.row(k), payload_of).tobytes())
        for spec, digests in zip(specs, seen):
            for c in range(spec.num_chunks):
                b0, b1 = spec.chunk_bounds(c)
                digests.setdefault(_digest(bytes(state[b0:b1])), b1 - b0)
    logical = table.num_checkpoints * table.data_len

    points: List[SweepPoint] = []
    for spec, digests in zip(specs, seen):
        unique_bytes = sum(digests.values())
        metadata = (
            table.num_checkpoints * spec.num_chunks * RAW_INDEX_BYTES_PER_CHUNK
        )
        points.append(
            SweepPoint(
                chunk_size=spec.chunk_size,
                num_chunks=spec.num_chunks,
                unique_chunks=len(digests),
                unique_bytes=unique_bytes,
                metadata_bytes=metadata,
                dedup_ratio=logical / unique_bytes if unique_bytes else 0.0,
                net_ratio=(
                    logical / (unique_bytes + metadata)
                    if unique_bytes + metadata
                    else 0.0
                ),
            )
        )
    return points


def sweep_report(points: Sequence[SweepPoint]) -> str:
    """Human-readable sweep table."""
    lines = [
        f"{'chunk':>7s} {'chunks':>8s} {'unique':>8s} {'dedup':>7s} "
        f"{'meta':>12s} {'net':>7s}"
    ]
    for p in points:
        lines.append(
            f"{p.chunk_size:>7d} {p.num_chunks:>8,d} {p.unique_chunks:>8,d} "
            f"×{p.dedup_ratio:>5.2f} {p.metadata_bytes:>12,d} "
            f"×{p.net_ratio:>5.2f}"
        )
    return "\n".join(lines)
