"""Checkpoint-record analytics.

Answers the questions the paper's evaluation keeps asking of a record —
how is each diff composed (fixed / first / shifted bytes), how large are
the consolidated regions, where do shifted duplicates point — as plain
data structures, so benches, examples and tests share one implementation
instead of ad-hoc instrumentation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import RestoreError
from .chunking import ChunkSpec
from .diff import CheckpointDiff
from .merkle import TreeLayout
from .serialize import unpack_bitmap


@dataclass
class DiffComposition:
    """Byte-level composition of one diff."""

    ckpt_id: int
    method: str
    data_len: int
    #: Bytes stored as first-occurrence payload.
    first_bytes: int
    #: Bytes covered by shifted-duplicate references.
    shift_bytes: int
    #: Bytes untouched (fixed duplicates / implicit).
    fixed_bytes: int
    metadata_bytes: int
    stored_bytes: int
    #: Region-size histogram (chunks per region) for first/shift regions.
    first_region_chunks: Counter = field(default_factory=Counter)
    shift_region_chunks: Counter = field(default_factory=Counter)
    #: Referenced checkpoint → number of shifted regions pointing there.
    shift_targets: Counter = field(default_factory=Counter)

    @property
    def changed_fraction(self) -> float:
        """Share of the buffer not fixed."""
        return (self.first_bytes + self.shift_bytes) / self.data_len

    @property
    def consolidation_factor(self) -> Optional[float]:
        """Chunks covered per metadata entry (higher = better compaction).

        ``None`` when the diff carries no regions at all (nothing changed),
        so JSON consumers see ``null`` instead of a non-serializable inf.
        """
        entries = sum(self.first_region_chunks.values()) + sum(
            self.shift_region_chunks.values()
        )
        if entries == 0:
            return None
        chunks = sum(k * v for k, v in self.first_region_chunks.items()) + sum(
            k * v for k, v in self.shift_region_chunks.items()
        )
        return chunks / entries


def analyze_diff(
    diff: CheckpointDiff, layout: Optional[TreeLayout] = None
) -> DiffComposition:
    """Compute the composition of one diff."""
    spec = ChunkSpec(diff.data_len, diff.chunk_size)
    comp = DiffComposition(
        ckpt_id=diff.ckpt_id,
        method=diff.method,
        data_len=diff.data_len,
        first_bytes=0,
        shift_bytes=0,
        fixed_bytes=0,
        metadata_bytes=diff.metadata_bytes,
        stored_bytes=diff.serialized_size,
    )

    if diff.method == "full":
        comp.first_bytes = diff.data_len
        comp.first_region_chunks[spec.num_chunks] = 1
    elif diff.method == "basic":
        changed = unpack_bitmap(diff.bitmap, spec.num_chunks)
        for chunk in np.nonzero(changed)[0]:
            b0, b1 = spec.chunk_bounds(int(chunk))
            comp.first_bytes += b1 - b0
            comp.first_region_chunks[1] += 1
    else:
        if diff.method == "tree":
            if layout is None:
                layout = TreeLayout(spec.num_chunks)

            def extent(node: int):
                count = int(layout.leaf_count[node])
                b0, b1 = spec.range_bounds(int(layout.leaf_start[node]), count)
                return count, b1 - b0

        else:

            def extent(node: int):
                b0, b1 = spec.chunk_bounds(node)
                return 1, b1 - b0

        for node in diff.first_ids:
            chunks, nbytes = extent(int(node))
            comp.first_bytes += nbytes
            comp.first_region_chunks[chunks] += 1
        for i in range(diff.num_shift):
            chunks, nbytes = extent(int(diff.shift_ids[i]))
            comp.shift_bytes += nbytes
            comp.shift_region_chunks[chunks] += 1
            comp.shift_targets[int(diff.shift_ref_ckpts[i])] += 1

    comp.fixed_bytes = diff.data_len - comp.first_bytes - comp.shift_bytes
    return comp


def analyze_record(diffs: Sequence[CheckpointDiff]) -> List[DiffComposition]:
    """Composition of every diff in a record (shared tree layout)."""
    if not diffs:
        return []
    layout: Optional[TreeLayout] = None
    out = []
    for diff in diffs:
        if diff.method == "tree" and layout is None:
            layout = TreeLayout(ChunkSpec(diff.data_len, diff.chunk_size).num_chunks)
        out.append(analyze_diff(diff, layout))
    return out


def composition_report(diffs: Sequence[CheckpointDiff]) -> str:
    """Human-readable per-checkpoint composition table."""
    rows = analyze_record(diffs)
    lines = [
        f"{'ckpt':>4s} {'method':<7s} {'fixed%':>7s} {'first%':>7s} "
        f"{'shift%':>7s} {'regions':>8s} {'consol':>7s} {'stored':>10s}"
    ]
    for c in rows:
        regions = sum(c.first_region_chunks.values()) + sum(
            c.shift_region_chunks.values()
        )
        consol = c.consolidation_factor
        lines.append(
            f"{c.ckpt_id:>4d} {c.method:<7s} "
            f"{100 * c.fixed_bytes / c.data_len:>6.1f}% "
            f"{100 * c.first_bytes / c.data_len:>6.1f}% "
            f"{100 * c.shift_bytes / c.data_len:>6.1f}% "
            f"{regions:>8d} "
            f"{'—' if consol is None else f'{consol:.2f}':>7s} "
            f"{c.stored_bytes:>10,d}"
        )
    return "\n".join(lines)


def verify_chain(diffs: Sequence[CheckpointDiff]) -> List[str]:
    """Structural integrity checks over a diff chain.

    Returns a list of problem descriptions (empty = chain is sound):
    ordering, stable geometry, region bounds, non-overlap, payload
    lengths, reference validity, and the §2.2 serialization invariant
    (a shifted duplicate referencing its own checkpoint reads bytes a
    first occurrence — or no region — of that diff wrote, never another
    shift destination).  Used by tests, scrubbing restores and the CLI.

    Payload-length checks assume raw payloads; records produced with a
    ``payload_codec`` (the hybrid mode) should be verified after
    decompressing, or their payload-length findings ignored.
    """
    problems: List[str] = []
    if not diffs:
        return ["chain is empty"]
    data_len = diffs[0].data_len
    chunk_size = diffs[0].chunk_size
    layout: Optional[TreeLayout] = None

    for position, diff in enumerate(diffs):
        where = f"ckpt {position}"
        if diff.ckpt_id != position:
            problems.append(f"{where}: out-of-order id {diff.ckpt_id}")
            continue
        if diff.data_len != data_len or diff.chunk_size != chunk_size:
            problems.append(f"{where}: geometry changed mid-chain")
            continue
        spec = ChunkSpec(diff.data_len, diff.chunk_size)

        if diff.method == "full":
            if diff.payload_bytes != data_len:
                problems.append(f"{where}: full payload length mismatch")
            continue
        if diff.method == "basic":
            try:
                changed = unpack_bitmap(diff.bitmap, spec.num_chunks)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                problems.append(f"{where}: bad bitmap ({exc})")
                continue
            expect = sum(
                spec.chunk_len(int(c)) for c in np.nonzero(changed)[0]
            )
            if diff.payload_bytes != expect:
                problems.append(f"{where}: basic payload length mismatch")
            continue

        if diff.method == "tree" and layout is None:
            layout = TreeLayout(spec.num_chunks)

        def bounds(node: int):
            if diff.method == "tree":
                if not 0 <= node < layout.num_nodes:
                    return None
                return spec.range_bounds(
                    int(layout.leaf_start[node]), int(layout.leaf_count[node])
                )
            if not 0 <= node < spec.num_chunks:
                return None
            return spec.chunk_bounds(node)

        covered = np.zeros(data_len, dtype=bool)
        shifted = np.zeros(data_len, dtype=bool)
        same_ckpt_sources = []
        payload_expect = 0
        ok = True
        for node in diff.first_ids:
            span = bounds(int(node))
            if span is None:
                problems.append(f"{where}: first id {int(node)} out of range")
                ok = False
                continue
            if covered[span[0] : span[1]].any():
                problems.append(f"{where}: overlapping regions at {span}")
                ok = False
            covered[span[0] : span[1]] = True
            payload_expect += span[1] - span[0]
        for i in range(diff.num_shift):
            span = bounds(int(diff.shift_ids[i]))
            src = bounds(int(diff.shift_ref_ids[i]))
            if span is None or src is None:
                problems.append(f"{where}: shift entry {i} out of range")
                ok = False
                continue
            if covered[span[0] : span[1]].any():
                problems.append(f"{where}: overlapping regions at {span}")
                ok = False
            covered[span[0] : span[1]] = True
            shifted[span[0] : span[1]] = True
            if int(diff.shift_ref_ckpts[i]) == position:
                same_ckpt_sources.append((i, src))
            if src[1] - src[0] != span[1] - span[0]:
                problems.append(f"{where}: shift entry {i} length mismatch")
                ok = False
            if int(diff.shift_ref_ckpts[i]) > position:
                problems.append(f"{where}: shift entry {i} references the future")
                ok = False
        for i, src in same_ckpt_sources:
            if shifted[src[0] : src[1]].any():
                problems.append(
                    f"{where}: shift entry {i} reads bytes another shifted "
                    f"duplicate of this checkpoint writes"
                )
                ok = False
        if ok and diff.payload_bytes != payload_expect:
            problems.append(
                f"{where}: payload is {diff.payload_bytes} B, regions demand "
                f"{payload_expect} B"
            )
    return problems
