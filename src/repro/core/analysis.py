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
from typing import List, Optional, Sequence

from .diff import CheckpointDiff
from .serialize import chunk_map


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


def analyze_diff(diff: CheckpointDiff) -> DiffComposition:
    """Compute the composition of one diff from its :func:`chunk_map`."""
    cmap = chunk_map(diff)
    cs = diff.chunk_size
    first_len = cmap.first_end - cmap.first_start
    shift_len = cmap.shift_end - cmap.shift_start
    first_bytes, shift_bytes = int(first_len.sum()), int(shift_len.sum())
    return DiffComposition(
        ckpt_id=diff.ckpt_id,
        method=diff.method,
        data_len=diff.data_len,
        first_bytes=first_bytes,
        shift_bytes=shift_bytes,
        fixed_bytes=diff.data_len - first_bytes - shift_bytes,
        metadata_bytes=diff.metadata_bytes,
        stored_bytes=diff.serialized_size,
        first_region_chunks=Counter((-(-first_len // cs)).tolist()),
        shift_region_chunks=Counter((-(-shift_len // cs)).tolist()),
        shift_targets=Counter(cmap.shift_ckpt.tolist()),
    )


def analyze_record(diffs: Sequence[CheckpointDiff]) -> List[DiffComposition]:
    """Composition of every diff in a record."""
    return [analyze_diff(diff) for diff in diffs]


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
    ordering and stable geometry here, then each diff's
    :func:`~repro.core.serialize.chunk_map` problems — region bounds,
    non-overlap, reference validity, the §2.2 serialization invariant
    (a shifted duplicate referencing its own checkpoint reads bytes a
    first occurrence — or no region — of that diff wrote, never another
    shift destination) and a raw payload's length.  Used by tests and
    the CLI.
    """
    if not diffs:
        return ["chain is empty"]
    problems: List[str] = []
    geometry = (diffs[0].data_len, diffs[0].chunk_size)
    for position, diff in enumerate(diffs):
        where = f"ckpt {position}"
        if diff.ckpt_id != position:
            problems.append(f"{where}: out-of-order id {diff.ckpt_id}")
            continue
        if (diff.data_len, diff.chunk_size) != geometry:
            problems.append(f"{where}: geometry changed mid-chain")
            continue
        problems.extend(chunk_map(diff).problems)
    return problems
