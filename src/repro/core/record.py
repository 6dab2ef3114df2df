"""Checkpoint record: the lineage of diffs plus per-checkpoint statistics.

The paper's metrics (§3.2) are defined over the *record*, not individual
checkpoints: the de-duplication ratio is total full size over total stored
size, and the frequency experiments aggregate over all captured
checkpoints excluding the initial full one.  This module owns those
aggregations so every bench computes them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import RestoreError
from ..gpusim.perfmodel import CostBreakdown
from ..utils.units import format_bytes, format_ratio
from .diff import CheckpointDiff
from .provenance import restore_indexed


@dataclass
class CheckpointStats:
    """Everything measured about one checkpoint."""

    ckpt_id: int
    data_len: int
    stored_bytes: int
    metadata_bytes: int
    payload_bytes: int
    num_first: int
    num_shift: int
    #: Simulated GPU cost (None when the engine ran unmetered).
    cost: Optional[CostBreakdown] = None
    #: Wall-clock seconds of the Python data path.
    wall_seconds: float = 0.0

    @property
    def simulated_seconds(self) -> float:
        """End-to-end simulated time (0 when unmetered)."""
        return self.cost.total_seconds if self.cost is not None else 0.0

    @property
    def throughput(self) -> float:
        """Paper metric: original bytes / simulated create+copy seconds."""
        secs = self.simulated_seconds
        return self.data_len / secs if secs > 0 else float("inf")

    @property
    def dedup_ratio(self) -> float:
        """Single-checkpoint ratio: full size over stored size."""
        return self.data_len / self.stored_bytes if self.stored_bytes else float("inf")


class CheckpointRecord:
    """Ordered collection of diffs + stats for one process's record."""

    def __init__(self, method: str) -> None:
        self.method = method
        self.diffs: List[CheckpointDiff] = []
        self.stats: List[CheckpointStats] = []

    def append(self, diff: CheckpointDiff, stats: CheckpointStats) -> None:
        """Add one checkpoint's diff and measurements."""
        if diff.ckpt_id != len(self.diffs):
            raise RestoreError(
                f"record expects checkpoint {len(self.diffs)}, got {diff.ckpt_id}"
            )
        self.diffs.append(diff)
        self.stats.append(stats)

    def __len__(self) -> int:
        return len(self.diffs)

    # ------------------------------------------------------------------
    # Aggregations (paper §3.2 definitions)
    # ------------------------------------------------------------------
    def total_full_bytes(self, skip_first: bool = False) -> int:
        """What storing every checkpoint in full would cost."""
        stats = self.stats[1:] if skip_first else self.stats
        return sum(s.data_len for s in stats)

    def total_stored_bytes(self, skip_first: bool = False) -> int:
        """What this record actually stores."""
        stats = self.stats[1:] if skip_first else self.stats
        return sum(s.stored_bytes for s in stats)

    def dedup_ratio(self, skip_first: bool = False) -> float:
        """Full bytes over stored bytes across the record.

        ``skip_first=True`` matches the frequency-scenario aggregation,
        which excludes the initial full checkpoint (§3.2).
        """
        stored = self.total_stored_bytes(skip_first)
        if stored == 0:
            return float("inf")
        return self.total_full_bytes(skip_first) / stored

    def total_metadata_bytes(self, skip_first: bool = False) -> int:
        """Total metadata across the record."""
        stats = self.stats[1:] if skip_first else self.stats
        return sum(s.metadata_bytes for s in stats)

    def aggregate_throughput(self, skip_first: bool = False) -> float:
        """Total original bytes over total simulated seconds."""
        stats = self.stats[1:] if skip_first else self.stats
        seconds = sum(s.simulated_seconds for s in stats)
        payload = sum(s.data_len for s in stats)
        return payload / seconds if seconds > 0 else float("inf")

    def restore(self, upto: Optional[int] = None) -> np.ndarray:
        """Reconstruct checkpoint *upto* (default latest) by the provenance
        gather: the row is composed on demand, then one gather per source."""
        return restore_indexed(self.diffs, upto)[0]

    def summary(self) -> str:
        """One-line human-readable record summary."""
        return (
            f"{self.method}: {len(self)} ckpts, "
            f"{format_bytes(self.total_stored_bytes())} stored of "
            f"{format_bytes(self.total_full_bytes())} "
            f"({format_ratio(self.dedup_ratio())})"
        )

