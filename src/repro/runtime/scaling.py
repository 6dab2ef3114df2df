"""Strong-scaling driver — the Fig. 6 experiment.

The paper runs ORANGES on 1–64 GPUs: the input graph is partitioned, each
process owns one partition and one GPU, de-duplicates its own checkpoints
independently, and the only coupling is PCIe contention between GPUs on
the same node (§2.3) plus the shared PFS further down.  Throughput at
scale is measured as total checkpointed bytes over the *slowest* process
(§3.3).

This driver reproduces that setup in-process: it partitions the graph's
vertex range, runs one engine + checkpointer per simulated rank (each with
its own RNG stream and its node's contention factor), and merges records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.checkpointer import IncrementalCheckpointer
from ..errors import SimulationError
from ..gpusim.cluster import ClusterSpec, thetagpu
from ..graphs.csr import Graph
from ..oranges.gdv import GdvEngine
from ..telemetry.aggregate import merge_journals
from ..telemetry.events import CHECKPOINT_COMMITTED, HEARTBEAT, EventJournal
from ..utils.validation import positive_int


@dataclass
class ScalingResult:
    """Merged outcome of one strong-scaling point."""

    num_processes: int
    num_checkpoints: int
    method: str
    total_full_bytes: int
    total_stored_bytes: int
    #: Σ over checkpoints of the slowest process's simulated seconds.
    critical_path_seconds: float
    per_process_stored: List[int] = field(default_factory=list)
    #: Merged per-rank journal events (``capture_events=True`` runs only),
    #: in canonical merge order — feed to ``telemetry.build_rollup``.
    events: List[dict] = field(default_factory=list)

    @property
    def dedup_ratio(self) -> float:
        """Aggregate full/stored ratio across all processes."""
        if self.total_stored_bytes == 0:
            return float("inf")
        return self.total_full_bytes / self.total_stored_bytes

    @property
    def aggregate_throughput(self) -> float:
        """Total bytes over the critical-path time (paper's Fig. 6b)."""
        if self.critical_path_seconds <= 0:
            return float("inf")
        return self.total_full_bytes / self.critical_path_seconds


def partition_vertices(num_vertices: int, num_parts: int) -> List[np.ndarray]:
    """Contiguous balanced vertex ranges, one per process."""
    positive_int(num_vertices, "num_vertices")
    positive_int(num_parts, "num_parts")
    if num_parts > num_vertices:
        raise SimulationError(
            f"cannot split {num_vertices} vertices across {num_parts} processes"
        )
    bounds = np.linspace(0, num_vertices, num_parts + 1).astype(np.int64)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(num_parts)]


def induced_partition_graph(graph: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph on a contiguous vertex range, relabeled to 0..n.

    Cross-partition edges are cut — each rank enumerates graphlets local
    to its partition, the embarrassingly-parallel decomposition the paper
    describes (the final reduction is outside the checkpointed phase).
    """
    lo, hi = int(vertices[0]), int(vertices[-1]) + 1
    edges = graph.edges()
    mask = (edges[:, 0] >= lo) & (edges[:, 0] < hi) & (edges[:, 1] >= lo) & (
        edges[:, 1] < hi
    )
    local = edges[mask] - lo
    return Graph.from_edges(hi - lo, local)


def _run_rank(
    args: Tuple[Graph, str, int, int, float, int, int, str, bool, Optional[str]]
) -> Tuple[int, int, List[float], List[dict]]:
    """One rank's whole pipeline.

    Returns ``(full_bytes, stored_bytes, per-checkpoint seconds, events)``
    — *events* are the rank's journal records when capture is on.
    """
    (
        local,
        method,
        chunk_size,
        max_graphlet_size,
        contention,
        num_ckpts,
        rank,
        node_name,
        capture,
        run_id,
    ) = args
    engine = GdvEngine(local, max_graphlet_size)
    ckpt = IncrementalCheckpointer(
        data_len=engine.buffer_nbytes,
        chunk_size=chunk_size,
        method=method,
        pcie_contention=contention,
    )
    journal = (
        EventJournal(node=node_name, rank=rank, run_id=run_id)
        if capture
        else None
    )
    cursor = 0.0
    seconds = []
    for snapshot in engine.checkpoint_stream(num_ckpts):
        stats = ckpt.checkpoint(snapshot)
        seconds.append(stats.simulated_seconds)
        if journal is not None:
            cursor += stats.simulated_seconds
            journal.emit(
                CHECKPOINT_COMMITTED,
                sim_time=cursor,
                ckpt_id=stats.ckpt_id,
                method=method,
                stored_bytes=stats.stored_bytes,
                full_bytes=stats.data_len,
                device_seconds=stats.simulated_seconds,
            )
            # Fleet ranks have no fixed cadence period (each checkpoint
            # takes as long as its kernels take), so the liveness tracker
            # infers the deadline from observed heartbeat gaps.
            journal.emit(
                HEARTBEAT,
                sim_time=cursor,
                interval_seconds=None,
                checkpoints=stats.ckpt_id + 1,
            )
    return (
        ckpt.record.total_full_bytes(),
        ckpt.record.total_stored_bytes(),
        seconds,
        journal.records() if journal is not None else [],
    )


class StrongScalingDriver:
    """Runs the Fig. 6 experiment for one process count.

    Parameters
    ----------
    graph:
        The full input graph (Delaunay in the paper).
    cluster:
        Node/PFS topology supplying per-process PCIe contention.
    method / chunk_size:
        Checkpointing configuration for every process.
    capture_events:
        When true, every rank keeps a private event journal (tagged with
        its node placement) and the merged stream lands on
        ``ScalingResult.events`` — the fleet-observability input for
        ``telemetry.build_rollup`` / ``evaluate_health``.
    """

    def __init__(
        self,
        graph: Graph,
        cluster: Optional[ClusterSpec] = None,
        method: str = "tree",
        chunk_size: int = 128,
        max_graphlet_size: int = 4,
        capture_events: bool = False,
    ) -> None:
        self.graph = graph
        self.cluster = cluster if cluster is not None else thetagpu()
        self.method = method
        self.chunk_size = chunk_size
        self.max_graphlet_size = max_graphlet_size
        self.capture_events = capture_events

    def run(self, num_processes: int, num_checkpoints: int = 10) -> ScalingResult:
        """Execute all ranks and merge their records."""
        positive_int(num_processes, "num_processes")
        positive_int(num_checkpoints, "num_checkpoints")
        contention = self.cluster.pcie_contention_for(num_processes)

        parts = partition_vertices(self.graph.num_vertices, num_processes)
        gpus_per_node = self.cluster.node.gpus_per_node
        # One deterministic run identity shared by every rank's journal,
        # so the merged stream is a single-run (replay-safe) journal.
        run_id = (
            f"fleet-{self.method}-p{num_processes}-c{num_checkpoints}"
            f"-v{self.graph.num_vertices}"
        )
        jobs = [
            (
                induced_partition_graph(self.graph, parts[rank]),
                self.method,
                self.chunk_size,
                self.max_graphlet_size,
                contention[rank],
                num_checkpoints,
                rank,
                f"node{rank // gpus_per_node}",
                self.capture_events,
                run_id,
            )
            for rank in range(num_processes)
        ]
        outcomes = [_run_rank(job) for job in jobs]

        per_ckpt_seconds = np.zeros((num_processes, num_checkpoints))
        total_full = 0
        total_stored = 0
        per_process_stored: List[int] = []
        per_rank_events: List[List[dict]] = []
        for rank, (full, stored, seconds, rank_events) in enumerate(outcomes):
            total_full += full
            total_stored += stored
            per_process_stored.append(stored)
            per_ckpt_seconds[rank, : len(seconds)] = seconds
            if rank_events:
                per_rank_events.append(rank_events)

        critical_path = float(per_ckpt_seconds.max(axis=0).sum())
        return ScalingResult(
            num_processes=num_processes,
            num_checkpoints=num_checkpoints,
            method=self.method,
            total_full_bytes=total_full,
            total_stored_bytes=total_stored,
            critical_path_seconds=critical_path,
            per_process_stored=per_process_stored,
            events=merge_journals(per_rank_events) if per_rank_events else [],
        )
