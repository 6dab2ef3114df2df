"""Distributed streaming restore: the §3.3 story for restarts.

A 64-rank fleet restoring from one shared record used to run
``restore_record_indexed`` on a single simulated GPU while 63 sat idle.
This module is the fleet path:

* **shard** — :class:`~repro.core.sharded_restore.ShardedRestorePlan`
  splits the target checkpoint's chunk range across N ranks, each
  gathering and uploading only its own byte extent on its own
  ``DeviceSpace``;
* **price** — ``KernelCostModel.price_fleet_restore`` prices each
  rank's ledger under its placement's PCIe contention
  (``ClusterSpec.pcie_contention_for``) plus one shared PFS read of the
  referenced frames;
* **overlap** — the restore-side :class:`~repro.runtime.streaming.
  StreamingScheduler` pipeline: the selective frame read for window
  *k+1* overlaps the gathers of window *k*, with ``best_window_count``
  choosing W from the cost model before execution.

The data path is unchanged (every byte still moves, windows are a
scheduling construct, output is bit-identical to the single-GPU path);
what changes is the simulated timeline — exactly the discipline the
checkpoint-side streaming scheduler established.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..core.provenance import resolve_source
from ..core.sharded_restore import ShardedRestorePlan, ShardReport
from ..gpusim.cluster import ClusterSpec, thetagpu
from ..gpusim.perfmodel import FleetRestoreCost, KernelCostModel
from ..kokkos.execution import DeviceSpace
from ..telemetry import events
from .streaming import StreamingScheduler

_FLEET_RESTORES = telemetry.counter(
    "fleet.restores", "Sharded (multi-rank) record restores executed"
)


@dataclass
class FleetRestoreReport:
    """Everything one sharded restore read, gathered, and cost."""

    target_ckpt: int
    num_ranks: int
    windows: int
    data_len: int
    frames_total: int
    frames_parsed: int
    #: Frame bytes + index bytes the shared read actually pulled.
    record_bytes_read: int
    index_bytes: int
    #: Pre-execution critical-path prediction (the window picker's view).
    predicted_seconds: float
    cost: FleetRestoreCost
    shards: List[ShardReport] = field(default_factory=list)

    @property
    def critical_path_seconds(self) -> float:
        return self.cost.critical_path_seconds

    @property
    def total_payload_bytes_read(self) -> int:
        return sum(s.total_payload_bytes_read for s in self.shards)

    def per_rank_seconds(self) -> List[float]:
        return [c.seconds for c in self.cost.per_rank]


def restore_record_sharded(
    directory,
    num_ranks: int,
    cluster: Optional[ClusterSpec] = None,
    upto: Optional[int] = None,
    windows: Optional[int] = None,
    payload_codec=None,
) -> Tuple[np.ndarray, FleetRestoreReport]:
    """Reconstruct a checkpoint from a stored record across *num_ranks*
    simulated GPUs, overlapping the shared frame read with the gathers.

    ``windows=None`` lets the streaming scheduler pick the window count
    from the pre-execution cost estimate.
    """
    if cluster is None:
        cluster = thetagpu()
    # The same resolve step as the single-GPU restore: only the target's
    # own index row-group is decoded, and every referenced frame is read
    # once fleet-wide (each rank gathers from the same host-staged
    # payloads), priced below at the cluster's aggregate PFS bandwidth.
    index, payload_of, resolved = resolve_source(directory, upto, payload_codec)
    upto = index.ckpt_id
    read_bytes = resolved.record_bytes_read

    device = cluster.node.device
    contention = cluster.pcie_contention_for(num_ranks)
    with telemetry.span(
        "restore.shard.plan", ranks=num_ranks, upto=upto
    ) as span:
        plan = ShardedRestorePlan(index, num_ranks)
        read_seconds = read_bytes / cluster.pfs_bandwidth
        gather_seconds = plan.estimate_gather_seconds(device, contention)
        scheduler = StreamingScheduler(device, windows if windows else 1)
        if windows is None:
            estimate = scheduler.best_window_count_stages(
                read_seconds,
                gather_seconds,
                per_window_overhead=device.pcie_latency,
            )
            windows = estimate.windows
        else:
            estimate = scheduler.estimate_stages(
                read_seconds,
                gather_seconds,
                per_window_overhead=device.pcie_latency,
            )
        span.set(
            windows=windows,
            sources=resolved.frames_parsed,
            read_bytes=read_bytes,
            predicted_seconds=estimate.streamed_seconds,
        )

    spaces = [DeviceSpace(rank) for rank in range(num_ranks)]
    reports = [
        ShardReport(rank=s.rank, chunk_lo=s.chunk_lo, chunk_hi=s.chunk_hi)
        for s in plan.shards
    ]
    out = plan.materialize(
        payload_of, spaces=spaces, windows=windows, reports=reports
    )

    model = KernelCostModel(device)
    cost = model.price_fleet_restore(
        [space.ledger for space in spaces],
        restored_bytes=index.data_len,
        cluster=cluster,
        contention=contention,
        read_bytes=read_bytes,
        windows=windows,
    )
    telemetry.instant(
        "restore.overlap",
        ranks=num_ranks,
        windows=windows,
        read_seconds=cost.read_seconds,
        gather_seconds=cost.gather_critical_seconds,
        serial_seconds=cost.serial_seconds,
        critical_path_seconds=cost.critical_path_seconds,
        overlap_saving_seconds=cost.overlap_saving_seconds,
    )
    report = FleetRestoreReport(
        target_ckpt=upto,
        num_ranks=num_ranks,
        windows=windows,
        data_len=index.data_len,
        frames_total=resolved.frames_total,
        frames_parsed=resolved.frames_parsed,
        record_bytes_read=read_bytes,
        index_bytes=resolved.index_bytes,
        predicted_seconds=estimate.streamed_seconds,
        cost=cost,
        shards=reports,
    )
    _FLEET_RESTORES.inc()
    events.emit(
        events.RESTORE,
        path="sharded",
        target_ckpt=upto,
        chain_len=resolved.frames_total,
        ranks=num_ranks,
        windows=windows,
        state_bytes=int(out.nbytes),
        payload_bytes=report.total_payload_bytes_read,
        sources=resolved.frames_parsed,
        record_bytes_read=read_bytes,
        read_seconds=cost.read_seconds,
        gather_seconds=cost.gather_critical_seconds,
        critical_path_seconds=cost.critical_path_seconds,
        predicted_seconds=estimate.streamed_seconds,
    )
    return out, report
