"""Kernel cost model: prices a :class:`~repro.kokkos.KernelLedger` into
simulated GPU seconds.

The model is deliberately simple — four linear terms per kernel — because
that is all the paper's performance story needs:

``time(kernel) = launches * launch_latency
              + (bytes_read + bytes_written) / effective_stream_bandwidth
              + random_accesses * random_access_cost``

``time(transfer) = count * pcie_latency + nbytes / pcie_bandwidth(contention)``

Contention models the multi-GPU case of §2.3/§3.3: several GPUs on one
node share host-link bandwidth, so D2H copies slow down by the node's
oversubscription factor while kernel time is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..kokkos.execution import KernelCounts, KernelLedger
from ..utils.validation import positive_float, positive_int
from .device import DeviceSpec


def pipeline_makespan(
    stage1_seconds: float, stage2_seconds: float, windows: int
) -> float:
    """Makespan of a 2-stage FIFO pipeline with evenly split stages.

    Both stage totals are divided across *windows*; window *w*'s stage-2
    work starts only after its own stage-1 work **and** window *w-1*'s
    stage-2 work finish.  The checkpoint side (dedup, then D2H drain)
    and the restore side (shared storage read, then gather + H2D) both
    price their window pipelines with this one recurrence.
    """
    positive_int(windows, "windows")
    s1 = stage1_seconds / windows
    s2 = stage2_seconds / windows
    stage1_done = 0.0
    stage2_done = 0.0
    for _ in range(windows):
        stage1_done += s1
        stage2_done = max(stage2_done, stage1_done) + s2
    return stage2_done


#: Window counts :func:`pick_window_count` tries by default.
WINDOW_CANDIDATES = (1, 2, 4, 8, 16, 32)


def pick_window_count(
    stage1_seconds: float,
    stage2_seconds: float,
    per_window_overhead: float = 0.0,
    candidates: Sequence[int] = WINDOW_CANDIDATES,
) -> Tuple[int, float]:
    """The candidate window count with the shortest pipeline makespan.

    Stage 2 pays *per_window_overhead* once per window past the first
    (the serial timeline already pays it once) — DMA setup in either
    direction — so over-fine windows lose their benefit.  Returns
    ``(windows, makespan)``; a tie goes to the earlier candidate, and a
    single candidate simply prices that window count.
    """
    best: Optional[Tuple[int, float]] = None
    for w in candidates:
        seconds = pipeline_makespan(
            stage1_seconds, stage2_seconds + (w - 1) * per_window_overhead, w
        )
        if best is None or seconds < best[1]:
            best = (w, seconds)
    if best is None:
        raise ValueError("pick_window_count needs at least one candidate")
    return best


@dataclass
class CostBreakdown:
    """Simulated seconds attributed to each cost component."""

    launch_seconds: float = 0.0
    stream_seconds: float = 0.0
    random_seconds: float = 0.0
    transfer_seconds: float = 0.0
    #: Per-kernel-name totals (launch+stream+random), for reports/ablations.
    per_kernel: Dict[str, float] = field(default_factory=dict)

    @property
    def kernel_seconds(self) -> float:
        """Total on-device compute time."""
        return self.launch_seconds + self.stream_seconds + self.random_seconds

    @property
    def total_seconds(self) -> float:
        """Device compute plus host transfers (serialized, as in the paper's
        blocking de-dup + copy measurement window)."""
        return self.kernel_seconds + self.transfer_seconds

    def merged(self, other: "CostBreakdown") -> "CostBreakdown":
        """Sum two breakdowns (used when aggregating checkpoints)."""
        out = CostBreakdown(
            launch_seconds=self.launch_seconds + other.launch_seconds,
            stream_seconds=self.stream_seconds + other.stream_seconds,
            random_seconds=self.random_seconds + other.random_seconds,
            transfer_seconds=self.transfer_seconds + other.transfer_seconds,
            per_kernel=dict(self.per_kernel),
        )
        for name, secs in other.per_kernel.items():
            out.per_kernel[name] = out.per_kernel.get(name, 0.0) + secs
        return out


class KernelCostModel:
    """Prices ledgers against a :class:`DeviceSpec`.

    Parameters
    ----------
    device:
        The simulated GPU.
    pcie_contention:
        ≥ 1.0 multiplier on transfer time; the node/cluster layer sets this
        to the host-link oversubscription factor when several GPUs flush
        concurrently.
    """

    def __init__(self, device: DeviceSpec, pcie_contention: float = 1.0) -> None:
        self.device = device
        positive_float(pcie_contention, "pcie_contention")
        if pcie_contention < 1.0:
            raise ValueError(f"pcie_contention must be >= 1, got {pcie_contention}")
        self.pcie_contention = pcie_contention

    def price(self, ledger: KernelLedger) -> CostBreakdown:
        """Compute the cost breakdown of everything recorded in *ledger*.

        Accepts anything exposing ``kernels`` / ``transfers`` record lists
        — a full :class:`KernelLedger` or the
        :class:`~repro.kokkos.execution.LedgerView` returned by
        ``ledger.since(cursor)``.
        """
        dev = self.device
        out = CostBreakdown()
        for k in ledger.kernels:
            launch = k.launches * dev.kernel_launch_latency
            stream = (k.bytes_read + k.bytes_written) / dev.effective_stream_bandwidth
            random = k.random_accesses * dev.random_access_cost
            out.launch_seconds += launch
            out.stream_seconds += stream
            out.random_seconds += random
            out.per_kernel[k.name] = out.per_kernel.get(k.name, 0.0) + (
                launch + stream + random
            )
        bandwidth = dev.pcie_bandwidth / self.pcie_contention
        for t in ledger.transfers:
            out.transfer_seconds += t.count * dev.pcie_latency + t.nbytes / bandwidth
        return out

    def price_counts(self, counts: KernelCounts) -> CostBreakdown:
        """Price a :class:`KernelCounts` delta into simulated seconds.

        The model is linear in every field, so pricing count deltas
        decomposes exactly: for any partition of the work into snapshot
        intervals, the per-interval breakdowns sum to the breakdown of the
        whole.  This is what lets telemetry spans attribute simulated time
        without draining ledger records that cost pricing also needs.
        No ``per_kernel`` attribution is possible from bare counts.
        """
        dev = self.device
        bandwidth = dev.pcie_bandwidth / self.pcie_contention
        return CostBreakdown(
            launch_seconds=counts.launches * dev.kernel_launch_latency,
            stream_seconds=counts.total_bytes / dev.effective_stream_bandwidth,
            random_seconds=counts.random_accesses * dev.random_access_cost,
            transfer_seconds=counts.transfer_count * dev.pcie_latency
            + counts.transfer_bytes / bandwidth,
        )

    def throughput(self, ledger: KernelLedger, payload_bytes: int) -> float:
        """Paper metric: original data size / simulated end-to-end seconds."""
        seconds = self.price(ledger).total_seconds
        if seconds <= 0.0:
            return float("inf")
        return payload_bytes / seconds

    def price_restore(
        self,
        ledger: KernelLedger,
        restored_bytes: int,
        read_bytes: int = 0,
        read_bandwidth: Optional[float] = None,
    ) -> "RestoreCost":
        """Price a restore's metered work into a :class:`RestoreCost`.

        The provenance gather meters one fused ``restore.gather`` launch
        per gather call — every referenced source payload at once, the
        index slice read once, one random access per source run — plus
        the H2D upload of the reconstructed range; the chain-replay
        oracle (:class:`~repro.core.restore.Restorer`) is not metered.

        *read_bytes* / *read_bandwidth* optionally charge the storage
        read feeding the gathers (PFS bandwidth for a cold fleet
        restart); by default only the metered device/PCIe work is priced,
        which keeps single-node restart costs identical to before.
        """
        return RestoreCost(
            breakdown=self.price(ledger),
            restored_bytes=restored_bytes,
            read_seconds=self.price_read(read_bytes, read_bandwidth),
        )

    def price_read(
        self, read_bytes: int, read_bandwidth: Optional[float]
    ) -> float:
        """Seconds the storage read of *read_bytes* feeding a restore
        takes at *read_bandwidth* (0 when nothing is read)."""
        if not read_bytes:
            return 0.0
        if read_bandwidth is None:
            raise ValueError("read_bytes given without read_bandwidth")
        positive_float(read_bandwidth, "read_bandwidth")
        return read_bytes / read_bandwidth

    def price_fleet_restore(
        self,
        ledgers: Sequence[KernelLedger],
        restored_bytes: int,
        cluster=None,
        contention: Optional[Sequence[float]] = None,
        read_bytes: int = 0,
        read_bandwidth: Optional[float] = None,
        windows: int = 1,
    ) -> "FleetRestoreCost":
        """Price one sharded restore: per-rank ledgers → fleet critical path.

        Each rank's gather/H2D ledger is priced with *its own* PCIe
        contention factor — from *contention* directly, or from
        ``cluster.pcie_contention_for(len(ledgers))`` under the cluster's
        fill-nodes-in-order placement.  The shared storage read
        (*read_bytes* at the cluster's PFS bandwidth, or an explicit
        *read_bandwidth*) is charged once fleet-wide: every rank gathers
        from the same cooperatively read source frames, so the read is
        not multiplied by the fan-out.  The read stage then overlaps the
        gather stage across *windows* (see :func:`pipeline_makespan`).
        """
        if not ledgers:
            raise ValueError("price_fleet_restore needs at least one ledger")
        positive_int(windows, "windows")
        if contention is None:
            if cluster is None:
                raise ValueError("price_fleet_restore needs a cluster or contention")
            contention = cluster.pcie_contention_for(len(ledgers))
        if len(contention) < len(ledgers):
            raise ValueError(
                f"{len(contention)} contention factors for {len(ledgers)} ledgers"
            )
        if read_bandwidth is None and cluster is not None:
            read_bandwidth = cluster.pfs_bandwidth
        per_rank: List[RestoreCost] = []
        for rank, ledger in enumerate(ledgers):
            sibling = KernelCostModel(self.device, pcie_contention=contention[rank])
            rank_bytes = sum(t.nbytes for t in ledger.transfers)
            per_rank.append(sibling.price_restore(ledger, rank_bytes))
        return FleetRestoreCost(
            per_rank=per_rank,
            read_seconds=self.price_read(read_bytes, read_bandwidth),
            windows=windows,
            restored_bytes=restored_bytes,
        )


@dataclass
class RestoreCost:
    """Simulated cost of one restart's restore work."""

    breakdown: CostBreakdown
    #: Size of the reconstructed checkpoint buffer.
    restored_bytes: int
    #: Storage-read seconds feeding the gathers (0 for in-memory chains).
    read_seconds: float = 0.0

    @property
    def gather_seconds(self) -> float:
        """Device gather + H2D time, excluding the storage read."""
        return self.breakdown.total_seconds

    @property
    def seconds(self) -> float:
        return self.breakdown.total_seconds + self.read_seconds


@dataclass
class FleetRestoreCost:
    """Simulated cost of one sharded, streaming fleet restore.

    ``per_rank`` prices each rank's gathers and shard H2D under that
    rank's PCIe contention (``read_seconds`` on those entries is 0 — the
    storage read is fleet-shared, held here instead).  The fleet finishes
    when its slowest rank does; with W > 1 windows the shared read of
    window *k+1* overlaps the gathers of window *k*, so the critical path
    is the 2-stage pipeline makespan rather than the serial sum.
    """

    per_rank: List[RestoreCost]
    #: One shared pass over the source frames + index (PFS-priced).
    read_seconds: float
    windows: int
    #: Size of the reconstructed checkpoint buffer (fleet-wide).
    restored_bytes: int

    @property
    def num_ranks(self) -> int:
        return len(self.per_rank)

    @property
    def gather_critical_seconds(self) -> float:
        """Slowest rank's gather + H2D time — the fan-out's device stage."""
        return max(c.seconds for c in self.per_rank)

    @property
    def serial_seconds(self) -> float:
        """Read-then-gather with no overlap (the W=1 timeline)."""
        return self.read_seconds + self.gather_critical_seconds

    @property
    def critical_path_seconds(self) -> float:
        """Fleet completion time with read/gather windows overlapped."""
        return pipeline_makespan(
            self.read_seconds, self.gather_critical_seconds, self.windows
        )

    @property
    def overlap_saving_seconds(self) -> float:
        """Seconds the window pipeline saves over the serial timeline."""
        return self.serial_seconds - self.critical_path_seconds
