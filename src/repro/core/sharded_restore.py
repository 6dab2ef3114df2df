"""Sharded restore: one checkpoint restored across N ≥ 1 simulated GPUs.

The per-source batched gathers of :func:`~repro.core.provenance.
materialize_index` are independent per chunk — chunk *c*'s bytes come
from exactly one ``(src_ckpt[c], src_off[c])`` location regardless of
what any other chunk does.  So a restart can split the chunk range of
the target checkpoint across N simulated GPUs the same way the
strong-scaling driver splits a graph's vertex range: contiguous balanced
ranges, one per rank, each rank gathering and uploading only its own
byte extent.

:class:`ShardedRestorePlan` owns that decomposition and states what each
rank will meter.  :func:`restore_sharded` is the one restart restore
built on it — ``NodeRuntime.crash_restart`` at any fan-out and
``restore_record_sharded`` both call it on a record: resolve it, plan the
shards, pick the window count from the plan's priced counts, gather
each rank on its own ``DeviceSpace``, price the per-rank ledgers with
``KernelCostModel.price_fleet_restore`` and journal one ``restore``
event.  Output is bit-identical to the single-GPU
:func:`~repro.core.provenance.restore_indexed` by construction —
property-tested across every method × rank count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import RestoreError
from ..gpusim.device import DeviceSpec
from ..gpusim.perfmodel import (
    WINDOW_CANDIDATES,
    FleetRestoreCost,
    KernelCostModel,
    pick_window_count,
)
from ..kokkos.execution import DeviceSpace, KernelCounts
from ..telemetry import events
from ..utils.validation import positive_int
from .chunking import ChunkSpec
from .provenance import (
    RAW_INDEX_BYTES_PER_CHUNK,
    ProvenanceIndex,
    materialize_index,
    resolve_source,
)

_SHARDED_RESTORES = telemetry.counter(
    "fleet.restores", "Sharded restores executed (restarts and record restores)"
)


def partition_chunks(num_chunks: int, num_ranks: int) -> List[Tuple[int, int]]:
    """Contiguous balanced ``[lo, hi)`` chunk ranges, one per rank.

    The same linspace split ``partition_vertices`` uses for the scaling
    driver's graph decomposition, restated over chunk ids (core cannot
    import runtime, and the restore side partitions chunks, not
    vertices).
    """
    positive_int(num_chunks, "num_chunks")
    positive_int(num_ranks, "num_ranks")
    if num_ranks > num_chunks:
        raise RestoreError(
            f"cannot shard {num_chunks} chunks across {num_ranks} ranks"
        )
    bounds = np.linspace(0, num_chunks, num_ranks + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(num_ranks)]


@dataclass(frozen=True)
class ShardSpec:
    """One rank's slice of the restore: chunk range + what it references."""

    rank: int
    chunk_lo: int
    chunk_hi: int
    #: Source checkpoints whose payloads this shard gathers from.
    sources: Tuple[int, ...]
    #: Payload bytes this shard gathers (zero chunks gather nothing).
    payload_bytes: int
    #: Byte extent of the chunk range — what the shard H2D-uploads.
    state_bytes: int

    @property
    def num_chunks(self) -> int:
        return self.chunk_hi - self.chunk_lo

    @property
    def planned_counts(self) -> KernelCounts:
        """What this shard's gathers meter with one window.

        One ``restore.gather`` launch per source payload, each reading
        its gathered bytes plus the shard's index slice and writing the
        gathered bytes (exactly what :func:`materialize_index` meters),
        and one H2D of the shard's extent.  The window pick prices these
        before any ledger exists.
        """
        launches = len(self.sources)
        return KernelCounts(
            launches=launches,
            bytes_read=self.payload_bytes
            + launches * self.num_chunks * RAW_INDEX_BYTES_PER_CHUNK,
            bytes_written=self.payload_bytes,
            transfer_count=1,
            transfer_bytes=self.state_bytes,
        )


@dataclass
class ShardReport:
    """What one rank's gathers actually touched during execution."""

    rank: int
    chunk_lo: int
    chunk_hi: int
    payload_bytes_read: Dict[int, int] = field(default_factory=dict)

    @property
    def sources(self) -> int:
        return len(self.payload_bytes_read)

    @property
    def total_payload_bytes_read(self) -> int:
        return sum(self.payload_bytes_read.values())


class ShardedRestorePlan:
    """Partition one checkpoint's provenance across N simulated GPUs.

    Built once per restore from the target's :class:`ProvenanceIndex`;
    each :class:`ShardSpec` states its rank's planned counts, and
    :meth:`materialize` executes the per-rank gathers (window-major, so
    the metered ledger order matches the streaming pipeline's timeline).
    """

    def __init__(self, index: ProvenanceIndex, num_ranks: int) -> None:
        self.index = index
        spec = ChunkSpec(index.data_len, index.chunk_size)
        self._spec = spec
        cs = spec.chunk_size
        shards: List[ShardSpec] = []
        for rank, (lo, hi) in enumerate(
            partition_chunks(spec.num_chunks, num_ranks)
        ):
            sub = index.src_ckpt[lo:hi]
            sources = np.unique(sub)
            sources = sources[sources >= 0]
            nonzero = int(np.count_nonzero(sub >= 0))
            payload = nonzero * cs
            # The tail chunk is shorter than cs; correct if this shard
            # holds it and it gathers.
            if (
                index.data_len % cs
                and hi == spec.num_chunks
                and sub.size
                and int(sub[-1]) >= 0
            ):
                payload -= cs - spec.tail_len
            state = min(hi * cs, index.data_len) - lo * cs
            shards.append(
                ShardSpec(
                    rank=rank,
                    chunk_lo=lo,
                    chunk_hi=hi,
                    sources=tuple(int(t) for t in sources),
                    payload_bytes=payload,
                    state_bytes=state,
                )
            )
        self.shards = shards

    @property
    def num_ranks(self) -> int:
        return len(self.shards)

    @property
    def total_payload_bytes(self) -> int:
        return sum(s.payload_bytes for s in self.shards)

    def window_ranges(self, shard: ShardSpec, windows: int) -> List[Tuple[int, int]]:
        """Split one shard's chunk range into W contiguous windows."""
        positive_int(windows, "windows")
        bounds = np.linspace(
            shard.chunk_lo, shard.chunk_hi, windows + 1
        ).astype(np.int64)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(windows)]

    def materialize(
        self,
        payload_of: Callable[[int], np.ndarray],
        out: Optional[np.ndarray] = None,
        spaces: Optional[Sequence] = None,
        windows: int = 1,
        reports: Optional[Sequence[ShardReport]] = None,
    ) -> np.ndarray:
        """Execute every shard's gathers into one shared output buffer.

        *spaces* supplies one ``ExecutionSpace`` per rank (``None``
        meters nothing); each (rank, window) gather runs under a
        ``restore.shard.gather`` telemetry span against that rank's
        space, and each window's range uploads as its own H2D copy —
        the per-window DMA setup cost is real, which is what makes the
        window-count choice a genuine trade-off.
        """
        positive_int(windows, "windows")
        index = self.index
        if spaces is not None and len(spaces) < self.num_ranks:
            raise RestoreError(
                f"{len(spaces)} execution spaces for {self.num_ranks} ranks"
            )
        if out is None:
            out = np.zeros(index.data_len, dtype=np.uint8)
        else:
            out[:] = 0
        for w in range(windows):
            for shard in self.shards:
                lo, hi = self.window_ranges(shard, windows)[w]
                if lo == hi:
                    continue
                space = spaces[shard.rank] if spaces is not None else None
                with telemetry.span(
                    "restore.shard.gather",
                    space=space,
                    rank=shard.rank,
                    window=w,
                    chunk_lo=lo,
                    chunk_hi=hi,
                ):
                    materialize_index(
                        index,
                        payload_of,
                        out=out,
                        space=space,
                        report=None if reports is None else reports[shard.rank],
                        chunk_lo=lo,
                        chunk_hi=hi,
                        zero=False,
                    )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedRestorePlan ckpt={self.index.ckpt_id} "
            f"ranks={self.num_ranks} chunks={self._spec.num_chunks}>"
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

    @property
    def sources(self) -> int:
        """Distinct source payloads the gathers read from."""
        return len(set().union(*(s.payload_bytes_read for s in self.shards)))


def restore_sharded(
    record,
    ranks: int,
    device: DeviceSpec,
    contention: Sequence[float],
    upto: Optional[int] = None,
    read_bandwidth: Optional[float] = None,
    windows: Optional[int] = None,
    path: str = "sharded",
    **identity: Any,
) -> Tuple[np.ndarray, FleetRestoreReport]:
    """Reconstruct checkpoint *upto* of a record (a directory, a byte
    store or a view) across *ranks* simulated GPUs: the one restart
    restore, for every fan-out.

    *contention* holds each rank's PCIe contention factor.  The record's
    referenced frames are read once fleet-wide and priced at
    *read_bandwidth*.  With ``windows=None`` the window count is picked
    before execution from the plan's priced counts.  Every restore journals one ``restore`` event with
    *path* and the caller's *identity* (``node``, ``rank``,
    ``sim_time``).
    """
    if len(contention) != ranks:
        raise RestoreError(
            f"{len(contention)} contention factors for {ranks} ranks"
        )
    index, payload_of, resolved = resolve_source(record, upto)
    read_bytes = resolved.record_bytes_read

    model = KernelCostModel(device)
    with telemetry.span(
        "restore.shard.plan", ranks=ranks, upto=index.ckpt_id
    ) as span:
        plan = ShardedRestorePlan(index, ranks)
        read_seconds = model.price_read(read_bytes, read_bandwidth)
        gather_seconds = max(
            KernelCostModel(device, c).price_counts(s.planned_counts).total_seconds
            for s, c in zip(plan.shards, contention)
        )
        windows, predicted = pick_window_count(
            read_seconds,
            gather_seconds,
            per_window_overhead=device.pcie_latency,
            candidates=WINDOW_CANDIDATES if windows is None else (windows,),
        )
        span.set(
            windows=windows,
            sources=int(index.referenced().size),
            read_bytes=read_bytes,
            predicted_seconds=predicted,
        )

    spaces = [DeviceSpace(rank) for rank in range(ranks)]
    reports = [
        ShardReport(rank=s.rank, chunk_lo=s.chunk_lo, chunk_hi=s.chunk_hi)
        for s in plan.shards
    ]
    out = plan.materialize(
        payload_of, spaces=spaces, windows=windows, reports=reports
    )
    cost = model.price_fleet_restore(
        [space.ledger for space in spaces],
        restored_bytes=index.data_len,
        contention=contention,
        read_bytes=read_bytes,
        read_bandwidth=read_bandwidth,
        windows=windows,
    )
    report = FleetRestoreReport(
        target_ckpt=index.ckpt_id,
        num_ranks=ranks,
        windows=windows,
        data_len=index.data_len,
        frames_total=resolved.frames_total,
        frames_parsed=resolved.frames_parsed,
        record_bytes_read=read_bytes,
        index_bytes=resolved.index_bytes,
        predicted_seconds=predicted,
        cost=cost,
        shards=reports,
    )
    _SHARDED_RESTORES.inc()
    events.emit(
        events.RESTORE,
        path=path,
        target_ckpt=index.ckpt_id,
        chain_len=resolved.frames_total,
        ranks=ranks,
        windows=windows,
        state_bytes=int(out.nbytes),
        payload_bytes=report.total_payload_bytes_read,
        sources=report.sources,
        record_bytes_read=read_bytes,
        read_seconds=cost.read_seconds,
        gather_seconds=cost.gather_critical_seconds,
        critical_path_seconds=cost.critical_path_seconds,
        predicted_seconds=predicted,
        **identity,
    )
    return out, report
