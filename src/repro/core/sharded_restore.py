"""Sharded restore plan: fan one checkpoint's gathers out across N GPUs.

The per-source batched gathers of :func:`~repro.core.provenance.
materialize_index` are independent per chunk — chunk *c*'s bytes come
from exactly one ``(src_ckpt[c], src_off[c])`` location regardless of
what any other chunk does.  So a fleet restart can split the chunk range
of the target checkpoint across N simulated GPUs the same way the
strong-scaling driver splits a graph's vertex range: contiguous balanced
ranges, one per rank, each rank gathering and uploading only its own
byte extent.

:class:`ShardedRestorePlan` owns that decomposition.  It is pure data
path + metering: per-rank gathers run on per-rank ``ExecutionSpace``\\ s
(so each rank's ledger can be priced under its own PCIe contention by
``KernelCostModel.price_fleet_restore``), optionally split into W
windows whose uploads the restore-side streaming pipeline overlaps with
the shared storage read.  Output is bit-identical to the single-GPU
:func:`~repro.core.provenance.restore_indexed` by construction —
property-tested across every method × rank count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import RestoreError
from ..utils.validation import positive_int
from .chunking import ChunkSpec
from .provenance import (
    RAW_INDEX_BYTES_PER_CHUNK,
    ProvenanceIndex,
    materialize_index,
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

    @property
    def peak_payloads_held(self) -> int:
        """Distinct source payloads this rank's gathers needed resident.

        Bounded by the single-GPU restore's ``frames_referenced`` — a
        shard can only ever reference a subset of what the whole
        checkpoint references (asserted by the property tests).
        """
        return len(self.payload_bytes_read)


class ShardedRestorePlan:
    """Partition one checkpoint's provenance across N simulated GPUs.

    Built once per restore from the target's :class:`ProvenanceIndex`;
    :meth:`materialize` executes the per-rank gathers (window-major, so
    the metered ledger order matches the streaming pipeline's timeline)
    and :meth:`estimate_gather_seconds` gives the analytic worst-rank
    gather time the window auto-picker needs *before* execution.
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

    def estimate_gather_seconds(
        self, device, contention: Sequence[float]
    ) -> float:
        """Analytic worst-rank gather + H2D seconds (pre-execution).

        Mirrors the :class:`~repro.gpusim.perfmodel.KernelCostModel`
        linear terms for what :meth:`materialize` will meter with W=1:
        one gather launch per source payload (reading payload bytes +
        the shard's index slice, writing payload bytes) and one H2D of
        the shard extent under that rank's PCIe contention.  The window
        auto-picker needs this *before* any ledger exists.
        """
        if len(contention) < self.num_ranks:
            raise RestoreError(
                f"{len(contention)} contention factors for "
                f"{self.num_ranks} ranks"
            )
        worst = 0.0
        for shard in self.shards:
            launches = len(shard.sources)
            stream_bytes = (
                2 * shard.payload_bytes
                + launches * shard.num_chunks * RAW_INDEX_BYTES_PER_CHUNK
            )
            seconds = (
                launches * device.kernel_launch_latency
                + stream_bytes / device.effective_stream_bandwidth
                + device.pcie_latency
                + shard.state_bytes
                / (device.pcie_bandwidth / contention[shard.rank])
            )
            worst = max(worst, seconds)
        return worst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedRestorePlan ckpt={self.index.ckpt_id} "
            f"ranks={self.num_ranks} chunks={self._spec.num_chunks}>"
        )
