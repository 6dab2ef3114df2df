"""High-level public API: :class:`IncrementalCheckpointer`.

Wires an engine (Full/Basic/List/Tree), a simulated device, and a
checkpoint record together so applications only do::

    ckpt = IncrementalCheckpointer(data_len=buf.nbytes, chunk_size=128)
    ckpt.checkpoint(buf)          # each iteration
    ...
    restored = ckpt.restore(5)    # any checkpoint, any time

Every :meth:`checkpoint` call runs the real de-duplication data path,
prices the recorded kernels/transfers with the device cost model, and
appends a :class:`~repro.core.record.CheckpointStats` to the record.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Type

import numpy as np

from ..errors import ConfigurationError
from ..gpusim.device import DeviceSpec, a100
from ..gpusim.perfmodel import KernelCostModel
from ..utils.validation import positive_float
from .. import telemetry
from .base import DedupEngine
from .chunking import BufferLike
from .dedup_basic import BasicDedup
from .dedup_full import FullCheckpoint
from .dedup_list import ListDedup
from .dedup_tree import TreeDedup
from .record import CheckpointRecord, CheckpointStats

#: Method name → engine class (also the method axis of every bench).
ENGINES: Dict[str, Type[DedupEngine]] = {
    "full": FullCheckpoint,
    "basic": BasicDedup,
    "list": ListDedup,
    "tree": TreeDedup,
}


class IncrementalCheckpointer:
    """One process's checkpointing pipeline on one simulated GPU.

    Parameters
    ----------
    data_len:
        Fixed checkpoint size in bytes.
    chunk_size:
        De-duplication granularity (the Fig. 4 knob).
    method:
        ``"tree"`` (the paper's method), ``"list"``, ``"basic"`` or
        ``"full"``.
    device:
        Simulated GPU; defaults to an A100 as in the paper's testbeds.
    pcie_contention:
        ≥1 slowdown on D2H transfers (set by the scaling driver when
        several simulated GPUs share a node).
    fused:
        Record device work as fused kernels (paper default) or one launch
        per pass (ablation).
    payload_codec:
        Optional hybrid compression of the tree payload (paper §5); each
        frame names its codec, so restores need no argument.
    """

    def __init__(
        self,
        data_len: int,
        chunk_size: int,
        method: str = "tree",
        device: Optional[DeviceSpec] = None,
        pcie_contention: float = 1.0,
        fused: bool = True,
        payload_codec=None,
    ) -> None:
        if method not in ENGINES:
            raise ConfigurationError(
                f"unknown method {method!r}; choose from {sorted(ENGINES)}"
            )
        positive_float(pcie_contention, "pcie_contention")
        self.method = method
        self.device = device if device is not None else a100()
        kwargs = {"fused": fused}
        if method == "tree" and payload_codec is not None:
            kwargs["payload_codec"] = payload_codec
        elif payload_codec is not None:
            raise ConfigurationError("payload_codec is only supported by 'tree'")
        self.engine: DedupEngine = ENGINES[method](data_len, chunk_size, **kwargs)
        self.cost_model = KernelCostModel(self.device, pcie_contention=pcie_contention)
        self.record = CheckpointRecord(method)

    # ------------------------------------------------------------------
    def checkpoint(self, data: BufferLike) -> CheckpointStats:
        """Capture one checkpoint; returns its measurements."""
        wall_start = time.perf_counter()
        with telemetry.span(
            "checkpoint",
            space=self.engine.space,
            method=self.method,
            ckpt_id=self.engine.next_ckpt_id,
        ) as span:
            diff = self.engine.checkpoint(data)
            span.set(
                bytes=diff.serialized_size,
                chunks=self.engine.num_chunks,
                num_first=diff.num_first,
                num_shift=diff.num_shift,
            )
        wall = time.perf_counter() - wall_start
        # Price the cursor-scoped view of exactly this checkpoint's
        # records — never the raw ledger, which other consumers may read
        # or clear independently.
        cost = self.cost_model.price(self.engine.last_checkpoint_view())
        stats = CheckpointStats(
            ckpt_id=diff.ckpt_id,
            data_len=diff.data_len,
            stored_bytes=diff.serialized_size,
            metadata_bytes=diff.metadata_bytes,
            payload_bytes=diff.payload_bytes,
            num_first=diff.num_first,
            num_shift=diff.num_shift,
            cost=cost,
            wall_seconds=wall,
        )
        self.record.append(diff, stats)
        return stats

    def restore(self, upto: Optional[int] = None) -> np.ndarray:
        """Reconstruct checkpoint *upto* (default latest) from the record."""
        return self.record.restore(upto)

    # ------------------------------------------------------------------
    @property
    def num_checkpoints(self) -> int:
        """Checkpoints captured so far."""
        return len(self.record)

    def dedup_ratio(self, skip_first: bool = False) -> float:
        """Record-level de-duplication ratio (§3.2)."""
        return self.record.dedup_ratio(skip_first)

    def aggregate_throughput(self, skip_first: bool = False) -> float:
        """Record-level de-duplication throughput (§3.2)."""
        return self.record.aggregate_throughput(skip_first)

    def device_state_bytes(self) -> int:
        """Persistent device memory the engine holds between checkpoints."""
        return self.engine.device_state_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IncrementalCheckpointer {self.method} "
            f"chunk={self.engine.spec.chunk_size}B ckpts={self.num_checkpoints}>"
        )
