"""Common machinery for the four checkpointing methods of the evaluation.

Each engine owns its persistent device state (hash record, digest arrays),
produces one :class:`~repro.core.diff.CheckpointDiff` per call, and records
its kernel/transfer activity on a private
:class:`~repro.kokkos.DeviceSpace` ledger so the caller can price a single
checkpoint in isolation.

Checkpoints must all have the length declared at construction — the paper
checkpoints a fixed data structure (the GDV buffer), and the Merkle layout
plus fixed-duplicate semantics depend on stable chunk positions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..kokkos.execution import DeviceSpace, LedgerView
from ..utils.timing import PhaseTimer
from .. import telemetry
from .chunking import BufferLike, ChunkSpec
from .diff import CheckpointDiff


class DedupEngine(ABC):
    """Base class: validates inputs, numbers checkpoints, meters transfers.

    Parameters
    ----------
    data_len:
        Checkpoint size in bytes (fixed for the engine's lifetime).
    chunk_size:
        De-duplication granularity in bytes.
    space:
        Device ledger to record on; a fresh :class:`DeviceSpace` by default
        so concurrent engines do not interleave records.
    fused:
        When True (the paper's design), each checkpoint's device work is
        recorded as one fused kernel; when False every pass/level is its
        own launch — the ablation knob for
        ``bench_ablation_fusion``.
    """

    #: Method name matching :data:`repro.core.diff.METHODS`.
    name: str = "?"

    def __init__(
        self,
        data_len: int,
        chunk_size: int,
        space: Optional[DeviceSpace] = None,
        fused: bool = True,
    ) -> None:
        self.spec = ChunkSpec(data_len, chunk_size)
        self.space = space if space is not None else DeviceSpace(0)
        self.fused = bool(fused)
        self.next_ckpt_id = 0
        self.timer = PhaseTimer()
        self._ckpt_cursor = self.space.ledger.cursor()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def checkpoint(self, data: BufferLike) -> CheckpointDiff:
        """De-duplicate one checkpoint and return its diff.

        The engine's ledger is cleared first, so after this returns it
        describes exactly this checkpoint's device activity including the
        single consolidated D2H transfer.
        """
        flat = self.spec.validate_buffer(data)
        self.space.ledger.clear()
        self._ckpt_cursor = self.space.ledger.cursor()
        ckpt_id = self.next_ckpt_id
        with self.phase(f"{self.name}.process", ckpt_id=ckpt_id):
            if self.fused:
                with self.space.fused(f"dedup.{self.name}"):
                    diff = self._process(flat, ckpt_id)
            else:
                diff = self._process(flat, ckpt_id)
        # One consolidated device-to-host copy of the serialized diff.
        self.space.transfer("D2H", diff.serialized_size, count=1)
        self.next_ckpt_id += 1
        return diff

    def phase(self, name: str, **attrs):
        """Dual-clock phase span for this engine's device work.

        Wall seconds land in :attr:`timer` (telemetry on or off), so the
        pre-existing ``PhaseTimer`` accounting is unchanged; with
        telemetry enabled the span also captures the device-work delta
        from :attr:`space` for the simulated-time track.
        """
        return telemetry.span(name, space=self.space, timer=self.timer, **attrs)

    def last_checkpoint_view(self) -> LedgerView:
        """Ledger records of the most recent :meth:`checkpoint` call.

        Cursor-scoped (see :meth:`~repro.kokkos.KernelLedger.since`), so
        pricing consumers cannot double-count records even if another
        consumer clears or re-reads the ledger concurrently.
        """
        return self.space.ledger.since(self._ckpt_cursor)

    @property
    def num_chunks(self) -> int:
        """Chunks per checkpoint under the configured granularity."""
        return self.spec.num_chunks

    def device_state_bytes(self) -> int:
        """Device memory held *between* checkpoints (hash record, trees)."""
        return 0

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abstractmethod
    def _process(self, flat: np.ndarray, ckpt_id: int) -> CheckpointDiff:
        """Produce the diff for checkpoint *ckpt_id* over buffer *flat*."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} chunk={self.spec.chunk_size}B "
            f"n={self.spec.num_chunks} ckpts={self.next_ckpt_id}>"
        )
