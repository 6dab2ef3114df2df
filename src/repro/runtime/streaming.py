"""Streaming de-duplication — the paper's §5 future-work item.

"Streaming methods that overlap de-duplication with transfers to the host
memory": instead of de-duplicating the whole checkpoint and then issuing
one D2H copy, the checkpoint is processed in windows and window *i*'s
transfer overlaps window *i+1*'s device work.

The data path is unchanged (windows are a scheduling construct); what
changes is the simulated timeline.  :class:`StreamingScheduler` re-prices
a checkpoint's cost breakdown under a W-window software pipeline:

* device time and transfer time are split evenly across windows (the
  dedup passes are data-parallel, so this is the natural decomposition);
* the makespan is the classic 2-stage pipeline bound —
  ``stage1 + stage2 + (W-1) * max(stage1, stage2) / W``-style overlap —
  priced by :func:`~repro.gpusim.perfmodel.pick_window_count`, the same
  recurrence and window pick the sharded restore uses;
* per-window transfer latency is charged per copy, so over-fine windows
  lose their benefit to DMA setup cost (the trade-off the paper would
  face in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..gpusim.device import DeviceSpec
from ..gpusim.perfmodel import WINDOW_CANDIDATES, CostBreakdown, pick_window_count
from ..utils.validation import positive_int
from .. import telemetry

_ESTIMATES = telemetry.counter(
    "streaming.estimates", "Window-pipeline re-pricings performed"
)


@dataclass(frozen=True)
class StreamingEstimate:
    """Simulated timings of one checkpoint under a window pipeline."""

    windows: int
    serial_seconds: float
    streamed_seconds: float

    @property
    def speedup(self) -> float:
        """Serial end-to-end time over pipelined time."""
        if self.streamed_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.streamed_seconds


class StreamingScheduler:
    """Re-prices checkpoint costs under dedup/transfer overlap."""

    def __init__(self, device: DeviceSpec, windows: int = 4) -> None:
        positive_int(windows, "windows")
        self.device = device
        self.windows = windows

    def estimate(self, cost: CostBreakdown) -> StreamingEstimate:
        """Pipeline a checkpoint whose serial cost is *cost*.

        The device stage of window *w* runs concurrently with the transfer
        stage of window *w-1*; both stages are FIFO.  Extra per-window DMA
        setup (``pcie_latency`` per additional copy) is charged against
        the transfer stage.
        """
        w, streamed = pick_window_count(
            cost.kernel_seconds,
            cost.transfer_seconds,
            per_window_overhead=self.device.pcie_latency,
            candidates=(self.windows,),
        )
        est = StreamingEstimate(
            windows=w,
            serial_seconds=cost.kernel_seconds + cost.transfer_seconds,
            streamed_seconds=streamed,
        )
        _ESTIMATES.inc()
        telemetry.instant(
            "streaming.estimate",
            windows=w,
            serial_seconds=est.serial_seconds,
            streamed_seconds=est.streamed_seconds,
        )
        return est

    def best_window_count(
        self, cost: CostBreakdown, candidates: Sequence[int] = WINDOW_CANDIDATES
    ) -> StreamingEstimate:
        """Pick the candidate window count minimising the makespan."""
        w, _ = pick_window_count(
            cost.kernel_seconds,
            cost.transfer_seconds,
            per_window_overhead=self.device.pcie_latency,
            candidates=candidates,
        )
        return StreamingScheduler(self.device, w).estimate(cost)
