"""Tests for the streaming (window-pipelined) scheduler."""

import pytest

from repro.gpusim import CostBreakdown, a100
from repro.gpusim.perfmodel import WINDOW_CANDIDATES, pick_window_count
from repro.runtime import StreamingScheduler


def cost(kernel=100e-6, transfer=100e-6):
    return CostBreakdown(stream_seconds=kernel, transfer_seconds=transfer)


class TestStreamingScheduler:
    def test_single_window_equals_serial(self):
        c = cost()
        est = StreamingScheduler(a100(), 1).estimate(c)
        assert est.streamed_seconds == pytest.approx(c.total_seconds)
        assert est.speedup == pytest.approx(1.0)

    def test_balanced_stages_approach_2x(self):
        c = cost(kernel=1.0, transfer=1.0)
        est = StreamingScheduler(a100(), 32).estimate(c)
        assert 1.7 < est.speedup < 2.0

    def test_imbalanced_stages_bounded_by_long_stage(self):
        c = cost(kernel=0.1, transfer=1.0)
        est = StreamingScheduler(a100(), 16).estimate(c)
        # Cannot beat the transfer-bound lower bound.
        assert est.streamed_seconds >= 1.0
        assert est.speedup < 1.2

    def test_more_windows_monotone_until_latency_bites(self):
        c = cost(kernel=200e-6, transfer=200e-6)
        times = [
            StreamingScheduler(a100(), w).estimate(c).streamed_seconds
            for w in (1, 2, 4)
        ]
        assert times[1] < times[0]
        assert times[2] < times[1]

    def test_latency_penalty_for_tiny_windows(self):
        # Tiny work, many windows: per-window DMA latency dominates and the
        # pipeline becomes slower than serial.
        c = cost(kernel=5e-6, transfer=5e-6)
        est = StreamingScheduler(a100(), 32).estimate(c)
        assert est.streamed_seconds > c.total_seconds

    def test_best_window_count_never_worse_than_serial(self):
        for kernel, transfer in [(1e-3, 1e-3), (1e-5, 1e-3), (1e-3, 1e-5)]:
            c = cost(kernel=kernel, transfer=transfer)
            best = StreamingScheduler(a100()).best_window_count(c)
            assert best.streamed_seconds <= c.total_seconds * (1 + 1e-9)

    def test_windows_validated(self):
        with pytest.raises(Exception):
            StreamingScheduler(a100(), 0)

    def test_estimate_fields(self):
        est = StreamingScheduler(a100(), 4).estimate(cost())
        assert est.windows == 4
        assert est.serial_seconds > 0


def stages_reference(stage1, stage2, windows, per_window_overhead=0.0):
    """The direction-agnostic window estimate as first written: stage 2
    pays the overhead once per window past the first, then the 2-stage
    FIFO recurrence over evenly split stages."""
    s1 = stage1 / windows
    s2 = (stage2 + (windows - 1) * per_window_overhead) / windows
    stage1_done = stage2_done = 0.0
    for _ in range(windows):
        stage1_done += s1
        stage2_done = max(stage2_done, stage1_done) + s2
    return stage2_done


class TestDirectionAgnosticStages:
    """The window picker both directions share: raw two-stage estimates
    from ``gpusim.perfmodel.pick_window_count``."""

    def test_estimate_delegates_to_stages(self):
        # The checkpoint-side estimate and the picker priced at one
        # window count are bit-identical to the reference recurrence.
        c = cost(kernel=300e-6, transfer=150e-6)
        latency = a100().pcie_latency
        for w in range(1, 33):
            reference = stages_reference(
                c.kernel_seconds, c.transfer_seconds, w, latency
            )
            assert pick_window_count(
                c.kernel_seconds,
                c.transfer_seconds,
                per_window_overhead=latency,
                candidates=(w,),
            ) == (w, reference)
            assert StreamingScheduler(a100(), w).estimate(
                c
            ).streamed_seconds == reference

    @pytest.mark.parametrize(
        "stage1,stage2",
        [
            (200e-6, 200e-6),  # checkpoint shape: kernel vs transfer
            (335e-6, 450e-6),  # restore shape: PFS read vs gather+H2D
        ],
    )
    def test_monotone_until_overhead_bites_both_directions(self, stage1, stage2):
        times = [
            pick_window_count(
                stage1,
                stage2,
                per_window_overhead=a100().pcie_latency,
                candidates=(w,),
            )[1]
            for w in (1, 2, 4)
        ]
        assert times[1] < times[0]
        assert times[2] < times[1]

    def test_best_window_count_stages_never_worse_than_serial(self):
        latency = a100().pcie_latency
        for stage1, stage2 in [(1e-3, 1e-3), (1e-5, 1e-3), (1e-3, 1e-5)]:
            windows, best = pick_window_count(
                stage1, stage2, per_window_overhead=latency
            )
            assert best <= (stage1 + stage2) * (1 + 1e-9)
            assert best == min(
                stages_reference(stage1, stage2, w, latency)
                for w in WINDOW_CANDIDATES
            )
            assert best == stages_reference(stage1, stage2, windows, latency)

    def test_overhead_free_stages_single_window_is_serial(self):
        windows, seconds = pick_window_count(1e-3, 2e-3, candidates=(1,))
        assert windows == 1
        assert seconds == pytest.approx(3e-3)
