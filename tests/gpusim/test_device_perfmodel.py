"""Tests for device specs and the kernel cost model."""

import pytest

from repro.gpusim import CostBreakdown, KernelCostModel, a100, laptop_gpu, v100
from repro.gpusim.device import DEVICE_PRESETS, DeviceSpec
from repro.kokkos import DeviceSpace
from repro.utils.units import GB


class TestDeviceSpec:
    def test_presets_exist(self):
        assert set(DEVICE_PRESETS) == {"a100", "v100", "laptop"}

    def test_a100_figures(self):
        dev = a100()
        assert dev.mem_bandwidth > 1e12
        assert dev.pcie_bandwidth == 25 * GB
        assert 0 < dev.stream_efficiency <= 1

    def test_effective_bandwidth(self):
        dev = a100()
        assert dev.effective_stream_bandwidth == pytest.approx(
            dev.mem_bandwidth * dev.stream_efficiency
        )

    def test_ordering_a100_fastest(self):
        assert a100().mem_bandwidth > v100().mem_bandwidth > laptop_gpu().mem_bandwidth

    def test_invalid_spec_rejected(self):
        with pytest.raises(Exception):
            DeviceSpec(
                name="bad",
                mem_bandwidth=-1,
                stream_efficiency=0.5,
                random_access_cost=1e-9,
                kernel_launch_latency=1e-6,
                pcie_bandwidth=1e9,
                pcie_latency=1e-5,
            )


class TestCostModel:
    def test_streaming_term(self):
        dev = a100()
        model = KernelCostModel(dev)
        space = DeviceSpace(0)
        space.launch("k", bytes_read=int(dev.effective_stream_bandwidth))
        cost = model.price(space.ledger)
        assert cost.stream_seconds == pytest.approx(1.0)
        assert cost.launch_seconds == pytest.approx(dev.kernel_launch_latency)

    def test_random_access_term(self):
        dev = a100()
        model = KernelCostModel(dev)
        space = DeviceSpace(0)
        space.launch("k", random_accesses=1_000_000)
        cost = model.price(space.ledger)
        assert cost.random_seconds == pytest.approx(1e6 * dev.random_access_cost)

    def test_transfer_term(self):
        dev = a100()
        model = KernelCostModel(dev)
        space = DeviceSpace(0)
        space.transfer("D2H", int(dev.pcie_bandwidth))
        cost = model.price(space.ledger)
        assert cost.transfer_seconds == pytest.approx(1.0 + dev.pcie_latency)

    def test_contention_slows_transfers_only(self):
        dev = a100()
        space = DeviceSpace(0)
        space.launch("k", bytes_read=1 << 20)
        space.transfer("D2H", 1 << 20)
        solo = KernelCostModel(dev, pcie_contention=1.0).price(space.ledger)
        shared = KernelCostModel(dev, pcie_contention=2.0).price(space.ledger)
        assert shared.transfer_seconds > solo.transfer_seconds
        assert shared.kernel_seconds == pytest.approx(solo.kernel_seconds)

    def test_contention_below_one_rejected(self):
        with pytest.raises(ValueError):
            KernelCostModel(a100(), pcie_contention=0.5)

    def test_per_kernel_attribution(self):
        model = KernelCostModel(a100())
        space = DeviceSpace(0)
        space.launch("hash", bytes_read=1 << 30)
        space.launch("serialize", bytes_read=1 << 20)
        cost = model.price(space.ledger)
        assert cost.per_kernel["hash"] > cost.per_kernel["serialize"]

    def test_throughput_metric(self):
        model = KernelCostModel(a100())
        space = DeviceSpace(0)
        space.transfer("D2H", 25 * GB)  # ~1 second
        thpt = model.throughput(space.ledger, payload_bytes=100 * GB)
        assert thpt == pytest.approx(100 * GB / (1.0 + a100().pcie_latency))

    def test_empty_ledger_infinite_throughput(self):
        model = KernelCostModel(a100())
        assert model.throughput(DeviceSpace(0).ledger, 100) == float("inf")

    def test_merged_breakdowns(self):
        a = CostBreakdown(stream_seconds=1.0, per_kernel={"x": 1.0})
        b = CostBreakdown(stream_seconds=2.0, transfer_seconds=3.0, per_kernel={"x": 2.0, "y": 1.0})
        m = a.merged(b)
        assert m.stream_seconds == 3.0
        assert m.transfer_seconds == 3.0
        assert m.per_kernel == {"x": 3.0, "y": 1.0}
        assert m.total_seconds == pytest.approx(6.0)

    def test_launch_latency_dominates_tiny_kernels(self):
        # The fused-kernel rationale: 1000 tiny launches cost ~1000x latency.
        dev = a100()
        model = KernelCostModel(dev)
        space = DeviceSpace(0)
        for _ in range(1000):
            space.launch("tiny", bytes_read=64)
        cost = model.price(space.ledger)
        assert cost.launch_seconds > 100 * cost.stream_seconds


class TestPipelineMakespan:
    def test_one_window_is_serial(self):
        from repro.gpusim import pipeline_makespan

        assert pipeline_makespan(1.0, 2.0, 1) == pytest.approx(3.0)

    def test_many_windows_approach_long_stage(self):
        from repro.gpusim import pipeline_makespan

        span = pipeline_makespan(1.0, 1.0, 64)
        assert 1.0 < span < 1.05

    def test_bounded_below_by_long_stage(self):
        from repro.gpusim import pipeline_makespan

        for w in (1, 2, 8, 32):
            assert pipeline_makespan(0.1, 1.0, w) >= 1.0
            assert pipeline_makespan(1.0, 0.1, w) >= 1.0


class TestFleetRestorePricing:
    def _ledger(self, nbytes):
        space = DeviceSpace(0)
        space.launch("gather", bytes_read=nbytes, bytes_written=nbytes)
        space.transfer("H2D", nbytes)
        return space.ledger

    def test_read_pricing_requires_bandwidth(self):
        model = KernelCostModel(a100())
        with pytest.raises(ValueError, match="read_bandwidth"):
            model.price_restore(self._ledger(1024), 1024, read_bytes=1024)

    def test_read_seconds_added_to_restore(self):
        model = KernelCostModel(a100())
        bare = model.price_restore(self._ledger(1 << 20), 1 << 20)
        read = model.price_restore(
            self._ledger(1 << 20), 1 << 20,
            read_bytes=250 * GB, read_bandwidth=250.0 * GB,
        )
        assert bare.read_seconds == 0.0
        assert read.read_seconds == pytest.approx(1.0)
        assert read.seconds == pytest.approx(bare.seconds + 1.0)
        assert read.gather_seconds == pytest.approx(bare.gather_seconds)

    def test_fleet_critical_path_is_worst_rank(self):
        model = KernelCostModel(a100())
        ledgers = [self._ledger(1 << 20), self._ledger(8 << 20)]
        fleet = model.price_fleet_restore(
            ledgers, restored_bytes=9 << 20, contention=[1.0, 1.0]
        )
        assert fleet.num_ranks == 2
        assert fleet.gather_critical_seconds == pytest.approx(
            max(c.gather_seconds for c in fleet.per_rank)
        )
        assert fleet.critical_path_seconds == pytest.approx(
            fleet.gather_critical_seconds
        )

    def test_contention_slows_ranks_individually(self):
        model = KernelCostModel(a100())
        ledgers = [self._ledger(1 << 20), self._ledger(1 << 20)]
        even = model.price_fleet_restore(
            ledgers, restored_bytes=2 << 20, contention=[1.0, 1.0]
        )
        skewed = model.price_fleet_restore(
            ledgers, restored_bytes=2 << 20, contention=[1.0, 4.0]
        )
        assert skewed.per_rank[0].seconds == pytest.approx(
            even.per_rank[0].seconds
        )
        assert skewed.per_rank[1].seconds > even.per_rank[1].seconds

    def test_cluster_supplies_contention_and_pfs(self):
        from repro.gpusim import thetagpu

        cluster = thetagpu()
        model = KernelCostModel(cluster.node.device)
        ledgers = [self._ledger(1 << 20) for _ in range(8)]
        fleet = model.price_fleet_restore(
            ledgers, restored_bytes=8 << 20, cluster=cluster,
            read_bytes=250 * GB,
        )
        # Eight processes on one ThetaGPU node share the host link.
        assert fleet.per_rank[0].breakdown.transfer_seconds > (
            KernelCostModel(cluster.node.device)
            .price_restore(self._ledger(1 << 20), 1 << 20)
            .breakdown.transfer_seconds
        )
        assert fleet.read_seconds == pytest.approx(1.0)

    def test_overlap_never_beats_long_stage_nor_loses_to_serial(self):
        model = KernelCostModel(a100())
        ledgers = [self._ledger(4 << 20) for _ in range(4)]
        serial = model.price_fleet_restore(
            ledgers, restored_bytes=16 << 20, contention=[1.0] * 4,
            read_bytes=64 << 20, read_bandwidth=250.0 * GB, windows=1,
        )
        overlapped = model.price_fleet_restore(
            ledgers, restored_bytes=16 << 20, contention=[1.0] * 4,
            read_bytes=64 << 20, read_bandwidth=250.0 * GB, windows=8,
        )
        assert serial.critical_path_seconds == pytest.approx(
            serial.serial_seconds
        )
        assert overlapped.critical_path_seconds < serial.critical_path_seconds
        assert overlapped.critical_path_seconds >= max(
            overlapped.read_seconds, overlapped.gather_critical_seconds
        ) * (1 - 1e-9)
        assert overlapped.overlap_saving_seconds > 0
