"""Tests for CheckpointRecord aggregation and IncrementalCheckpointer."""

import numpy as np
import pytest

from repro.core import CheckpointRecord, IncrementalCheckpointer
from repro.errors import ConfigurationError, RestoreError
from repro.gpusim import laptop_gpu


@pytest.fixture
def stream(rng):
    n = 64 * 128
    base = rng.integers(0, 256, n, dtype=np.uint8)
    out = [base.copy()]
    cur = base
    for _ in range(4):
        cur = cur.copy()
        cur[: 4 * 64] = rng.integers(0, 256, 256, dtype=np.uint8)
        out.append(cur.copy())
    return out


class TestCheckpointer:
    def test_checkpoint_returns_stats(self, stream):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64)
        stats = ck.checkpoint(stream[0])
        assert stats.ckpt_id == 0
        assert stats.stored_bytes > 0
        assert stats.simulated_seconds > 0
        assert stats.throughput > 0

    def test_restore_any_checkpoint(self, stream):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64)
        for s in stream:
            ck.checkpoint(s)
        for i, want in enumerate(stream):
            assert np.array_equal(ck.restore(i), want)

    def test_dedup_ratio_grows_with_sparse_updates(self, stream):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64, method="tree")
        for s in stream:
            ck.checkpoint(s)
        assert ck.dedup_ratio() > 2.0
        assert ck.dedup_ratio(skip_first=True) > ck.dedup_ratio()

    def test_full_method_ratio_one(self, stream):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64, method="full")
        for s in stream:
            ck.checkpoint(s)
        # Slightly below 1.0: the Full method still pays the diff header.
        assert 0.99 < ck.dedup_ratio() <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            IncrementalCheckpointer(1024, 64, method="wavelet")

    def test_codec_only_for_tree(self):
        from repro.compress import get_codec

        with pytest.raises(ConfigurationError):
            IncrementalCheckpointer(
                1024, 64, method="basic", payload_codec=get_codec("deflate")
            )

    def test_device_override(self, stream):
        slow = IncrementalCheckpointer(
            stream[0].shape[0], 64, device=laptop_gpu()
        )
        fast = IncrementalCheckpointer(stream[0].shape[0], 64)
        s_slow = slow.checkpoint(stream[0])
        s_fast = fast.checkpoint(stream[0])
        assert s_slow.throughput < s_fast.throughput

    def test_contention_slows_throughput(self, stream):
        solo = IncrementalCheckpointer(stream[0].shape[0], 64)
        shared = IncrementalCheckpointer(
            stream[0].shape[0], 64, pcie_contention=4.0
        )
        assert (
            shared.checkpoint(stream[0]).throughput
            < solo.checkpoint(stream[0]).throughput
        )

    def test_num_checkpoints(self, stream):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64)
        for s in stream[:3]:
            ck.checkpoint(s)
        assert ck.num_checkpoints == 3

    def test_device_state_reported(self, stream):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64, method="tree")
        ck.checkpoint(stream[0])
        assert ck.device_state_bytes() > 0


class TestRecordAggregation:
    def make_record(self, stream, method="tree"):
        ck = IncrementalCheckpointer(stream[0].shape[0], 64, method=method)
        for s in stream:
            ck.checkpoint(s)
        return ck.record

    def test_totals(self, stream):
        record = self.make_record(stream)
        n = stream[0].shape[0]
        assert record.total_full_bytes() == n * len(stream)
        assert record.total_full_bytes(skip_first=True) == n * (len(stream) - 1)
        assert 0 < record.total_stored_bytes() <= record.total_full_bytes() + 1024

    def test_ratio_definition(self, stream):
        record = self.make_record(stream)
        assert record.dedup_ratio() == pytest.approx(
            record.total_full_bytes() / record.total_stored_bytes()
        )

    def test_aggregate_throughput_positive_finite(self, stream):
        record = self.make_record(stream)
        assert 0 < record.aggregate_throughput() < float("inf")

    def test_restore_through_record(self, stream):
        record = self.make_record(stream)
        assert np.array_equal(record.restore(2), stream[2])

    def test_out_of_order_append_rejected(self, stream):
        record = self.make_record(stream)
        other = self.make_record(stream)
        with pytest.raises(RestoreError):
            record.append(other.diffs[1], other.stats[1])

    def test_summary_mentions_method(self, stream):
        assert "tree" in self.make_record(stream).summary()

    def test_metadata_totals(self, stream):
        record = self.make_record(stream)
        assert record.total_metadata_bytes() >= 0
        assert record.total_metadata_bytes(skip_first=True) <= record.total_metadata_bytes() + 1

