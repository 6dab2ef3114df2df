"""Sharded restore: partitioning, bit-identity, and buffer bounds.

The invariant everything here defends: for any valid chain and any rank
count, the sharded restore plan produces byte-for-byte the same state as
the single-GPU :func:`restore_indexed` — and no shard ever needs more
source payloads resident than the single-GPU restore does.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    ProvenanceBuilder,
    RestoreReport,
    ShardedRestorePlan,
    ShardReport,
    partition_chunks,
    restore_indexed,
    restore_sharded,
)
from repro.errors import RestoreError
from repro.gpusim import KernelCostModel, a100
from repro.kokkos.execution import DeviceSpace
from tests.conftest import ram_record

N = 64 * 80
CS = 64


def _chain(method, rng, steps=6, n=N):
    """A chain with overwrites, shifted content, and zero regions."""
    engine = ENGINES[method](n, CS)
    buf = np.zeros(n, dtype=np.uint8)
    buf[: n // 2] = rng.integers(0, 256, n // 2, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    states = [buf.copy()]
    for k in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, n - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        if k % 2 == 0:
            buf[CS * 4 : CS * 8] = buf[CS * 20 : CS * 24]
        diffs.append(engine.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


def _many_sources(rng, steps=30, n=64 * 400):
    """A chain whose newest row draws on every one of its *steps*
    checkpoints: each step rewrites three short scattered regions."""
    engine = ENGINES["tree"](n, CS)
    buf = rng.integers(0, 256, n, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    states = [buf.copy()]
    for _ in range(1, steps):
        buf = buf.copy()
        for _ in range(3):
            off = int(rng.integers(0, n // CS - 4)) * CS
            buf[off : off + 3 * CS] = rng.integers(0, 256, 3 * CS, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
        states.append(buf.copy())
    return diffs, states


def _index_of(diffs, upto=None):
    builder = ProvenanceBuilder()
    rows = [builder.append(d) for d in diffs]
    return rows[upto if upto is not None else len(diffs) - 1]


def _payload_fn(diffs):
    def payload_of(t):
        return np.frombuffer(diffs[t].payload, dtype=np.uint8)

    return payload_of


class TestPartitionChunks:
    def test_covers_range_contiguously(self):
        for chunks, ranks in [(80, 1), (80, 4), (80, 16), (81, 7), (5, 5)]:
            parts = partition_chunks(chunks, ranks)
            assert parts[0][0] == 0
            assert parts[-1][1] == chunks
            for (_, hi), (lo, _) in zip(parts, parts[1:]):
                assert hi == lo

    def test_balanced_within_one(self):
        parts = partition_chunks(100, 7)
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_ranks_than_chunks_rejected(self):
        with pytest.raises(RestoreError, match="cannot shard"):
            partition_chunks(3, 4)


class TestBitIdentity:
    @pytest.mark.parametrize("method", ["full", "basic", "list", "tree"])
    @pytest.mark.parametrize("ranks", [1, 4, 16])
    def test_matches_single_gpu(self, method, ranks, rng):
        diffs, states = _chain(method, rng)
        single, _ = restore_indexed(ram_record(diffs))
        assert np.array_equal(single, states[-1])
        plan = ShardedRestorePlan(_index_of(diffs), ranks)
        out = plan.materialize(_payload_fn(diffs))
        assert np.array_equal(out, single)

    @pytest.mark.parametrize("windows", [1, 2, 4, 7])
    def test_windows_do_not_change_bytes(self, windows, rng):
        diffs, states = _chain("tree", rng)
        plan = ShardedRestorePlan(_index_of(diffs), 4)
        out = plan.materialize(_payload_fn(diffs), windows=windows)
        assert np.array_equal(out, states[-1])

    def test_tail_chunk_handled(self, rng):
        diffs, states = _chain("tree", rng, n=N + 17)
        for ranks in (1, 3, 16):
            plan = ShardedRestorePlan(_index_of(diffs), ranks)
            out = plan.materialize(_payload_fn(diffs))
            assert np.array_equal(out, states[-1])

    def test_every_checkpoint_of_the_chain(self, rng):
        diffs, states = _chain("list", rng)
        for k in range(len(diffs)):
            plan = ShardedRestorePlan(_index_of(diffs, upto=k), 4)
            out = plan.materialize(_payload_fn(diffs))
            assert np.array_equal(out, states[k])

    def test_golden_oranges_trace(self):
        """Fixed-seed ORANGES trace: sharded == single-GPU, every rank count."""
        from repro.core import TreeDedup
        from repro.oranges import OrangesApp

        app = OrangesApp("unstructured_mesh", num_vertices=512, seed=2)
        engine = app.fresh_engine()
        tree = TreeDedup(engine.buffer_nbytes, 64)
        diffs = [
            tree.checkpoint(snap.reshape(-1).view(np.uint8))
            for snap in engine.checkpoint_stream(5)
        ]
        single, _ = restore_indexed(ram_record(diffs))
        golden = hashlib.sha256(single.tobytes()).hexdigest()
        for ranks in (1, 4, 16):
            plan = ShardedRestorePlan(_index_of(diffs), ranks)
            out = plan.materialize(_payload_fn(diffs))
            assert hashlib.sha256(out.tobytes()).hexdigest() == golden


class TestShardAccounting:
    def test_peak_buffers_bounded_by_single_gpu(self, rng):
        diffs, _ = _chain("tree", rng)
        index = _index_of(diffs)
        _, single = restore_indexed(ram_record(diffs))
        single_sources = single.frames_referenced
        assert single_sources == int(index.referenced().size)
        for ranks in (1, 4, 16):
            plan = ShardedRestorePlan(index, ranks)
            reports = [
                ShardReport(rank=s.rank, chunk_lo=s.chunk_lo, chunk_hi=s.chunk_hi)
                for s in plan.shards
            ]
            plan.materialize(_payload_fn(diffs), reports=reports)
            for report in reports:
                assert report.sources <= single_sources

    def test_payload_bytes_sum_matches_single_gpu(self, rng):
        diffs, _ = _chain("tree", rng)
        index = _index_of(diffs)
        single = RestoreReport(
            target_ckpt=index.ckpt_id,
            data_len=index.data_len,
            frames_total=len(diffs),
            frames_parsed=len(diffs),
        )
        from repro.core import materialize_index

        materialize_index(index, _payload_fn(diffs), report=single)
        plan = ShardedRestorePlan(index, 4)
        reports = [
            ShardReport(rank=s.rank, chunk_lo=s.chunk_lo, chunk_hi=s.chunk_hi)
            for s in plan.shards
        ]
        plan.materialize(_payload_fn(diffs), reports=reports)
        assert sum(r.total_payload_bytes_read for r in reports) == sum(
            single.payload_bytes_read.values()
        )

    def test_shard_specs_cover_payloads(self, rng):
        diffs, _ = _chain("basic", rng)
        index = _index_of(diffs)
        plan = ShardedRestorePlan(index, 5)
        gathered = int(np.count_nonzero(index.src_ckpt >= 0)) * CS
        assert plan.total_payload_bytes == gathered
        assert sum(s.state_bytes for s in plan.shards) == index.data_len


class TestValidation:
    def test_too_few_spaces_rejected(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        plan = ShardedRestorePlan(_index_of(diffs), 4)
        with pytest.raises(RestoreError, match="execution spaces"):
            plan.materialize(
                _payload_fn(diffs), spaces=[DeviceSpace(0), DeviceSpace(1)]
            )

    def test_too_few_contention_factors_rejected(self, rng):
        diffs, _ = _chain("full", rng, steps=2)
        with pytest.raises(RestoreError, match="contention factors"):
            restore_sharded(ram_record(diffs), 4, a100(), [1.0, 1.0])

    def test_estimate_positive_and_shrinks_with_ranks(self, rng):
        diffs, _ = _chain("tree", rng)
        index = _index_of(diffs)
        model = KernelCostModel(a100())

        def worst_rank(ranks):
            return max(
                model.price_counts(s.planned_counts).total_seconds
                for s in ShardedRestorePlan(index, ranks).shards
            )

        assert worst_rank(1) > 0
        assert worst_rank(16) < worst_rank(1)


class TestOnePricing:
    """The window pick prices the plan's counts with the one cost model,
    and a one-rank restart meters and prices exactly like the single-GPU
    gather."""

    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_planned_counts_price_like_executed_ledgers(self, ranks, rng):
        diffs, _ = _chain("tree", rng, n=N + 17)
        plan = ShardedRestorePlan(_index_of(diffs), ranks)
        spaces = [DeviceSpace(r) for r in range(ranks)]
        plan.materialize(_payload_fn(diffs), spaces=spaces)
        for shard, space in zip(plan.shards, spaces):
            model = KernelCostModel(a100(), 1.0 + 0.75 * shard.rank)
            planned = model.price_counts(shard.planned_counts).total_seconds
            executed = model.price(space.ledger).total_seconds
            assert planned == pytest.approx(executed, rel=1e-12)

    @pytest.mark.parametrize("ranks", [1, 4, 16])
    def test_planned_runs_are_the_executed_runs(self, ranks, rng):
        """One fused launch per rank, whose random accesses — the
        shard's source runs — the plan states before it executes."""
        diffs, _ = _many_sources(rng)
        index = _index_of(diffs)
        assert index.referenced().size >= 20
        plan = ShardedRestorePlan(index, ranks)
        spaces = [DeviceSpace(r) for r in range(ranks)]
        plan.materialize(_payload_fn(diffs), spaces=spaces)
        for shard, space in zip(plan.shards, spaces):
            (kernel,) = space.ledger.kernels
            assert shard.planned_counts.launches == kernel.launches == 1
            assert shard.planned_counts.random_accesses == kernel.random_accesses
            assert len(shard.sources) < kernel.random_accesses

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_window_pick_prices_what_the_windows_meter(self, ranks, rng):
        """With W ≥ 2 windows each (rank, window) gather is one launch and
        one H2D; the picker's prediction is the priced executed restore
        up to the runs a window boundary splits, at most W - 1 random
        accesses per rank."""
        diffs, states = _many_sources(rng)
        record = ram_record(diffs)
        device = a100()
        out, report = restore_sharded(
            record, ranks, device, [1.0] * ranks, read_bandwidth=1e9
        )
        assert np.array_equal(out, states[-1])
        assert report.sources >= 20
        assert report.windows >= 2
        slack = (report.windows - 1) * device.random_access_cost
        executed = report.critical_path_seconds
        assert report.predicted_seconds <= executed + 1e-15
        assert executed - report.predicted_seconds <= slack + 1e-15

    def test_one_rank_restart_is_the_single_gpu_gather(self, rng):
        diffs, _ = _chain("tree", rng)
        record = ram_record(diffs)
        space = DeviceSpace(0)
        single, read = restore_indexed(record, space=space)
        plan = ShardedRestorePlan(_index_of(diffs), 1)
        rank_space = DeviceSpace(0)
        plan.materialize(_payload_fn(diffs), spaces=[rank_space])
        assert rank_space.ledger.kernels == space.ledger.kernels
        assert rank_space.ledger.transfers == space.ledger.transfers

        model = KernelCostModel(a100(), 2.0)
        out, report = restore_sharded(
            record, 1, a100(), [2.0], read_bandwidth=1e9, windows=1
        )
        assert np.array_equal(out, single)
        assert report.record_bytes_read == read.record_bytes_read
        assert report.critical_path_seconds == pytest.approx(
            model.price_restore(
                space.ledger,
                len(single),
                read_bytes=read.record_bytes_read,
                read_bandwidth=1e9,
            ).seconds,
            rel=1e-12,
        )
