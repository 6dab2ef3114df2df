"""Tests for the record report's per-checkpoint composition and the
chain verifier."""

import numpy as np
import pytest

from repro.core import ENGINES, CheckpointDiff, verify_chain
from repro.errors import StorageError
from repro.telemetry.attribution import attribute_record
from tests.conftest import ram_record


def _report(diffs):
    """The record report of *diffs* as a RAM record."""
    return attribute_record(ram_record(diffs), emit=False)


@pytest.fixture
def tree_diffs(rng):
    n = 64 * 128
    base = rng.integers(0, 256, n, dtype=np.uint8)
    engine = ENGINES["tree"](n, 64)
    diffs = [engine.checkpoint(base)]
    nxt = base.copy()
    nxt[: 16 * 64] = rng.integers(0, 256, 16 * 64, dtype=np.uint8)  # FIRST run
    nxt[32 * 64 : 40 * 64] = base[0 : 8 * 64]                       # SHIFT region
    diffs.append(engine.checkpoint(nxt))
    return diffs


class TestAnalyzeDiff:
    """Each checkpoint's composition, as the record report gives it."""

    def test_composition_partitions_buffer(self, tree_diffs):
        comp = _report(tree_diffs).checkpoints[1]
        assert (
            comp.first_bytes + comp.shift_bytes + comp.fixed_bytes + comp.zero_bytes
            == comp.data_len
        )
        assert comp.first_bytes == 16 * 64
        assert comp.shift_bytes == 8 * 64

    def test_full_checkpoint_all_first(self, tree_diffs):
        comp = _report(tree_diffs).checkpoints[0]
        assert comp.first_bytes == comp.data_len
        assert comp.fixed_bytes + comp.zero_bytes == 0

    def test_region_histograms(self, tree_diffs):
        comp = _report(tree_diffs).checkpoints[1]
        # 16 contiguous aligned FIRST chunks consolidate into one region.
        assert comp.first_region_chunks == {16: 1}
        assert comp.shift_region_chunks == {8: 1}

    def test_shift_targets(self, tree_diffs):
        comp = _report(tree_diffs).checkpoints[1]
        assert comp.shift_targets == {0: 1}

    def test_consolidation_factor(self, tree_diffs):
        comp = _report(tree_diffs).checkpoints[1]
        assert comp.consolidation_factor == pytest.approx((16 + 8) / 2)

    def test_changed_fraction(self, tree_diffs):
        comp = _report(tree_diffs).checkpoints[1]
        assert comp.changed_fraction == pytest.approx(24 * 64 / (128 * 64))

    def test_basic_and_list_methods(self, rng):
        n = 64 * 32
        base = rng.integers(0, 256, n, dtype=np.uint8)
        for method in ("basic", "list"):
            engine = ENGINES[method](n, 64)
            diffs = [engine.checkpoint(base)]
            nxt = base.copy()
            nxt[:64] = 0
            diffs.append(engine.checkpoint(nxt))
            comp = _report(diffs).checkpoints[1]
            assert comp.first_bytes == 64
            assert comp.fixed_bytes + comp.zero_bytes == n - 64

    def test_report_is_one_row_per_diff(self, tree_diffs):
        # Header x2 + one row per checkpoint + aggregate footer.
        summary = _report(tree_diffs).summary()
        assert len(summary.splitlines()) == len(tree_diffs) + 3

    def test_analyze_record_empty(self, tree_diffs):
        # A record whose one log entry is torn holds no checkpoint.
        store = ram_record(tree_diffs[:1])
        store.truncate("record.log", 7)
        with pytest.raises(StorageError, match="holds no checkpoint"):
            attribute_record(store, emit=False)

    def test_consolidation_none_on_empty_diff(self, rng):
        n = 64 * 16
        base = rng.integers(0, 256, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, 64)
        diffs = [engine.checkpoint(base), engine.checkpoint(base)]  # nothing changed
        comp = _report(diffs).checkpoints[1]
        assert comp.first_bytes == 0 and comp.shift_bytes == 0
        # No regions to consolidate: undefined, not infinite (JSON-safe).
        assert comp.consolidation_factor is None

    def test_report_renders_dash_for_empty_diff(self, rng):
        n = 64 * 16
        base = rng.integers(0, 256, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, 64)
        diffs = [engine.checkpoint(base), engine.checkpoint(base)]
        assert "—" in _report(diffs).summary()


def _seeded_chain(method):
    """Overwrites, an aligned copy into the middle and a copy of the head
    into the short tail chunk, on a fixed seed."""
    n = 64 * 96 + 17
    rng = np.random.default_rng(2024)
    engine = ENGINES[method](n, 64)
    state = rng.integers(0, 256, n, dtype=np.uint8)
    diffs = [engine.checkpoint(state)]
    for step in range(3):
        state = state.copy()
        state[step * 640 : step * 640 + 300] = rng.integers(0, 256, 300, dtype=np.uint8)
        state[4096 : 4096 + 1024] = state[128 * step : 128 * step + 1024]
        state[-200:] = state[:200]
        diffs.append(engine.checkpoint(state))
    return diffs


_FULL = ("full", 6161, 0, 0, 0, 6237, {97: 1}, {}, {})

#: (method, first_bytes, shift_bytes, fixed + zero bytes, metadata_bytes,
#: stored_bytes, first_region_chunks, shift_region_chunks, shift_targets)
#: per checkpoint of ``_seeded_chain(method)``.
PINNED_COMPOSITIONS = {
    "full": [_FULL] * 4,
    "basic": [
        _FULL,
        ("basic", 1553, 0, 4608, 13, 1642, {1: 25}, {}, {}),
        ("basic", 1344, 0, 4817, 13, 1433, {1: 21}, {}, {}),
        ("basic", 1344, 0, 4817, 13, 1433, {1: 21}, {}, {}),
    ],
    "list": [
        _FULL,
        ("list", 529, 1024, 4608, 228, 833, {1: 9}, {1: 16}, {0: 11, 1: 5}),
        ("list", 320, 1024, 4817, 212, 608, {1: 5}, {1: 16}, {0: 8, 1: 3, 2: 5}),
        ("list", 320, 1024, 4817, 212, 608, {1: 5}, {1: 16}, {0: 10, 1: 1, 2: 5}),
    ],
    "tree": [
        _FULL,
        ("tree", 529, 1024, 4608, 192, 797, {1: 1, 4: 2}, {1: 14, 2: 1}, {0: 11, 1: 4}),
        ("tree", 320, 1024, 4817, 192, 588, {1: 1, 2: 2}, {1: 14, 2: 1}, {0: 8, 1: 2, 2: 5}),
        ("tree", 320, 1024, 4817, 200, 596, {1: 1, 4: 1}, {1: 16}, {0: 10, 1: 1, 2: 5}),
    ],
}


@pytest.mark.parametrize("method", sorted(PINNED_COMPOSITIONS))
def test_analyze_record_pinned(method):
    got = [
        (
            c.method, c.first_bytes, c.shift_bytes, c.fixed_bytes + c.zero_bytes,
            c.metadata_bytes, c.stored_bytes, dict(c.first_region_chunks),
            dict(c.shift_region_chunks), dict(c.shift_targets),
        )
        for c in _report(_seeded_chain(method)).checkpoints
    ]
    assert got == PINNED_COMPOSITIONS[method]


class TestVerifyChain:
    def test_sound_chains_pass(self, rng):
        n = 64 * 64
        base = rng.integers(0, 256, n, dtype=np.uint8)
        for method in sorted(ENGINES):
            engine = ENGINES[method](n, 64)
            diffs = [engine.checkpoint(base)]
            nxt = base.copy()
            nxt[100:400] = 7
            diffs.append(engine.checkpoint(nxt))
            assert verify_chain(diffs) == [], method

    def test_empty_chain_reported(self):
        assert verify_chain([]) == ["chain is empty"]

    def test_out_of_order_reported(self, tree_diffs):
        assert any("out-of-order" in p for p in verify_chain([tree_diffs[1]]))

    def test_payload_mismatch_reported(self, tree_diffs):
        diff = tree_diffs[1]
        broken = CheckpointDiff(
            method=diff.method, ckpt_id=1, data_len=diff.data_len,
            chunk_size=diff.chunk_size, first_ids=diff.first_ids,
            shift_ids=diff.shift_ids, shift_ref_ids=diff.shift_ref_ids,
            shift_ref_ckpts=diff.shift_ref_ckpts,
            payload=diff.payload[:-4],
        )
        assert any("payload" in p for p in verify_chain([tree_diffs[0], broken]))

    def test_future_reference_reported(self, tree_diffs):
        diff = tree_diffs[1]
        broken = CheckpointDiff(
            method="tree", ckpt_id=1, data_len=diff.data_len,
            chunk_size=diff.chunk_size,
            shift_ids=np.array([254], dtype=np.uint32),
            shift_ref_ids=np.array([253], dtype=np.uint32),
            shift_ref_ckpts=np.array([9], dtype=np.uint32),
        )
        assert any("future" in p for p in verify_chain([tree_diffs[0], broken]))

    def test_node_out_of_range_reported(self, tree_diffs):
        broken = CheckpointDiff(
            method="tree", ckpt_id=1, data_len=tree_diffs[0].data_len,
            chunk_size=64,
            first_ids=np.array([10**6], dtype=np.uint32),
            payload=b"",
        )
        assert any("out of range" in p for p in verify_chain([tree_diffs[0], broken]))

    def test_geometry_change_reported(self, rng):
        d0 = CheckpointDiff(method="full", ckpt_id=0, data_len=128,
                            chunk_size=64, payload=bytes(128))
        d1 = CheckpointDiff(method="full", ckpt_id=1, data_len=256,
                            chunk_size=64, payload=bytes(256))
        assert any("geometry" in p for p in verify_chain([d0, d1]))
