"""Selective reconstruction: the provenance gather behind
``selective_restore`` and the accounting its report carries."""

import numpy as np
import pytest

from repro.core import ENGINES, Restorer, restore_indexed, selective_restore, verify_chain
from repro.core.diff import CheckpointDiff
from repro.errors import RestoreError, StorageError
from tests.conftest import ram_record


@pytest.fixture
def stream(rng):
    n = 64 * 200 + 9
    base = rng.integers(0, 256, n, dtype=np.uint8)
    out = [base.copy()]
    cur = base
    for _ in range(5):
        cur = cur.copy()
        idx = rng.integers(0, n, 80)
        cur[idx] = rng.integers(0, 256, 80, dtype=np.uint8)
        s = int(rng.integers(0, n - 2048))
        d = int(rng.integers(0, n - 2048))
        cur[d : d + 2048] = cur[s : s + 2048]
        out.append(cur.copy())
    return out


@pytest.mark.parametrize("method", sorted(ENGINES))
class TestAgreementWithChainRestore:
    def test_every_checkpoint_identical(self, stream, method):
        n = stream[0].shape[0]
        engine = ENGINES[method](n, 64)
        diffs = [engine.checkpoint(c) for c in stream]
        chain = Restorer().restore_all(diffs)
        for k in range(len(stream)):
            assert np.array_equal(selective_restore(diffs, k), chain[k]), f"ckpt {k}"


class TestPlanAccounting:
    def make_diffs(self, stream, method="tree"):
        engine = ENGINES[method](stream[0].shape[0], 64)
        return [engine.checkpoint(c) for c in stream]

    def test_reads_exactly_data_len(self, stream):
        """Every output byte is read exactly once from some payload."""
        diffs = self.make_diffs(stream)
        _, report = restore_indexed(ram_record(diffs))
        assert report.total_payload_bytes_read == stream[0].shape[0]

    def test_beats_naive_chain_io(self, stream):
        diffs = self.make_diffs(stream)
        _, report = restore_indexed(ram_record(diffs))
        naive = sum(d.payload_bytes for d in diffs)
        assert report.total_payload_bytes_read < naive

    def test_restore_of_checkpoint_zero_touches_one_diff(self, stream):
        diffs = self.make_diffs(stream)
        _, report = restore_indexed(ram_record(diffs), 0)
        assert report.frames_referenced == 1
        assert report.payload_bytes_read == {0: stream[0].shape[0]}

    def test_unchanged_checkpoints_read_only_base(self, rng):
        n = 64 * 50
        data = rng.integers(0, 256, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, 64)
        diffs = [engine.checkpoint(data) for _ in range(4)]
        _, report = restore_indexed(ram_record(diffs))
        assert report.payload_bytes_read == {0: n}

    def test_full_method_single_segment(self, stream):
        diffs = self.make_diffs(stream, method="full")
        _, report = restore_indexed(ram_record(diffs))
        assert report.payload_bytes_read == {len(diffs) - 1: stream[0].shape[0]}


class TestErrors:
    def test_empty_chain(self):
        with pytest.raises(StorageError, match="empty record"):
            selective_restore([])

    def test_out_of_range(self, stream):
        diffs = []
        engine = ENGINES["tree"](stream[0].shape[0], 64)
        diffs = [engine.checkpoint(c) for c in stream[:2]]
        with pytest.raises(RestoreError):
            selective_restore(diffs, 5)

    def test_out_of_order_chain(self, stream):
        engine = ENGINES["tree"](stream[0].shape[0], 64)
        diffs = [engine.checkpoint(c) for c in stream[:2]]
        with pytest.raises(StorageError, match="out of order"):
            selective_restore([diffs[1]])

    def test_cyclic_reference_detected(self, rng):
        n = 256
        d0 = CheckpointDiff(
            method="full", ckpt_id=0, data_len=n, chunk_size=64,
            payload=bytes(rng.integers(0, 256, n, dtype=np.uint8)),
        )
        # Two shifted chunks referencing each other within checkpoint 1:
        # each reads bytes the other shift destination writes, breaking
        # the §2.2 invariant every reconstructor's grouped apply relies on.
        d1 = CheckpointDiff(
            method="list", ckpt_id=1, data_len=n, chunk_size=64,
            shift_ids=np.array([0, 1], dtype=np.uint32),
            shift_ref_ids=np.array([1, 0], dtype=np.uint32),
            shift_ref_ckpts=np.array([1, 1], dtype=np.uint32),
        )
        problems = verify_chain([d0, d1])
        assert len(problems) == 2
        assert all("another shifted duplicate" in p for p in problems)
        with pytest.raises(RestoreError, match="ckpt 1"):
            Restorer().restore([d0, d1])
        # A record refuses the chain before any restore can read it.
        with pytest.raises(StorageError, match="cannot append checkpoint 1: ckpt 1"):
            ram_record([d0, d1])

    def test_same_checkpoint_shift_from_first_occurrence_passes(self, rng):
        n = 256
        d0 = CheckpointDiff(
            method="list", ckpt_id=0, data_len=n, chunk_size=64,
            first_ids=np.array([0], dtype=np.uint32),
            shift_ids=np.array([1, 2], dtype=np.uint32),
            shift_ref_ids=np.array([0, 0], dtype=np.uint32),
            shift_ref_ckpts=np.array([0, 0], dtype=np.uint32),
            payload=bytes(rng.integers(0, 256, 64, dtype=np.uint8)),
        )
        assert verify_chain([d0]) == []


class TestHelpers:
    def test_selective_restore_wrapper(self, stream):
        engine = ENGINES["tree"](stream[0].shape[0], 64)
        diffs = [engine.checkpoint(c) for c in stream]
        assert np.array_equal(selective_restore(diffs, 2), stream[2])

    def test_with_payload_codec(self, rng):
        from repro.compress import get_codec

        codec = get_codec("deflate")
        n = 64 * 64
        base = rng.integers(0, 4, n, dtype=np.uint8)
        engine = ENGINES["tree"](n, 64, payload_codec=codec)
        diffs = [engine.checkpoint(base)]
        nxt = base.copy()
        nxt[:512] = rng.integers(0, 4, 512, dtype=np.uint8)
        diffs.append(engine.checkpoint(nxt))
        out = selective_restore(diffs)
        assert np.array_equal(out, nxt)
