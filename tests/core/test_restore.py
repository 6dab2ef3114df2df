"""Tests for the restore engine (error paths beyond the round-trip tests)."""

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    Restorer,
    gather_states,
    restore_record_indexed,
    save_record,
)
from repro.core.diff import CheckpointDiff
from repro.errors import RestoreError, StorageError
from tests.conftest import ram_record


@pytest.fixture
def tree_chain(rng):
    n = 64 * 64
    base = rng.integers(0, 256, n, dtype=np.uint8)
    engine = ENGINES["tree"](n, 64)
    diffs = [engine.checkpoint(base)]
    cur = base.copy()
    for _ in range(3):
        cur = cur.copy()
        cur[:128] = rng.integers(0, 256, 128, dtype=np.uint8)
        diffs.append(engine.checkpoint(cur))
    return diffs


class TestRestoreApi:
    def test_restore_specific_checkpoint(self, tree_chain):
        out = Restorer().restore(tree_chain, upto=1)
        assert out.shape[0] == tree_chain[0].data_len

    def test_restore_default_latest(self, tree_chain):
        latest = Restorer().restore(tree_chain)
        explicit = Restorer().restore(tree_chain, upto=len(tree_chain) - 1)
        assert np.array_equal(latest, explicit)

    def test_empty_chain_rejected(self):
        with pytest.raises(RestoreError):
            Restorer().restore([])

    def test_out_of_range_rejected(self, tree_chain):
        with pytest.raises(RestoreError):
            Restorer().restore(tree_chain, upto=len(tree_chain))

    def test_out_of_order_chain_rejected(self, tree_chain):
        with pytest.raises(RestoreError):
            Restorer().restore_all([tree_chain[1]])

    def test_restore_all_returns_every_state(self, tree_chain):
        out = Restorer().restore_all(tree_chain)
        assert len(out) == len(tree_chain)


class TestCorruptionDetection:
    def test_full_payload_length_checked(self):
        diff = CheckpointDiff(
            method="full", ckpt_id=0, data_len=100, chunk_size=10, payload=b"short"
        )
        with pytest.raises(RestoreError):
            Restorer().restore_all([diff])

    def test_tree_payload_too_short(self, tree_chain):
        broken = CheckpointDiff(
            method=tree_chain[1].method,
            ckpt_id=tree_chain[1].ckpt_id,
            data_len=tree_chain[1].data_len,
            chunk_size=tree_chain[1].chunk_size,
            first_ids=tree_chain[1].first_ids,
            shift_ids=tree_chain[1].shift_ids,
            shift_ref_ids=tree_chain[1].shift_ref_ids,
            shift_ref_ckpts=tree_chain[1].shift_ref_ckpts,
            payload=tree_chain[1].payload[:-10],
        )
        with pytest.raises(RestoreError):
            Restorer().restore_all([tree_chain[0], broken])

    def test_forward_reference_rejected(self, rng):
        d0 = CheckpointDiff(
            method="full", ckpt_id=0, data_len=256, chunk_size=64,
            payload=bytes(rng.integers(0, 256, 256, dtype=np.uint8)),
        )
        d1 = CheckpointDiff(
            method="tree", ckpt_id=1, data_len=256, chunk_size=64,
            shift_ids=np.array([3], dtype=np.uint32),
            shift_ref_ids=np.array([4], dtype=np.uint32),
            shift_ref_ckpts=np.array([7], dtype=np.uint32),  # future ckpt
        )
        with pytest.raises(RestoreError):
            Restorer().restore_all([d0, d1])

    def test_node_out_of_tree_rejected(self, rng):
        d0 = CheckpointDiff(
            method="full", ckpt_id=0, data_len=256, chunk_size=64,
            payload=bytes(rng.integers(0, 256, 256, dtype=np.uint8)),
        )
        d1 = CheckpointDiff(
            method="tree", ckpt_id=1, data_len=256, chunk_size=64,
            first_ids=np.array([100], dtype=np.uint32),
            payload=b"x" * 64,
        )
        with pytest.raises(RestoreError):
            Restorer().restore_all([d0, d1])

    def test_length_change_mid_chain_rejected(self, rng):
        d0 = CheckpointDiff(
            method="full", ckpt_id=0, data_len=256, chunk_size=64,
            payload=bytes(256),
        )
        d1 = CheckpointDiff(
            method="full", ckpt_id=1, data_len=512, chunk_size=64,
            payload=bytes(512),
        )
        with pytest.raises(RestoreError):
            Restorer().restore_all([d0, d1])


class TestScrubbing:
    """Validation is part of every reconstruction: the replay oracle and
    the gather refuse the same damage, naming the same checkpoint."""

    def test_clean_chain_scrubs_identically(self, tree_chain):
        plain = Restorer().restore_all(tree_chain)
        gathered = list(gather_states(tree_chain))
        assert len(gathered) == len(plain)
        for a, b in zip(plain, gathered):
            assert np.array_equal(a, b)

    def _damaged(self, tree_chain, **overrides):
        src = tree_chain[2]
        kwargs = dict(
            method=src.method,
            ckpt_id=src.ckpt_id,
            data_len=src.data_len,
            chunk_size=src.chunk_size,
            first_ids=src.first_ids,
            shift_ids=src.shift_ids,
            shift_ref_ids=src.shift_ref_ids,
            shift_ref_ckpts=src.shift_ref_ckpts,
            payload=src.payload,
        )
        kwargs.update(overrides)
        chain = list(tree_chain)
        chain[2] = CheckpointDiff(**kwargs)
        return chain

    def test_scrub_names_first_bad_checkpoint(self, tree_chain):
        chain = self._damaged(tree_chain, payload=tree_chain[2].payload[:-7])
        for restore in (
            lambda: Restorer().restore_all(chain),
            lambda: list(gather_states(chain)),
        ):
            with pytest.raises(RestoreError, match="ckpt 2"):
                restore()
        # A record refuses the chain before any restore can read it.
        with pytest.raises(StorageError, match="cannot append checkpoint 2: ckpt 2"):
            ram_record(chain)

    def test_scrub_catches_forward_reference(self, rng):
        d0 = CheckpointDiff(
            method="full", ckpt_id=0, data_len=256, chunk_size=64,
            payload=bytes(rng.integers(0, 256, 256, dtype=np.uint8)),
        )
        d1 = CheckpointDiff(
            method="tree", ckpt_id=1, data_len=256, chunk_size=64,
            shift_ids=np.array([3], dtype=np.uint32),
            shift_ref_ids=np.array([4], dtype=np.uint32),
            shift_ref_ckpts=np.array([7], dtype=np.uint32),  # future ckpt
        )
        for restore in (
            lambda: Restorer().restore_all([d0, d1]),
            lambda: list(gather_states([d0, d1])),
        ):
            with pytest.raises(RestoreError, match="ckpt 1"):
                restore()

    def test_integrity_error_is_restorable_catch(self, tree_chain, tmp_path):
        """Legacy callers catching ReproError subclasses still work: a
        damaged frame surfaces as IntegrityError, which both catch."""
        from repro.errors import SerializationError, StorageError

        path = save_record(tree_chain, tmp_path / "rec")
        frame = path / "ckpt-00002.rdif"
        blob = bytearray(frame.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        frame.write_bytes(bytes(blob))
        with pytest.raises((SerializationError, StorageError)):
            restore_record_indexed(path, upto=2)


class TestMixedMethodChain:
    def test_full_then_tree_then_basic_like_chain(self, rng):
        """Chains mixing methods restore as long as each diff is valid —
        the initial full diff every engine emits is exactly this case."""
        n = 64 * 32
        base = rng.integers(0, 256, n, dtype=np.uint8)
        tree = ENGINES["tree"](n, 64)
        diffs = [tree.checkpoint(base)]
        assert diffs[0].method == "full"
        nxt = base.copy()
        nxt[:64] = 0
        diffs.append(tree.checkpoint(nxt))
        assert diffs[1].method == "tree"
        out = Restorer().restore_all(diffs)
        assert np.array_equal(out[1], nxt)


class TestReferenceWindow:
    """``restore(upto=k)`` must hold only the buffers the remaining chain
    still references — the satellite fix for full-chain memory blowup."""

    def test_full_chain_peaks_at_one_buffer(self, rng):
        n = 64 * 16
        engine = ENGINES["full"](n, 64)
        diffs = [
            engine.checkpoint(rng.integers(0, 256, n, dtype=np.uint8))
            for _ in range(6)
        ]
        restorer = Restorer()
        restorer.restore(diffs)
        # A full checkpoint references nothing: each state replaces the
        # previous one and at most the live pair coexists.
        assert restorer.peak_buffers_held <= 2

    def test_basic_chain_peaks_at_two_buffers(self, rng):
        n = 64 * 16
        engine = ENGINES["basic"](n, 64)
        buf = rng.integers(0, 256, n, dtype=np.uint8)
        diffs = [engine.checkpoint(buf)]
        for _ in range(7):
            buf = buf.copy()
            buf[:64] = rng.integers(0, 256, 64, dtype=np.uint8)
            diffs.append(engine.checkpoint(buf))
        restorer = Restorer()
        restorer.restore(diffs)
        # Basic diffs only need their immediate predecessor.
        assert restorer.peak_buffers_held == 2

    def test_windowed_restore_matches_restore_all(self, tree_chain):
        replay = Restorer().restore_all(tree_chain)
        for k in range(len(tree_chain)):
            restorer = Restorer()
            got = restorer.restore(tree_chain, upto=k)
            assert np.array_equal(got, replay[k])
            assert restorer.peak_buffers_held <= k + 1

    def test_restore_all_reports_full_history(self, tree_chain):
        restorer = Restorer()
        restorer.restore_all(tree_chain)
        assert restorer.peak_buffers_held == len(tree_chain)
