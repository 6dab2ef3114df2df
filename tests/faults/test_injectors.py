"""Tests for the primitive fault injectors: each damages one checkpoint's
frame in a record's ``record.pack``, addressed by checkpoint and an
offset inside the frame."""

import numpy as np
import pytest

from repro.core import ENGINES
from repro.core.store import save_record, verify_record
from repro.errors import FaultError
from repro.faults import delete_frame, flip_bit, record_frames, truncate_frame
from repro.record import PACK_FILE
from tests.conftest import frame_extent, read_frame

N, CS = 64 * 64, 64


@pytest.fixture
def target(tmp_path):
    """A three-checkpoint record; its frame 1 is the usual target."""
    rng = np.random.default_rng(5)
    engine = ENGINES["tree"](N, CS)
    state = rng.integers(0, 256, N, dtype=np.uint8)
    diffs = [engine.checkpoint(state)]
    for k in (1, 2):
        state = state.copy()
        state[k * 512 : k * 512 + 256] = rng.integers(0, 256, 256, dtype=np.uint8)
        diffs.append(engine.checkpoint(state))
    return save_record(diffs, tmp_path / "rec", method="tree")


class TestFlipBit:
    def test_flips_exactly_one_bit(self, target):
        before = (target / PACK_FILE).read_bytes()
        original = read_frame(target, 1)
        receipt = flip_bit(target, 1, 10, bit=3)
        data = read_frame(target, 1)
        assert data[10] == original[10] ^ (1 << 3)
        assert data[:10] == original[:10]
        assert data[11:] == original[11:]
        offset, size = frame_extent(target, 1)
        after = (target / PACK_FILE).read_bytes()
        assert after[:offset] == before[:offset]
        assert after[offset + size :] == before[offset + size :]
        assert receipt.kind == "bitflip"
        assert receipt.detail == 10
        assert receipt.ckpt == 1

    def test_double_flip_restores(self, target):
        original = (target / PACK_FILE).read_bytes()
        flip_bit(target, 1, 42, bit=7)
        flip_bit(target, 1, 42, bit=7)
        assert (target / PACK_FILE).read_bytes() == original

    def test_missing_file(self, tmp_path):
        with pytest.raises(FaultError):
            flip_bit(tmp_path / "nope", 0, 0)

    def test_offset_out_of_range(self, target):
        _, size = frame_extent(target, 1)
        with pytest.raises(FaultError):
            flip_bit(target, 1, size)

    def test_bad_bit(self, target):
        with pytest.raises(FaultError):
            flip_bit(target, 1, 0, bit=8)

    def test_empty_file(self, target):
        """A frame the pack holds no byte of cannot take a flip."""
        truncate_frame(target, 1, 0)
        with pytest.raises(FaultError):
            flip_bit(target, 1, 0)


class TestTruncate:
    def test_shortens_file(self, target):
        """The cut is a torn tail: frame 1 keeps 100 bytes, frame 2 goes."""
        offset, _ = frame_extent(target, 1)
        original = read_frame(target, 1)
        receipt = truncate_frame(target, 1, 100)
        assert (target / PACK_FILE).stat().st_size == offset + 100
        assert read_frame(target, 1) == original[:100]
        assert (receipt.ckpt, receipt.detail) == (1, 100)
        statuses = [c.status for c in verify_record(target).checkpoints]
        assert statuses == ["ok", "corrupt", "missing"]

    def test_truncate_to_zero(self, target):
        offset, _ = frame_extent(target, 1)
        truncate_frame(target, 1, 0)
        assert (target / PACK_FILE).stat().st_size == offset
        assert [f.held for f in record_frames(target)][1:] == [0, 0]

    def test_must_shorten(self, target):
        _, size = frame_extent(target, 1)
        with pytest.raises(FaultError):
            truncate_frame(target, 1, size)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FaultError):
            truncate_frame(tmp_path / "nope", 0, 0)


class TestDelete:
    def test_removes_file(self, target):
        """A lost extent: frame 1's bytes read as zeros, its neighbours
        are untouched, and the frame is corrupt."""
        _, size = frame_extent(target, 1)
        neighbours = read_frame(target, 0), read_frame(target, 2)
        receipt = delete_frame(target, 1)
        assert read_frame(target, 1) == bytes(size)
        assert (read_frame(target, 0), read_frame(target, 2)) == neighbours
        assert receipt.detail == size
        statuses = [c.status for c in verify_record(target).checkpoints]
        assert statuses == ["ok", "corrupt", "ok"]

    def test_missing_file(self, tmp_path, target):
        with pytest.raises(FaultError):
            delete_frame(tmp_path / "nope", 0)
        with pytest.raises(FaultError):
            delete_frame(target, 3)  # not a checkpoint of the record


class TestRecordFiles:
    def test_sorted_chain_order(self, target):
        frames = record_frames(target)
        assert [f.ckpt for f in frames] == [0, 1, 2]
        offsets = [f.offset for f in frames]
        assert offsets == sorted(offsets) and offsets[0] == 0
        assert [f.held for f in frames] == [frame_extent(target, k)[1] for k in range(3)]

    def test_empty_dir(self, tmp_path, target):
        with pytest.raises(FaultError):
            record_frames(tmp_path / "nope")
        truncate_frame(target, 0, 0)
        with pytest.raises(FaultError):
            record_frames(target)
