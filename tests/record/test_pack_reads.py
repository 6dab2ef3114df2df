"""Pack reads: a restore opens ``record.pack`` once and reads each run of
adjacent frames it names in one ``pread``, no byte of any other frame;
a run cut short by a short pack fails frame by frame exactly as one-frame
reads do, in a directory and in RAM; and a whole-record scan holds one
frame at a time."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.core import ENGINES, IncrementalCheckpointer
from repro.core.provenance import restore_record_indexed
from repro.core.store import load_provenance, save_record, verify_record
from repro.errors import IntegrityError, StorageError
from repro.record import PACK_FILE, DirectoryStore, MemoryStore, RecordView

N, CS = 64 * 64, 64


def _states(n=24, seed=5):
    """*n* states; each step rewrites one of 16 chunk slots with fresh
    bytes, so the newest row names frames in several runs with gaps."""
    rng = np.random.default_rng(seed)
    states = [rng.integers(0, 256, N, dtype=np.uint8)]
    for _ in range(1, n):
        state = states[-1].copy()
        at = int(rng.integers(0, 16)) * 4 * CS
        state[at : at + CS] = rng.integers(0, 256, CS, dtype=np.uint8)
        states.append(state)
    return states


def _record(store, states):
    engine = ENGINES["tree"](N, CS)
    return save_record([engine.checkpoint(s) for s in states], store, method="tree")


def _store(kind, tmp_path):
    return MemoryStore() if kind == "memory" else DirectoryStore(tmp_path / "rec", True)


def _runs(ids):
    """How many runs of consecutive checkpoints *ids* (ascending) form."""
    return sum(1 for i, k in enumerate(ids) if not i or ids[i - 1] != k - 1)


class _PackSpy:
    """Counts, per ``os.open`` of ``record.pack``, the ``pread`` calls on
    that descriptor and the bytes they return, until it is closed."""

    def __init__(self, monkeypatch):
        self.opens, self._fd = [], None
        real_open, real_pread, real_close = os.open, os.pread, os.close

        def spy_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if os.fspath(path).endswith(PACK_FILE):
                self.opens.append({"reads": 0, "bytes": 0})
                self._fd = fd
            return fd

        def spy_pread(fd, *args):
            blob = real_pread(fd, *args)
            if fd == self._fd:
                self.opens[-1]["reads"] += 1
                self.opens[-1]["bytes"] += len(blob)
            return blob

        def spy_close(fd):
            if fd == self._fd:
                self._fd = None
            return real_close(fd)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "pread", spy_pread)
        monkeypatch.setattr(os, "close", spy_close)


class TestOneOpenPerRestore:
    def test_a_cold_restore_opens_the_pack_once_and_reads_each_run_once(
        self, tmp_path, monkeypatch
    ):
        states = _states()
        path = _record(tmp_path / "rec", states)
        upto = len(states) - 1
        referenced = [int(t) for t in load_provenance(path, upto).referenced()]
        runs = _runs(referenced)
        assert 2 <= runs < len(referenced)
        sizes = RecordView(path).log.frame_bytes

        spy = _PackSpy(monkeypatch)
        out, report = restore_record_indexed(path, upto=upto)
        monkeypatch.undo()

        assert np.array_equal(out, states[upto])
        assert len(spy.opens) == 1
        assert spy.opens[0]["reads"] == runs
        # No byte of an unreferenced frame: the pack I/O is the report's.
        frame_bytes = sum(sizes[t] for t in referenced)
        assert spy.opens[0]["bytes"] == frame_bytes
        assert report.record_bytes_read - report.index_bytes == frame_bytes
        assert report.frames_parsed == len(referenced)

    @pytest.mark.parametrize("upto", [0, 5, 11, 23])
    def test_every_checkpoint_restores_through_its_runs(self, tmp_path, upto):
        states = _states()
        path = _record(tmp_path / "rec", states)
        out, _ = restore_record_indexed(path, upto=upto)
        assert np.array_equal(out, states[upto])


@pytest.mark.parametrize("kind", ["directory", "memory"])
class TestACutRun:
    """The pack cut inside frame *j* of a run: the frame at the cut is
    corrupt, every frame after it missing, with the messages a one-frame
    read gives."""

    CUT, KEEP = 5, 40

    def _cut(self, kind, tmp_path):
        states = _states(n=10)
        store = _record(_store(kind, tmp_path), states)
        log = RecordView(store).log
        store.truncate(PACK_FILE, log.frame_off[self.CUT] + self.KEEP)
        return store, log

    def test_verify_names_the_cut_frame_and_the_missing_ones(self, kind, tmp_path):
        store, log = self._cut(kind, tmp_path)
        report = verify_record(store)
        size = log.frame_bytes[self.CUT]
        want = (
            [("ok", "")] * self.CUT
            + [("corrupt", f"pack holds {self.KEEP} of its {size} bytes")]
            + [("missing", "record.pack ends before its frame")]
            * (log.count - self.CUT - 1)
        )
        assert [(c.status, c.detail) for c in report.checkpoints] == want
        assert not report.chain_ok and report.provenance_ok

    def test_a_run_fails_as_its_frames_fail_alone(self, kind, tmp_path):
        store, log = self._cut(kind, tmp_path)
        view = RecordView(store)
        for first in range(log.count):
            run = range(first, log.count)
            alone = _raised(lambda: view.payloads([first]))
            together = _raised(lambda: view.payloads(run))
            if first < self.CUT:
                assert alone is None
                continue
            assert type(together) is type(alone)
            assert str(together) == str(alone)
        cut = _raised(lambda: view.payloads(range(2, 8)))
        assert type(cut) is IntegrityError and cut.ckpt_id == self.CUT
        assert str(cut) == (
            f"{PACK_FILE} frame {self.CUT}: pack holds {self.KEEP} of its "
            f"{log.frame_bytes[self.CUT]} bytes"
        )
        missing = _raised(lambda: view.payloads([7, 8]))
        assert type(missing) is StorageError
        assert str(missing) == (
            f"record is missing checkpoint frame 7 "
            f"({PACK_FILE} ends before byte {log.frame_off[7]})"
        )

    def test_a_restore_past_the_cut_raises_what_one_frame_raises(self, kind, tmp_path):
        store, log = self._cut(kind, tmp_path)
        upto = log.count - 1
        referenced = load_provenance(store, upto).referenced()
        first = min(int(t) for t in referenced if t >= self.CUT)
        with pytest.raises(StorageError) as exc:
            restore_record_indexed(store, upto=upto)
        alone = _raised(lambda: RecordView(store).payloads([first]))
        assert type(exc.value) is type(alone) and str(exc.value) == str(alone)
        for k in range(self.CUT):
            restore_record_indexed(store, upto=k)


def _raised(fn):
    try:
        fn()
    except StorageError as exc:
        return exc
    return None


class TestAScanHoldsOneFrame:
    def test_verify_peak_is_one_frame(self, tmp_path):
        """Checkpoint 0 stores the whole 2 MiB buffer; the scan's traced
        peak stays within that one frame plus a small constant, so it
        neither reads the record as one run nor copies a frame's payload."""
        size = 1 << 21
        rng = np.random.default_rng(3)
        unit = IncrementalCheckpointer(size, 4096, record_dir=tmp_path / "rec")
        state = rng.integers(0, 256, size, dtype=np.uint8)
        unit.checkpoint(state)
        for k in range(1, 8):
            state = state.copy()
            state[k * 65536 : k * 65536 + 8192] = rng.integers(0, 256, 8192, np.uint8)
            unit.checkpoint(state)
        frames = RecordView(tmp_path / "rec").log.frame_bytes
        assert max(frames) > size and sorted(frames)[-2] < size // 8

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = verify_record(tmp_path / "rec")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < max(frames) + (256 << 10), peak
