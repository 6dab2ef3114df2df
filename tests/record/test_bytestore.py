"""The byte store seam: the writer's commit order as a sequence of store
operations, one code path for a record in RAM and on disk, and the
directory store's one open and one read per verified frame."""

import os

import numpy as np

from repro.core import ENGINES, IncrementalCheckpointer
from repro.record import DirectoryStore, MemoryStore, RecordView, RecordWriter

N, CS = 64 * 64, 64


class RecordingStore(MemoryStore):
    """A RAM store that logs every operation as ``(op, name)``."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def _log(op):
        def wrapped(self, name, *args, **kwargs):
            self.ops.append((op, name))
            return getattr(MemoryStore, op)(self, name, *args, **kwargs)

        return wrapped

    create = _log("create")
    append = _log("append")
    pread = _log("pread")
    size = _log("size")
    replace = _log("replace")
    truncate = _log("truncate")
    remove = _log("remove")


def _chain(rng, n=4):
    engine = ENGINES["tree"](N, CS)
    state = rng.integers(0, 256, N, dtype=np.uint8)
    diffs = [engine.checkpoint(state)]
    for k in range(1, n):
        state = state.copy()
        state[k * 256 : k * 256 + 128] = rng.integers(0, 256, 128, dtype=np.uint8)
        diffs.append(engine.checkpoint(state))
    return diffs


def _writes(ops):
    return [(op, name) for op, name in ops if op not in ("pread", "size")]


class TestCommitOrder:
    def test_first_append_writes_frame_index_header_then_log(self, rng):
        store = RecordingStore()
        RecordWriter(store, method="tree").append(_chain(rng, 1)[0])
        assert _writes(store.ops) == [
            ("create", "ckpt-00000.rdif"),
            ("create", "provenance.rpix"),
            ("replace", "record.json"),
            ("create", "record.log"),
        ]

    def test_an_append_is_frame_then_index_group_then_log_entry(self, rng):
        diffs = _chain(rng)
        store = RecordingStore()
        writer = RecordWriter(store, method="tree")
        for diff in diffs[:-1]:
            writer.append(diff)
        store.ops.clear()
        writer.append(diffs[-1])
        assert _writes(store.ops) == [
            ("create", "ckpt-00003.rdif"),
            ("append", "provenance.rpix"),
            ("append", "record.log"),
        ]

    def test_reset_removes_the_log_first(self, rng):
        store = RecordingStore()
        writer = RecordWriter(store, method="tree")
        for diff in _chain(rng):
            writer.append(diff)
        store.ops.clear()
        writer.reset()
        removed = [name for op, name in store.ops if op == "remove"]
        assert removed[0] == "record.log"
        assert sorted(removed) == sorted(
            ["record.log", "provenance.rpix", "record.json"]
            + [f"ckpt-{k:05d}.rdif" for k in range(4)]
        )
        assert store.list() == [] and writer.count == 0


class TestOneRecordTwoStores:
    def test_a_ram_record_is_the_directory_record_byte_for_byte(self, rng, tmp_path):
        diffs = _chain(rng)
        ram, disk = MemoryStore(), DirectoryStore(tmp_path / "rec", create=True)
        for store in (ram, disk):
            writer = RecordWriter(store, method="tree")
            for diff in diffs:
                writer.append(diff)
        assert ram.list() == disk.list()
        for name in ram.list():
            assert ram.pread(name) == (tmp_path / "rec" / name).read_bytes(), name

    def test_a_unit_restores_from_its_own_record(self, rng, tmp_path):
        states = [rng.integers(0, 256, N, dtype=np.uint8)]
        for k in range(1, 5):
            states.append(states[-1].copy())
            states[-1][k * 300 : k * 300 + 200] = k
        ram = IncrementalCheckpointer(N, CS)
        disk = IncrementalCheckpointer(N, CS, record_dir=tmp_path / "rec")
        for unit in (ram, disk):
            for state in states:
                unit.checkpoint(state)
            for k, want in enumerate(states):
                assert np.array_equal(unit.restore(k), want), k
        assert RecordView(ram.record.writer.store).manifest() == (
            RecordView(tmp_path / "rec").manifest()
        )


class TestDirectoryReads:
    def test_a_verified_frame_is_one_open_and_one_read(
        self, rng, tmp_path, monkeypatch
    ):
        diffs = _chain(rng)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for diff in diffs:
            writer.append(diff)
        view = RecordView(tmp_path / "rec")
        calls = []
        for name in ("open", "pread", "read", "stat"):
            real = getattr(os, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(os, name, spy)
        payloads = view.payloads([1, 3])
        assert sorted(payloads) == [1, 3]
        assert calls == ["open", "pread", "open", "pread"]

    def test_a_missing_file_is_file_not_found_in_both_stores(self, tmp_path):
        for store in (MemoryStore(), DirectoryStore(tmp_path)):
            for op in (store.pread, store.size):
                try:
                    op("record.log")
                except FileNotFoundError:
                    continue
                raise AssertionError(f"{store!r}.{op.__name__} did not raise")
