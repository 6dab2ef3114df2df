"""The byte store seam: the writer's commit order as a sequence of store
operations, four files at any chain length, a cut after any store write
that leaves every sealed checkpoint restorable, one code path for a
record in RAM and on disk, the swap that replaces a record's history, and
the directory store's one open and one read per verified frame."""

import os

import numpy as np
import pytest

from repro.core import ENGINES, IncrementalCheckpointer, Restorer, rebase_stored_record
from repro.core.provenance import restore_indexed
from repro.record import DirectoryStore, MemoryStore, RecordView, RecordWriter
from repro.record import bytestore
from repro.runtime import NodeRuntime

N, CS = 64 * 64, 64


class RecordingStore(MemoryStore):
    """A RAM store that logs every operation as ``(op, name)``; the store a
    swap builds the new generation in logs to the same list."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def swap(self, build):
        def logged(staged):
            staged.ops = self.ops
            return build(staged)

        result = MemoryStore.swap(self, logged)
        self.ops.append(("swap", ""))
        return result

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


def _chain(rng, n=4):
    engine = ENGINES["tree"](N, CS)
    state = rng.integers(0, 256, N, dtype=np.uint8)
    diffs = [engine.checkpoint(state)]
    for k in range(1, n):
        state = state.copy()
        lo = k * 256 % (N - 128)
        state[lo : lo + 128] = rng.integers(0, 256, 128, dtype=np.uint8)
        diffs.append(engine.checkpoint(state))
    return diffs


def _writes(ops):
    return [(op, name) for op, name in ops if op not in ("pread", "size")]


def _states(rng, n=6):
    states = [rng.integers(0, 256, N, dtype=np.uint8)]
    for k in range(1, n):
        states.append(states[-1].copy())
        states[-1][k * 512 : k * 512 + 256] = rng.integers(0, 256, 256, dtype=np.uint8)
    return states


def _node_over(store):
    """A one-process node whose unit keeps its record in *store*."""
    node = NodeRuntime(N, CS, num_processes=1)
    node.checkpointers[0] = node._new_checkpointer(0, store)
    return node


def _checkpoint(node, states):
    for step, state in enumerate(states):
        node.checkpoint_all([state], now=float(step))


#: The record's files: the same four at any chain length.
FOUR_FILES = ["provenance.rpix", "record.json", "record.log", "record.pack"]


class TestCommitOrder:
    def test_first_append_writes_frame_index_header_then_log(self, rng):
        store = RecordingStore()
        RecordWriter(store, method="tree").append(_chain(rng, 1)[0])
        assert _writes(store.ops) == [
            ("create", "record.pack"),
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
            ("append", "record.pack"),
            ("append", "provenance.rpix"),
            ("append", "record.log"),
        ]

    def test_no_append_after_checkpoint_zero_creates_a_file(self, rng):
        diffs = _chain(rng, 12)
        store = RecordingStore()
        writer = RecordWriter(store, method="tree")
        writer.append(diffs[0])
        for diff in diffs[1:]:
            store.ops.clear()
            writer.append(diff)
            assert _writes(store.ops) == [
                ("append", "record.pack"),
                ("append", "provenance.rpix"),
                ("append", "record.log"),
            ], diff.ckpt_id
        assert store.list() == FOUR_FILES

    def test_two_hundred_appends_leave_four_files(self, rng, tmp_path):
        diffs = _chain(rng, 200)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for diff in diffs:
            writer.append(diff)
            assert sorted(p.name for p in (tmp_path / "rec").iterdir()) == FOUR_FILES
        view = RecordView(tmp_path / "rec")
        assert view.count == 200
        assert (tmp_path / "rec" / "record.pack").stat().st_size == view.log.pack_bytes
        assert view.frame_sizes() == [d.serialized_size for d in diffs]

    def test_a_restart_writes_the_new_generation_then_swaps(self, rng):
        """A restart writes nothing into the crashed unit's record: the
        seed checkpoint goes into a new store, in the append order, and
        one swap replaces the record by it."""
        store = RecordingStore()
        node = _node_over(store)
        _checkpoint(node, _states(rng))
        store.ops.clear()
        node.crash_restart(0, at_time=100.0)
        assert _writes(store.ops) == [
            ("create", "record.pack"),
            ("create", "provenance.rpix"),
            ("replace", "record.json"),
            ("create", "record.log"),
            ("swap", ""),
        ]
        assert RecordView(store).count == 1


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


class TestSwap:
    def test_a_ram_and_a_directory_record_rebase_byte_for_byte(self, rng, tmp_path):
        diffs = _chain(rng, 5)
        ram, disk = MemoryStore(), DirectoryStore(tmp_path / "rec", create=True)
        for store in (ram, disk):
            writer = RecordWriter(store, method="tree")
            for diff in diffs:
                writer.append(diff)
            rebase_stored_record(store, 2)
        assert ram.list() == disk.list() and RecordView(ram).count == 3
        for name in ram.list():
            assert ram.pread(name) == (tmp_path / "rec" / name).read_bytes(), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec"]

    @pytest.mark.parametrize("kind", ["memory", "directory"])
    def test_a_crash_at_every_restart_write_leaves_one_generation(
        self, rng, tmp_path, monkeypatch, kind
    ):
        """Cut a restart after each of its store writes in turn (the swap's
        renames and deletion included): the record is then the old
        generation, which still restores the durable checkpoint *k*, or
        the new one, whose checkpoint 0 is checkpoint *k*'s bytes."""
        states = _states(rng)
        k = len(states) - 1
        budget = _CrashBudget(monkeypatch)

        def attempt(writes, path):
            """The record a restart cut after *writes* writes leaves."""
            store = budget.store(kind, path)
            node = _node_over(store)
            _checkpoint(node, states)
            budget.count, budget.left = 0, writes
            try:
                node.crash_restart(0, at_time=100.0)
            except _Crash:
                pass
            finally:
                budget.left = None
            if kind == "directory":
                store = DirectoryStore(store.path)  # reopened after the crash
            return RecordView(store)

        attempt(None, tmp_path / "full")
        total = budget.count  # every write of one whole restart
        assert total >= 5
        seen = set()
        for writes in range(total + 1):
            view = attempt(writes, tmp_path / f"cut{writes}")
            if view.count == len(states):
                seen.add("old")
                assert np.array_equal(restore_indexed(view, k)[0], states[k])
            else:
                seen.add("new")
                assert view.count == 1
                assert np.array_equal(restore_indexed(view, 0)[0], states[k])
        assert seen == {"old", "new"}


class TestCutAppends:
    @pytest.mark.parametrize("kind", ["memory", "directory"])
    def test_a_cut_after_every_store_write_keeps_every_sealed_checkpoint(
        self, rng, tmp_path, monkeypatch, kind
    ):
        """Cut a chain of appends after each of its store writes in turn:
        the record then holds the checkpoints whose log entries were
        written, each restores bit-identically, and the next writer
        appends the rest into the same bytes as an uncut run."""
        diffs = _chain(rng, 5)
        states = Restorer().restore_all(diffs)
        budget = _CrashBudget(monkeypatch)

        def attempt(writes, path):
            store = budget.store(kind, path)
            budget.count, budget.left = 0, writes
            try:
                writer = RecordWriter(store, method="tree")
                for diff in diffs:
                    writer.append(diff)
            except _Crash:
                pass
            finally:
                budget.left = None
            return DirectoryStore(path) if kind == "directory" else store

        whole = attempt(None, tmp_path / "whole")
        total = budget.count
        assert total == 4 + 3 * (len(diffs) - 1)
        for writes in range(total + 1):
            store = attempt(writes, tmp_path / f"cut{writes}")
            # Checkpoint 0 is four writes, every later append three.
            sealed = 0 if writes < 4 else 1 + (writes - 4) // 3
            writer = RecordWriter(store, method="tree")
            assert writer.count == sealed, writes
            for k in range(sealed):
                view = RecordView(store)
                assert np.array_equal(restore_indexed(view, k)[0], states[k]), (writes, k)
            for diff in diffs[sealed:]:
                writer.append(diff)
            assert store.list() == whole.list() == FOUR_FILES
            for name in FOUR_FILES:
                assert store.pread(name) == whole.pread(name), (writes, name)


class _Crash(Exception):
    pass


class _CrashBudget:
    """Raises :class:`_Crash` in place of the store write after the first
    ``left`` ones (``None``: no limit), counting every write it lets by.
    A RAM store's writes are its operations, the file-table swap one of
    them; a directory store's are its operations and the swap's renames
    and deletion (a remove is its one ``os.unlink``)."""

    WRITES = ("create", "append", "replace", "truncate")

    def __init__(self, monkeypatch):
        self.left = None
        self.count = 0
        for name in ("rename", "unlink"):
            monkeypatch.setattr(bytestore.os, name, self._guard(getattr(os, name)))
        monkeypatch.setattr(
            bytestore.shutil, "rmtree", self._guard(bytestore.shutil.rmtree)
        )

    def _take(self):
        if self.left is not None:
            if self.left == 0:
                raise _Crash
            self.left -= 1
        self.count += 1

    def _guard(self, real):
        def guarded(*args, **kwargs):
            self._take()
            return real(*args, **kwargs)

        return guarded

    def store(self, kind, path):
        """A store of *kind* at *path* whose writes (and those of the store
        a swap builds beside it) spend this budget."""
        base = MemoryStore if kind == "memory" else DirectoryStore
        ops = self.WRITES + (("swap",) if kind == "memory" else ())
        counted = type("Counted", (base,), {op: self._counted(base, op) for op in ops})
        return counted() if kind == "memory" else counted(path, create=True)

    def _counted(self, base, op):
        budget = self

        def write(store, *args, **kwargs):
            if op != "swap":
                budget._take()
                return getattr(base, op)(store, *args, **kwargs)

            def build_then_take(staged):  # the table is replaced after *build*
                result = args[0](staged)
                budget._take()
                return result

            return base.swap(store, build_then_take)

        return write


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
