"""RecordWriter: appends that cost what the diff costs, the sealed log as
commit point, byte-identity with save_record, RPIX v4 keyframes / deltas."""

import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.core import ENGINES, ProvenanceBuilder, RecordWriter, Restorer
from repro.core.diff import CheckpointDiff
from repro.core.provenance import restore_record_indexed
from repro.core.store import (
    load_provenance,
    load_record,
    record_manifest,
    save_record,
    verify_record,
)
from repro.errors import IntegrityError, ReproError, RestoreError, StorageError
from repro.record import RecordView
from repro.record import bytestore  # TestCrashPoints spies on its open()
from repro.record.index import (
    _GROUP_HEADER,
    _pack_planes,
    DELTA,
    KEYFRAME,
    changed_chunks,
    encode_group,
)
from repro.record.log import Log
from repro.telemetry import events
from repro.telemetry.health import WriteAmplificationRule, evaluate_health

DATA_LEN = 64 * 64
CHUNK = 64


def _chain(method, n, rng, data_len=DATA_LEN, chunk=CHUNK):
    """A deterministic n-checkpoint evolution under *method*."""
    base = rng.integers(0, 256, data_len, dtype=np.uint8)
    engine = ENGINES[method](data_len, chunk)
    out = [engine.checkpoint(base)]
    state = base.copy()
    for k in range(1, n):
        lo = (k * 97) % (data_len - 256)
        state[lo : lo + 256] = k % 256
        out.append(engine.checkpoint(state))
    return out


def _sparse_chain(n, rng, chunks=512):
    """One chunk rewritten with fresh bytes per step: 64-byte deltas beside
    keyframes of a few hundred — the delta side of the writer's size rule.
    Returns ``(diffs, states)``."""
    engine = ENGINES["tree"](chunks * CHUNK, CHUNK)
    state = rng.integers(0, 256, chunks * CHUNK, dtype=np.uint8)
    diffs, states = [engine.checkpoint(state)], [state]
    for k in range(1, n):
        state = state.copy()
        lo = ((k * 37) % chunks) * CHUNK
        state[lo : lo + CHUNK] = rng.integers(0, 256, CHUNK, dtype=np.uint8)
        diffs.append(engine.checkpoint(state))
        states.append(state)
    return diffs, states


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _log(directory):
    """The record's sealed log, one row per checkpoint (group offsets,
    lengths, kinds, ...)."""
    return [Log(*row) for row in zip(*RecordView(directory).log)]


def _keyframe_of(log, k):
    return max(j for j in range(k + 1) if log[j].group_kind == KEYFRAME)


class TestByteIdentity:
    @pytest.mark.parametrize("method", ["full", "basic", "list", "tree"])
    def test_n_appends_equal_whole_save(self, method, rng, tmp_path):
        diffs = _chain(method, 7, rng)
        save_record(diffs, tmp_path / "whole", method=method)
        with RecordWriter(tmp_path / "inc", method=method) as writer:
            for diff in diffs:
                writer.append(diff)
        assert _dir_bytes(tmp_path / "inc") == _dir_bytes(tmp_path / "whole")

    @pytest.mark.parametrize("method", ["full", "basic", "list", "tree"])
    def test_crash_reopen_midway_preserves_identity(self, method, rng, tmp_path):
        diffs = _chain(method, 8, rng)
        save_record(diffs, tmp_path / "whole", method=method)
        # "Crash": the first writer is abandoned without close() after
        # every few appends; each reopen must adopt the durable state.
        done = 0
        for stop in (3, 5, 8):
            writer = RecordWriter(tmp_path / "inc", method=method)
            assert writer.count == done
            for diff in diffs[done:stop]:
                writer.append(diff)
            done = stop
        assert _dir_bytes(tmp_path / "inc") == _dir_bytes(tmp_path / "whole")

    def test_durable_and_loadable_after_every_append(self, rng, tmp_path):
        # A reader beside an un-closed writer sees every prefix: keyframes
        # and deltas alike are committed by their log entry alone.
        diffs, states = _sparse_chain(32, rng)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for k, diff in enumerate(diffs):
            writer.append(diff)
            assert verify_record(tmp_path / "rec").ok
            out, report = restore_record_indexed(tmp_path / "rec")
            assert report.used_index and report.target_ckpt == k
            assert np.array_equal(out, states[k])
        assert {e.group_kind for e in _log(tmp_path / "rec")} == {KEYFRAME, DELTA}

    def test_orphan_index_bytes_survive_reopen(self, rng, tmp_path):
        # A crash between the row-group write and the log entry leaves
        # orphan bytes past the last group the log names; loads must
        # never read them and the next writer must truncate them away.
        diffs = _chain("tree", 6, rng)
        save_record(diffs, tmp_path / "whole", method="tree")
        writer = RecordWriter(tmp_path / "inc", method="tree")
        for diff in diffs[:5]:
            writer.append(diff)
        index_path = tmp_path / "inc" / "provenance.rpix"
        with open(index_path, "ab") as f:
            f.write(b"\x7ftorn-append-orphan-bytes")
        assert load_provenance(tmp_path / "inc") is not None
        writer = RecordWriter(tmp_path / "inc", method="tree")
        writer.append(diffs[5])
        assert _dir_bytes(tmp_path / "inc") == _dir_bytes(tmp_path / "whole")

    def test_a_swap_restarts_the_record(self, rng, tmp_path):
        """A record whose history a swap replaced is byte-identical to the
        new chain written whole, and its writer appends on from there."""
        first = _chain("tree", 4, rng)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for diff in first:
            writer.append(diff)
        second = _chain("tree", 4, rng)

        def build(staged):
            new = RecordWriter(staged, method="tree")
            for diff in second[:3]:
                new.append(diff)
            return new

        writer = writer.store.swap(build)
        assert writer.count == 3 and writer.path == tmp_path / "rec"
        writer.append(second[3])
        save_record(second, tmp_path / "whole", method="tree")
        assert _dir_bytes(tmp_path / "rec") == _dir_bytes(tmp_path / "whole")


class TestCrashPoints:
    """An append is frame → row-group → log entry, each a pure append onto
    a file checkpoint 0 created, and only the whole sealed entry commits: a
    crash anywhere leaves exactly the pre-append or the post-append
    record, never a third state."""

    N = 6

    @pytest.fixture
    def runs(self, rng, tmp_path):
        diffs = _chain("tree", self.N, rng)
        pre = save_record(diffs[:-1], tmp_path / "pre", method="tree")
        full = save_record(diffs, tmp_path / "full", method="tree")
        return diffs, pre, full

    def test_append_is_three_pure_appends_in_commit_order(
        self, runs, tmp_path, monkeypatch
    ):
        diffs, pre, full = runs
        before, after = _dir_bytes(pre), _dir_bytes(full)
        assert sorted(after) == sorted(before)
        for name, blob in before.items():
            assert after[name].startswith(blob), name
        grown = {n for n in before if len(after[n]) > len(before[n])}
        assert grown == {"provenance.rpix", "record.log", "record.pack"}
        assert len(after["record.log"]) - len(before["record.log"]) == 120
        frame = len(after["record.pack"]) - len(before["record.pack"])
        assert frame == diffs[-1].serialized_size

        # The order the three files are opened for writing in.
        opened = []

        def spy(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                opened.append(Path(file).name)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(bytestore, "open", spy, raising=False)
        RecordWriter(pre, method="tree").append(diffs[-1])
        assert opened == ["record.pack", "provenance.rpix", "record.log"]

    def test_every_crash_point_is_pre_or_post_append(self, runs, tmp_path):
        diffs, pre, full = runs
        states = Restorer().restore_all(diffs)
        before, after = _dir_bytes(pre), _dir_bytes(full)
        frame = after["record.pack"][len(before["record.pack"]) :]
        group = after["provenance.rpix"][len(before["provenance.rpix"]) :]
        entry = after["record.log"][len(before["record.log"]) :]

        def snapshots():
            """(what was being written, bytes of it on disk, files)."""
            files = dict(before)
            for cut in (0, len(frame) // 2, len(frame)):
                files["record.pack"] = before["record.pack"] + frame[:cut]
                yield "frame", cut, dict(files)
            for cut in np.linspace(1, len(group), 8).astype(int):
                files["provenance.rpix"] = before["provenance.rpix"] + group[:cut]
                yield "group", int(cut), dict(files)
            for cut in range(1, len(entry) + 1):
                files["record.log"] = before["record.log"] + entry[:cut]
                yield "entry", cut, dict(files)

        seen = 0
        for what, cut, files in snapshots():
            seen += 1
            where = f"crash after {cut} bytes of the {what}"
            snap = tmp_path / "snap"
            shutil.rmtree(snap, ignore_errors=True)
            snap.mkdir()
            for name, blob in files.items():
                (snap / name).write_bytes(blob)
            committed = (what, cut) == ("entry", len(entry))
            count = self.N if committed else self.N - 1

            # A reader, before any writer touches the directory.
            assert record_manifest(snap)["num_checkpoints"] == count, where
            assert verify_record(snap).ok, where
            for k in range(count):
                out, report = restore_record_indexed(snap, upto=k)
                assert report.used_index and np.array_equal(out, states[k]), where
            with pytest.raises(ReproError):
                restore_record_indexed(snap, upto=count)

            # The next writer: same bytes as if nothing had happened.
            writer = RecordWriter(snap, method="tree")
            assert writer.count == count, where
            for diff in diffs[count:]:
                writer.append(diff)
            assert _dir_bytes(snap) == after, where
        assert seen == 3 + 8 + 120


    def test_first_append_that_never_committed_holds_nothing(self, rng, tmp_path):
        # Header, frame and index prologue + group on disk, the log entry
        # torn: an empty record, reusable by any chain whatsoever.
        directory = save_record(_chain("tree", 1, rng), tmp_path / "rec", method="tree")
        log_path = directory / "record.log"
        log_path.write_bytes(log_path.read_bytes()[:-1])
        assert record_manifest(directory)["num_checkpoints"] == 0
        assert verify_record(directory).ok and load_record(directory) == []
        assert load_provenance(directory) is None
        with pytest.raises(RestoreError, match="outside record of 0"):
            restore_record_indexed(directory)
        assert RecordWriter(directory, method="tree").count == 0
        other = _chain("basic", 3, rng, data_len=32 * 64)
        save_record(other, directory, method="basic")
        fresh = save_record(other, tmp_path / "fresh", method="basic")
        assert _dir_bytes(directory) == _dir_bytes(fresh)


class TestWriterGuards:
    def test_closed_writer_refuses_appends(self, rng, tmp_path):
        diffs = _chain("tree", 2, rng)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        writer.append(diffs[0])
        writer.close()
        with pytest.raises(StorageError):
            writer.append(diffs[1])

    def test_geometry_mismatch_rejected(self, rng, tmp_path):
        writer = RecordWriter(tmp_path / "rec", method="tree")
        writer.append(_chain("tree", 1, rng)[0])
        other = _chain("tree", 1, rng, data_len=32 * 64)[0]
        with pytest.raises(StorageError):
            writer.append(other)

    def test_header_naming_other_files_refused_by_the_writer(self, rng, tmp_path):
        # Readers follow the names in record.json; a writer, which only
        # writes its own, must not append beside the files they name.
        directory = save_record(_chain("tree", 2, rng), tmp_path / "rec")
        header = json.loads((directory / "record.json").read_text())
        (directory / "record.log").rename(directory / "moved.log")
        (directory / "record.json").write_text(json.dumps({**header, "log": "moved.log"}))
        assert verify_record(directory).ok
        with pytest.raises(StorageError, match="does not write"):
            RecordWriter(directory)

    def test_torn_last_frame_detected_on_reopen(self, rng, tmp_path):
        diffs = _chain("tree", 3, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        pack = tmp_path / "rec" / "record.pack"
        pack.write_bytes(pack.read_bytes()[:-7])
        with pytest.raises(IntegrityError):
            RecordWriter(tmp_path / "rec", method="tree")

    def test_unindexable_appends_drop_index(self, rng, tmp_path):
        # A hand-shifted diff the builder rejects used to be appended with
        # the index dropped.  The writer now refuses it: the record keeps
        # its index and the right next checkpoint still lands.
        diffs = _chain("tree", 3, rng)
        bad = diffs[1]
        good_refs = bad.shift_ref_ckpts.copy()
        bad.shift_ref_ckpts = np.full_like(bad.shift_ref_ckpts, 99)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        writer.append(diffs[0])
        with pytest.raises(StorageError, match="cannot append checkpoint 1"):
            writer.append(bad)
        assert writer.count == 1
        bad.shift_ref_ckpts = good_refs
        writer.append(diffs[1])
        manifest = record_manifest(tmp_path / "rec")
        assert "provenance" in manifest
        assert load_provenance(tmp_path / "rec").num_checkpoints == 2

    def test_shift_of_a_chunk_its_checkpoint_did_not_store_is_refused(
        self, rng, tmp_path
    ):
        """Checkpoint 2 shifts chunk 1 of checkpoint 1, which checkpoint 1
        left FIXED: the replay oracle can copy it, but the first-store
        table holds no such chunk, so the builder raises and the writer —
        fresh or reopened — refuses the diff and leaves the record as it
        was."""
        data_len, chunk = 4 * 64, 64

        def diff(method, ckpt_id, payload, **ids):
            return CheckpointDiff(
                method=method, ckpt_id=ckpt_id, data_len=data_len,
                chunk_size=chunk, payload=payload,
                **{k: np.asarray(v, dtype=np.uint32) for k, v in ids.items()},
            )

        chain = [
            diff("full", 0, bytes(rng.integers(0, 256, data_len, dtype=np.uint8))),
            diff("list", 1, bytes(rng.integers(0, 256, chunk, dtype=np.uint8)),
                 first_ids=[0]),
            diff("list", 2, b"", shift_ids=[2], shift_ref_ids=[1],
                 shift_ref_ckpts=[1]),
        ]
        states = Restorer().restore_all(chain)
        assert np.array_equal(states[2][128:192], states[0][64:128])
        builder = ProvenanceBuilder()
        builder.extend(chain[:2])
        with pytest.raises(RestoreError, match="ckpt 2: .*chunk 1 of checkpoint 1"):
            builder.append(chain[2])

        fresh = RecordWriter(tmp_path / "fresh", method="list")
        for d in chain[:2]:
            fresh.append(d)
        directory = save_record(chain[:2], tmp_path / "rec", method="list")
        for writer in (fresh, RecordWriter(directory, method="list")):
            before = _dir_bytes(writer.path)
            with pytest.raises(
                StorageError, match="cannot append checkpoint 2: ckpt 2"
            ):
                writer.append(chain[2])
            assert writer.count == 2 and _dir_bytes(writer.path) == before


class TestWriterMemory:
    """The writer holds the newest row and the first-store table, not a
    row per checkpoint: its heap follows the stored chunks, not the chain."""

    def test_long_chain_heap_is_flat(self, tmp_path):
        import tracemalloc

        from repro import IncrementalCheckpointer

        data_len, chunk, rewrite, chain = 64 * 1024, 128, 256, 1001
        rng = np.random.default_rng(7)
        state = rng.integers(0, 256, data_len, dtype=np.uint8)
        directory = tmp_path / "rec"
        # Collected telemetry keeps a record per span; the heap measured
        # here is the unit's and the writer's own.
        was_enabled = telemetry.enabled()
        telemetry.disable()
        tracemalloc.start()
        try:
            unit = IncrementalCheckpointer(data_len, chunk, "tree", record_dir=directory)
            for k in range(chain):
                if k:
                    lo = int(rng.integers(0, data_len - rewrite))
                    state[lo : lo + rewrite] = rng.integers(
                        0, 256, rewrite, dtype=np.uint8
                    )
                unit.checkpoint(state)
                if k == 100:
                    at_100 = tracemalloc.get_traced_memory()[0]
            growth = tracemalloc.get_traced_memory()[0] - at_100
            del unit
            tracemalloc.stop()
            tracemalloc.start()
            writer = RecordWriter(directory, method="tree")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if was_enabled:
                telemetry.enable()
        assert writer.count == chain
        # The rows alone would be 900 x 512 chunks x 12 B, about 5.5 MB.
        assert growth <= 1 << 20, growth
        assert held <= 1 << 20, held


class TestFormatCompatibility:
    def test_v4_index_written_and_loads(self, rng, tmp_path):
        diffs = _chain("tree", 5, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        entry = record_manifest(tmp_path / "rec")["provenance"]
        assert entry["version"] == 4
        assert entry["rows"] == 5
        table = load_provenance(tmp_path / "rec")
        assert table.num_checkpoints == 5

    def test_v1_record_rejected_on_reopen(self, rng, tmp_path):
        from tests.conftest import v1_frame

        diffs = _chain("tree", 3, rng)
        directory = tmp_path / "rec"
        directory.mkdir()
        for i, diff in enumerate(diffs[:2]):
            (directory / f"ckpt-{i:05d}.rdif").write_bytes(v1_frame(diff))
        (directory / "record.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "method": "tree",
                    "num_checkpoints": 2,
                    "data_len": diffs[0].data_len,
                    "chunk_size": diffs[0].chunk_size,
                }
            )
        )
        with pytest.raises(StorageError, match="unsupported record format 1"):
            RecordWriter(directory, method="tree")
        with pytest.raises(StorageError, match="unsupported record format 1"):
            save_record(diffs, directory, method="tree")


class TestRowGroupDamage:
    @staticmethod
    def _damage_group(directory, group_idx):
        """Flip the first body byte of one row-group."""
        index_path = directory / "provenance.rpix"
        blob = bytearray(index_path.read_bytes())
        blob[_log(directory)[group_idx].group_off + _GROUP_HEADER.size] ^= 0xFF
        index_path.write_bytes(bytes(blob))

    def test_verify_names_the_damaged_group(self, rng, tmp_path):
        diffs = _chain("tree", 6, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        self._damage_group(tmp_path / "rec", 4)
        report = verify_record(tmp_path / "rec")
        assert not report.ok
        assert report.provenance_ok is False
        assert report.index_groups == 6
        assert report.index_bad_groups == [4]
        assert "row-groups damaged" in report.summary()

    def test_restore_beside_damage_still_works(self, rng, tmp_path):
        """Blast radius of index damage is the keyframe span [j, K] a
        restore of K reads: with every group outside it damaged, K still
        restores; damage any one group inside it and K is refused by the
        name of that group."""
        diffs, states = _sparse_chain(24, rng)
        clean = save_record(diffs, tmp_path / "clean", method="tree")
        log = _log(clean)
        targets = [0, 23] + [k for k in range(1, 23) if log[k].group_kind == DELTA][-3:]
        assert any(k - _keyframe_of(log, k) >= 2 for k in targets)
        for target in targets:
            first = _keyframe_of(log, target)
            directory = tmp_path / f"rec{target}"
            shutil.copytree(clean, directory)
            outside = [g for g in range(24) if not first <= g <= target]
            for g in outside:
                self._damage_group(directory, g)
            out, report = restore_record_indexed(directory, upto=target)
            assert report.used_index and np.array_equal(out, states[target])
            verdict = verify_record(directory)
            assert verdict.index_bad_groups == outside and not verdict.ok
            # Any one group of the span, on an otherwise clean record.
            for g in range(first, target + 1):
                shutil.rmtree(directory)
                shutil.copytree(clean, directory)
                self._damage_group(directory, g)
                with pytest.raises(IntegrityError, match=f"row-group {g} digest"):
                    restore_record_indexed(directory, upto=target)
                assert verify_record(directory).index_bad_groups == [g]

    def test_reopen_verifies_every_group(self, rng, tmp_path):
        """The reopen folds the index one row at a time but still checks
        every group: damage in group 3 of 20 stops it by that name."""
        diffs, _states = _sparse_chain(20, rng)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        self._damage_group(directory, 3)
        with pytest.raises(IntegrityError, match="row-group 3 "):
            RecordWriter(directory, method="tree")

    def test_any_flipped_log_byte_at_or_before_the_target_is_detected(
        self, rng, tmp_path
    ):
        diffs, _states = _sparse_chain(6, rng)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        log_path = directory / "record.log"
        clean = log_path.read_bytes()
        for target in (2, 5):
            for at in range(120 * (target + 1)):
                raw = bytearray(clean)
                raw[at] ^= 0x04
                log_path.write_bytes(bytes(raw))
                # IntegrityError — or, for the tail entry, which is then
                # simply not a checkpoint, "outside record of 5".
                with pytest.raises((IntegrityError, RestoreError)):
                    restore_record_indexed(directory, upto=target)

    def test_chain_digest_catches_group_swap(self, rng, tmp_path):
        # Replace a delta group by the *keyframe* of the same row: a
        # well-formed group that self-verifies and even decodes to the
        # right row — but not the bytes the sealed log vouches for.
        diffs, _states = _sparse_chain(8, rng)
        kinds = [e.group_kind for e in _log(save_record(diffs, tmp_path / "all"))]
        last = max(k for k, kind in enumerate(kinds) if kind == DELTA)
        directory = save_record(diffs[: last + 1], tmp_path / "rec", method="tree")
        log = _log(directory)
        assert log[last].group_kind == DELTA
        builder = ProvenanceBuilder()
        rows = [builder.append(d) for d in diffs]
        keyframe, digest = encode_group(rows[last])
        index_path = directory / "provenance.rpix"
        index_path.write_bytes(
            index_path.read_bytes()[: log[last].group_off] + keyframe
        )
        assert digest != log[last].group_sha
        report = verify_record(directory)
        assert report.provenance_ok is False and report.index_bad_groups == [last]
        with pytest.raises(IntegrityError, match=f"row-group {last}"):
            restore_record_indexed(directory, upto=last)


class TestSizeRule:
    """Group k is a delta iff the deltas since the last keyframe, k's
    included, stay smaller than that keyframe — both sides, counted."""

    @staticmethod
    def _runs(log):
        """[(keyframe bytes, bytes of the delta run after it)]."""
        runs = []
        for entry in log:
            if entry.group_kind == KEYFRAME:
                runs.append([entry.group_len, 0])
            else:
                runs[-1][1] += entry.group_len
        return runs

    def test_dense_chain_writes_only_keyframes(self, rng, tmp_path):
        """A quarter of the chunks rewritten per step: a delta (16 B per
        changed chunk) never beats the packed absolute row, and every
        group is byte for byte the absolute RPIX v3 group."""
        engine = ENGINES["tree"](DATA_LEN, CHUNK)
        state = rng.integers(0, 256, DATA_LEN, dtype=np.uint8)
        diffs = [engine.checkpoint(state)]
        for k in range(1, 12):
            state = state.copy()
            lo = (k * 5 % 48) * CHUNK
            state[lo : lo + DATA_LEN // 4] = rng.integers(
                0, 256, DATA_LEN // 4, dtype=np.uint8
            )
            diffs.append(engine.checkpoint(state))
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        log = _log(directory)
        assert [e.group_kind for e in log] == [KEYFRAME] * 12
        builder = ProvenanceBuilder()
        rows = [builder.append(d) for d in diffs]
        blob = (directory / "provenance.rpix").read_bytes()
        for k, entry in enumerate(log):
            row = rows[k]
            if k:
                changed = changed_chunks(rows[k - 1], row)
                assert 48 + 16 * changed.size >= log[k - 1].group_len
            body = _pack_planes(row.src_ckpt, row.src_off)
            digest = hashlib.sha256(struct.pack("<II", k, 1) + body).digest()
            v3_group = _GROUP_HEADER.pack(len(body), k, 1, digest) + body
            assert blob[entry.group_off :][: entry.group_len] == v3_group

    def test_sparse_chain_writes_mostly_deltas(self, rng, tmp_path):
        diffs, _states = _sparse_chain(48, rng)
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        log = _log(directory)
        kinds = [e.group_kind for e in log]
        assert kinds[0] == KEYFRAME
        assert kinds.count(DELTA) > kinds.count(KEYFRAME) > 1
        assert all(e.group_len == 48 + 16 for e in log if e.group_kind == DELTA)
        for keyframe_bytes, delta_bytes in self._runs(log):
            assert delta_bytes < keyframe_bytes
        # ... and each run stopped only because one more delta would not fit.
        for keyframe_bytes, delta_bytes in self._runs(log)[:-1]:
            assert delta_bytes + 64 >= keyframe_bytes

    def test_reopen_recovers_the_rule_state_from_the_log(self, rng, tmp_path):
        diffs, _states = _sparse_chain(40, rng)
        whole = save_record(diffs, tmp_path / "whole", method="tree")
        for stop in range(1, 40, 3):
            directory = tmp_path / f"inc{stop}"
            save_record(diffs[:stop], directory, method="tree")
            with RecordWriter(directory, method="tree") as writer:
                for diff in diffs[stop:]:
                    writer.append(diff)
            assert _dir_bytes(directory) == _dir_bytes(whole), stop


GOLDEN_N = 64 * 96 + 23  # short tail chunk
#: SHA-256 of every file ``save_record(_golden_chain(method))`` writes but
#: the pack, and of every frame in it.  The frame digests are the ones
#: pinned when each frame was a file of its own: frames have not changed
#: since.  ``provenance.rpix`` was captured once, with RPIX v4;
#: ``record.log`` with record format 4 (the log's frame column holds each
#: frame's content digest), and format 5 left it as it was.
#: ``record.json`` is the format-4 header with ``format_version`` 5.  The
#: reader may change; these bytes may not.
GOLDEN_SHA256 = {
    "basic": {
        "frame 0": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "frame 1": "6a86db49d4720f2fbbbd197b842b73ec5961b12985efc04c073727f827aa665a",
        "frame 2": "57c5679d3e961c472847fc8f25f8311e560efe084618e9877547d68a55da41c0",
        "frame 3": "657b2f301ad98040c54978e1c67a362b33fec2f93e609916ab024914d07b48bb",
        "frame 4": "364318b72e0a3a35485e4ba20ebaac2fbda3d6727d6b157ab80b355ba4aff63d",
        "frame 5": "18a4365d35676bbb9bede44cb99bc8fd1eb59360f85ec130acd5ebb1b3e8c966",
        "provenance.rpix": "593d2275ec710539f77f2d81c471934676557d1d7d14b86946d5f5204383c136",
        "record.json": "c9aa8cd6cc73c4755ab8143ee842433ec4be7831483c3653822c7f828d5b9a38",
        "record.log": "603eb2ed368082dc9f0c9e5924dfac7f939e50eddc970e56e4e10c194bad6286",
    },
    "full": {
        "frame 0": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "frame 1": "8832e2bc4f23ab18f59ac8cdfda1310c2f744cc654e61c546983a54df9a58974",
        "frame 2": "babc840f0b53e903599a2cc1517c2250a24d5b9b65c4c3ca894400876a3bede5",
        "frame 3": "2e3ee1465e506d291ab97e73af1a99bdd629b5104bd9176a2de41d58b9dedfc7",
        "frame 4": "66b433c1764e83c93af44c109918ed091f12d5b5e42e0843283d825a63f791bd",
        "frame 5": "6ec38f6d609e4bdcf8bb4e43469b42fe73b2748013eac1c7d65b51750ff9e96d",
        "provenance.rpix": "34a753681b57893bbbbdef1f05f61971185b00eb366758fe6d71669ba624d7e1",
        "record.json": "cfeec63d6e389f16c3513e6cf0ef94172b4b30fc4f1f72425d87ef9201285a10",
        "record.log": "38e29f6d249bef051ceaea889d0e392dfb56454121c4918e65246ee0485aae66",
    },
    "list": {
        "frame 0": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "frame 1": "f2b0f0f4e8af4d02ba3cb112b96c30c0202b781fc01ecbf749c9d001a4b5eabc",
        "frame 2": "5d53e4561ccff2e99e08d3dd82f1da73eaa3d4ce264211b29ce677a5c46817f9",
        "frame 3": "7b13fc500a6382fb829691c6550a54509cdfc00182bc5727cec0fa31d9c08be9",
        "frame 4": "7eab97cf9565166b9028500178f50ffef5a84fd747c8ea7159c9e52d60319bc7",
        "frame 5": "8fb0fa7233488abeb203ae600365cdaf398012317e9d426cffa21cea40b8eb49",
        "provenance.rpix": "96bf00d836f04c0e2da7e5ddffceb668c3f99c95871764244d085c90a05c4ed9",
        "record.json": "a3f806b36ae094257cee252f37d0d54f8362b017a49ed2b48c4738a6b1fb550c",
        "record.log": "9a317831f4522b5e015ce3415885094049ecc54a6cdd82675d882bf471190579",
    },
    "tree": {
        "frame 0": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "frame 1": "64c3605f830c6fcee16f5267bb95fc478755dd0f46d918048c9b5917a65c50dd",
        "frame 2": "fc0198d3cdfd5a13bca61fb55d814c2748d44518a381cadf50772e99e3cf8f4b",
        "frame 3": "b0efba47423e4845aa65e33809d64e3bda1814dac97e83fe17d459970793d6a4",
        "frame 4": "9030ccb087bace84c6cdcdd007166921c8883003f6d854a381d3613c3bfdf4c9",
        "frame 5": "b46c742248ad2ec31bb762b14e6d35cb56a13a1315f08635f0a82fa25c05c2fd",
        "provenance.rpix": "d17bf061dc54f434a3ecc58cb6d78b4c49f2d4cb683396912e0185cc2e4d204d",
        "record.json": "654274b18946d15a3caac2849ac6203f1450f3769fcc9b39792f3621eb482e97",
        "record.log": "7f0178cedefa5c4396a436b2f5e7427deb7e91117bf2a9b64236fb7ce119f63e",
    },
}


def _noise(n, salt):
    """Deterministic bytes without numpy's RNG (its streams may change)."""
    x = np.arange(n, dtype=np.uint64) + np.uint64(salt * 7919 + 1)
    return ((x * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(56)).astype(np.uint8)


def _golden_chain(method):
    """Six checkpoints: overwrites, a run stored by an earlier checkpoint,
    a run stored twice in one checkpoint, a never-written zero half."""
    engine = ENGINES[method](GOLDEN_N, CHUNK)
    buf = np.zeros(GOLDEN_N, dtype=np.uint8)
    buf[: GOLDEN_N // 2] = _noise(GOLDEN_N // 2, 0)
    diffs = [engine.checkpoint(buf)]
    for k in range(1, 6):
        buf = buf.copy()
        off = (k * 1237) % (GOLDEN_N - 700)
        buf[off : off + 640] = _noise(640, k)
        if k % 2 == 0:
            buf[CHUNK * (4 + k) : CHUNK * (8 + k)] = buf[
                CHUNK * (20 + k) : CHUNK * (24 + k)
            ]
        else:
            buf[CHUNK * 70 : CHUNK * 74] = buf[CHUNK * 80 : CHUNK * 84] = _noise(
                4 * CHUNK, 100 + k
            )
        diffs.append(engine.checkpoint(buf))
    return diffs


def _dir_sha256(path):
    """SHA-256 of each record file but the pack, and of each frame of the
    pack (``frame k``), which holds nothing else."""
    files = _dir_bytes(path)
    assert sorted(files) == ["provenance.rpix", "record.json", "record.log", "record.pack"]
    pack = files.pop("record.pack")
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in files.items()}
    log = RecordView(path).log
    assert len(pack) == log.pack_bytes
    for k, (offset, size) in enumerate(zip(log.frame_off, log.frame_bytes)):
        digests[f"frame {k}"] = hashlib.sha256(pack[offset : offset + size]).hexdigest()
    return digests


@pytest.mark.parametrize("method", sorted(GOLDEN_SHA256))
class TestGoldenRecordBytes:
    """The on-disk format is frozen: frames, header, log and index of a
    fixed chain hash to the pinned digests, however they are written."""

    def test_whole_save_matches_golden_and_reads_back(self, method, tmp_path):
        diffs = _golden_chain(method)
        directory = save_record(diffs, tmp_path / "rec", method=method)
        assert _dir_sha256(directory) == GOLDEN_SHA256[method]
        assert verify_record(directory).ok
        for k, want in enumerate(Restorer().restore_all(diffs)):
            out, report = restore_record_indexed(directory, upto=k)
            assert report.used_index and np.array_equal(out, want)

    def test_reopen_then_append_matches_golden(self, method, tmp_path):
        diffs = _golden_chain(method)
        save_record(diffs[:4], tmp_path / "rec", method=method)
        with RecordWriter(tmp_path / "rec", method=method) as writer:
            for diff in diffs[4:]:
                writer.append(diff)
        assert _dir_sha256(tmp_path / "rec") == GOLDEN_SHA256[method]


def _golden_sparse_chain():
    """Twelve tree checkpoints, one fresh chunk each: the golden chain
    above only ever writes keyframes, this one pins delta groups too."""
    engine = ENGINES["tree"](GOLDEN_N, CHUNK)
    buf = _noise(GOLDEN_N, 0)
    diffs = [engine.checkpoint(buf)]
    for k in range(1, 12):
        buf = buf.copy()
        buf[CHUNK * 7 * k : CHUNK * (7 * k + 1)] = _noise(CHUNK, 200 + k)
        diffs.append(engine.checkpoint(buf))
    return diffs


#: ``provenance.rpix`` captured once, with the RPIX v4 deltas;
#: ``record.log`` with record format 4.
GOLDEN_SPARSE_SHA256 = {
    "provenance.rpix": "8bc3265fbae124253c59bbc69681d0a321e0e8809416affccd0be3a5e1624621",
    "record.log": "00d3e738fa001995c30f821292d8e98f5ffc3f5d4139895e193c6dbe1ef958bd",
}
GOLDEN_SPARSE_KINDS = "KDDKDDKDDDKD"


def test_sparse_golden_pins_delta_group_bytes(tmp_path):
    diffs = _golden_sparse_chain()
    whole = save_record(diffs, tmp_path / "whole", method="tree")
    save_record(diffs[:5], tmp_path / "inc", method="tree")
    with RecordWriter(tmp_path / "inc", method="tree") as writer:
        for diff in diffs[5:]:
            writer.append(diff)
    for directory in (whole, tmp_path / "inc"):
        got = _dir_sha256(directory)
        assert {name: got[name] for name in GOLDEN_SPARSE_SHA256} == GOLDEN_SPARSE_SHA256
    kinds = "".join("KD"[e.group_kind - 1] for e in _log(whole))
    assert kinds == GOLDEN_SPARSE_KINDS
    for k, want in enumerate(Restorer().restore_all(diffs)):
        out, report = restore_record_indexed(whole, upto=k)
        assert report.used_index and np.array_equal(out, want)


class TestOneRowDecoded:
    """A restore decodes the one row it names from its keyframe span —
    one keyframe plus the deltas up to it — counted, not timed."""

    CHAIN = 64

    @pytest.fixture
    def record(self, rng, tmp_path):
        diffs, states = _sparse_chain(self.CHAIN, rng)
        return save_record(diffs, tmp_path / "rec", method="tree"), diffs, states

    @staticmethod
    def _decoded():
        return telemetry.counter("store.index_groups_decoded").value

    def test_cold_restore_reads_one_keyframe_span(self, record):
        directory, diffs, states = record
        log = _log(directory)
        log_bytes = (directory / "record.log").stat().st_size
        assert log_bytes == 120 * self.CHAIN
        with telemetry.capture():
            for k in range(self.CHAIN):
                first = _keyframe_of(log, k)
                before = self._decoded()
                out, report = restore_record_indexed(directory, upto=k)
                assert self._decoded() - before == 1 + (k - first), f"upto={k}"
                assert report.used_index and np.array_equal(out, states[k])
                span = sum(e.group_len for e in log[first : k + 1])
                assert span < 2 * log[first].group_len, f"upto={k}"
                assert report.index_bytes == log_bytes + span
                frames = sum(diffs[t].serialized_size for t in report.payload_bytes_read)
                assert report.frames_parsed == len(report.payload_bytes_read)
                assert report.record_bytes_read == log_bytes + span + frames
        assert max(k - _keyframe_of(log, k) for k in range(self.CHAIN)) >= 3

    def test_whole_table_and_reopen_decode_every_group_once(self, record):
        directory, _diffs, _states = record
        with telemetry.capture():
            table = load_provenance(directory)
            assert self._decoded() == table.num_checkpoints == self.CHAIN
            writer = RecordWriter(directory, method="tree")
            assert self._decoded() == 2 * self.CHAIN and writer.count == self.CHAIN

    def test_row_out_of_range(self, record):
        directory, _diffs, _states = record
        with pytest.raises(StorageError, match="outside record index of 64"):
            load_provenance(directory, ckpt=self.CHAIN)
        with pytest.raises(RestoreError, match="outside record of 64"):
            restore_record_indexed(directory, upto=self.CHAIN)

    def test_index_covering_fewer_rows_than_the_record(self, rng, tmp_path):
        """A 5-group index file under a 6-entry log: the rows it holds are
        the bytes the log vouches for and restore; the one it lacks is
        refused by name, by every reader."""
        diffs = _chain("tree", 6, rng)
        short = save_record(diffs[:5], tmp_path / "short", method="tree")
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        (directory / "provenance.rpix").write_bytes(
            (short / "provenance.rpix").read_bytes()
        )
        states = Restorer().restore_all(diffs)
        for k in range(5):
            out, report = restore_record_indexed(directory, upto=k)
            assert report.used_index and np.array_equal(out, states[k])
        with pytest.raises(IntegrityError, match="row-group 5 is truncated"):
            restore_record_indexed(directory, upto=5)
        with pytest.raises(IntegrityError, match="row-group 5 is truncated"):
            RecordWriter(directory, method="tree")
        assert verify_record(directory).index_bad_groups == [5]


class TestAppendEvents:
    def test_record_appended_emitted_per_append(self, rng, tmp_path):
        diffs = _chain("tree", 3, rng)
        with events.journal_to(None) as journal:
            writer = RecordWriter(tmp_path / "rec", method="tree")
            for diff in diffs:
                writer.append(diff)
        appended = [
            r for r in journal.records() if r["type"] == events.RECORD_APPENDED
        ]
        assert len(appended) == 3
        for k, record in enumerate(appended):
            assert record["ckpt_id"] == k
            assert record["frames_written"] == 1
            assert record["frames_reused"] == k
            assert record["bytes_written"] > record["checkpoint_bytes"] > 0

    def test_save_record_reuses_stored_frames(self, rng, tmp_path):
        diffs = _chain("tree", 4, rng)
        save_record(diffs[:2], tmp_path / "rec", method="tree")
        with events.journal_to(None) as journal:
            save_record(diffs, tmp_path / "rec", method="tree")
        appended = [
            r for r in journal.records() if r["type"] == events.RECORD_APPENDED
        ]
        assert [r["ckpt_id"] for r in appended] == [2, 3]


class TestWriteAmplificationRule:
    def _rollup(self, records):
        from repro.telemetry.aggregate import build_rollup

        return build_rollup(records)

    def _append_event(self, written, checkpoint, seq):
        return {
            "schema": 2,
            "seq": seq,
            "type": events.RECORD_APPENDED,
            "run_id": "r",
            "node": "node0",
            "rank": 0,
            "wall_time": 0.0,
            "sim_time": float(seq),
            "bytes_written": written,
            "checkpoint_bytes": checkpoint,
        }

    def test_flat_appends_stay_silent(self):
        records = [
            self._append_event(1 << 20, 1 << 20, seq) for seq in range(4)
        ]
        rule = WriteAmplificationRule()
        assert rule.evaluate(self._rollup(records)) == []

    def test_amplified_appends_warn(self):
        records = [
            self._append_event(6 << 20, 1 << 20, seq) for seq in range(4)
        ]
        findings = WriteAmplificationRule().evaluate(self._rollup(records))
        assert len(findings) == 1
        assert findings[0].severity == "warn"
        assert "write amplification" in findings[0].message

    def test_extreme_amplification_is_critical(self):
        records = [self._append_event(64 << 20, 1 << 20, 0)]
        findings = WriteAmplificationRule().evaluate(self._rollup(records))
        assert findings[0].severity == "critical"

    def test_tiny_records_below_floor_ignored(self):
        records = [self._append_event(4096, 16, 0)]
        rule = WriteAmplificationRule()
        assert rule.evaluate(self._rollup(records)) == []

    def test_rule_runs_in_default_health_evaluation(self, rng, tmp_path):
        diffs = _chain("tree", 2, rng)
        with events.journal_to(None) as journal:
            writer = RecordWriter(tmp_path / "rec", method="tree")
            for diff in diffs:
                writer.append(diff)
        report = evaluate_health(journal.records())
        assert "write_amplification" in report.rules_run
