"""RecordWriter: O(1) appends, byte-identity with save_record, RPIX v3."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import ENGINES, RecordWriter, Restorer
from repro.core.provenance import (
    restore_record_indexed,
    scan_v3,
    verify_v3_group,
)
from repro.core.store import (
    load_provenance,
    load_record,
    record_manifest,
    save_record,
    verify_record,
)
from repro.errors import IntegrityError, StorageError
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


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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
        diffs = _chain("tree", 5, rng)
        golden = Restorer().restore_all(diffs)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for k, diff in enumerate(diffs):
            writer.append(diff)
            assert verify_record(tmp_path / "rec").ok
            out, report = restore_record_indexed(tmp_path / "rec")
            assert report.used_index
            assert np.array_equal(out, golden[k])

    def test_orphan_index_bytes_survive_reopen(self, rng, tmp_path):
        # A crash between the row-group write and the manifest write
        # leaves orphan bytes past the manifest's row count; loads must
        # tolerate them and the next append must truncate them away.
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

    def test_reset_restarts_the_record(self, rng, tmp_path):
        first = _chain("tree", 4, rng)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        for diff in first:
            writer.append(diff)
        writer.reset()
        assert writer.count == 0
        second = _chain("tree", 3, rng)
        for diff in second:
            writer.append(diff)
        save_record(second, tmp_path / "whole", method="tree")
        assert _dir_bytes(tmp_path / "rec") == _dir_bytes(tmp_path / "whole")


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

    def test_torn_last_frame_detected_on_reopen(self, rng, tmp_path):
        diffs = _chain("tree", 3, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        frame = tmp_path / "rec" / "ckpt-00002.rdif"
        frame.write_bytes(frame.read_bytes()[:-7])
        with pytest.raises(IntegrityError):
            RecordWriter(tmp_path / "rec", method="tree")

    def test_unindexable_appends_drop_index(self, rng, tmp_path):
        # A hand-shifted diff the builder rejects: the record still
        # saves, the index is dropped — save_record's historic leniency.
        diffs = _chain("tree", 3, rng)
        bad = diffs[1]
        bad.shift_ref_ckpts = np.full_like(bad.shift_ref_ckpts, 99)
        writer = RecordWriter(tmp_path / "rec", method="tree")
        writer.append(diffs[0])
        assert writer.indexed
        writer.append(bad)
        assert not writer.indexed
        manifest = record_manifest(tmp_path / "rec")
        assert "provenance" not in manifest
        assert load_provenance(tmp_path / "rec") is None


class TestFormatCompatibility:
    def test_v3_index_written_and_loads(self, rng, tmp_path):
        diffs = _chain("tree", 5, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        entry = record_manifest(tmp_path / "rec")["provenance"]
        assert entry["version"] == 3
        assert entry["rows"] == 5
        table = load_provenance(tmp_path / "rec")
        assert table.num_checkpoints == 5

    def test_v2_index_entry_rejected_on_reopen(self, rng, tmp_path):
        # The whole-file ``sha256`` manifest entry of RPIX v1/v2 is not
        # read: nothing is upgraded in place, the writer refuses to open.
        diffs = _chain("tree", 5, rng)
        save_record(diffs[:4], tmp_path / "rec", method="tree")
        index_path = tmp_path / "rec" / "provenance.rpix"
        manifest_path = tmp_path / "rec" / "record.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"] = {
            "file": "provenance.rpix",
            "sha256": hashlib.sha256(index_path.read_bytes()).hexdigest(),
        }
        manifest_path.write_text(json.dumps(manifest, indent=2))
        with pytest.raises(StorageError, match="unsupported provenance entry"):
            load_provenance(tmp_path / "rec")
        with pytest.raises(StorageError, match="unsupported provenance entry"):
            RecordWriter(tmp_path / "rec", method="tree")
        assert verify_record(tmp_path / "rec").provenance_ok is False

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
    def _damage_group(self, directory, group_idx):
        index_path = directory / "provenance.rpix"
        blob = bytearray(index_path.read_bytes())
        _header, groups = scan_v3(bytes(blob))
        target = groups[group_idx]
        blob[target.body_off] ^= 0xFF
        index_path.write_bytes(bytes(blob))
        return groups

    def test_verify_names_the_damaged_group(self, rng, tmp_path):
        diffs = _chain("tree", 6, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        groups = self._damage_group(tmp_path / "rec", 4)
        blob = (tmp_path / "rec" / "provenance.rpix").read_bytes()
        assert not verify_v3_group(blob, scan_v3(blob)[1][4])
        assert verify_v3_group(blob, scan_v3(blob)[1][3])
        report = verify_record(tmp_path / "rec")
        assert not report.ok
        assert report.provenance_ok is False
        assert report.index_groups == len(groups)
        assert report.index_bad_groups == [4]
        assert "row-groups damaged" in report.summary()

    def test_restore_before_damage_still_works(self, rng, tmp_path):
        diffs = _chain("tree", 6, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        self._damage_group(tmp_path / "rec", 4)
        # Selective load: checkpoint 3 never touches group 4's bytes.
        out, report = restore_record_indexed(tmp_path / "rec", upto=3)
        assert report.used_index
        assert np.array_equal(out, Restorer().restore_all(diffs[:4])[-1])
        # At or past the damage, the mismatch is detected loudly.
        with pytest.raises(IntegrityError):
            restore_record_indexed(tmp_path / "rec", upto=4)

    def test_chain_digest_catches_group_swap(self, rng, tmp_path):
        diffs = _chain("tree", 4, rng)
        save_record(diffs, tmp_path / "rec", method="tree")
        index_path = tmp_path / "rec" / "provenance.rpix"
        blob = index_path.read_bytes()
        _header, groups = scan_v3(blob)
        # Truncate the last group and patch the header row count: every
        # group still self-verifies, but the manifest's chain digest
        # over the stored group digests no longer matches.
        from repro.core.provenance import encode_v3_prologue

        last = groups[-1]
        head = encode_v3_prologue(
            len(groups) - 1,
            _header["num_chunks"],
            _header["data_len"],
            _header["chunk_size"],
        )
        body = blob[len(head) : last.body_off - 48]
        index_path.write_bytes(head + body)
        manifest_path = tmp_path / "rec" / "record.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["provenance"]["rows"] = len(groups) - 1
        manifest_path.write_text(json.dumps(manifest, indent=2))
        report = verify_record(tmp_path / "rec")
        assert report.provenance_ok is False


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
            assert record["index_rows_appended"] == 1
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
