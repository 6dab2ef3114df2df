"""RecordWriter: O(1) appends, byte-identity with save_record, RPIX v3."""

import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
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
from repro.errors import IntegrityError, RestoreError, StorageError
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

    def test_restore_beside_damage_still_works(self, rng, tmp_path):
        """Blast radius of index damage is the row asked for: with every
        group but one damaged, that one checkpoint still restores."""
        diffs = _chain("tree", 6, rng)
        states = Restorer().restore_all(diffs)
        for intact in (0, 3, 5):
            directory = save_record(diffs, tmp_path / f"rec{intact}", method="tree")
            damaged = [j for j in range(6) if j != intact]
            for j in damaged:
                self._damage_group(directory, j)
            out, report = restore_record_indexed(directory, upto=intact)
            assert report.used_index and np.array_equal(out, states[intact])
            # Exactly the damaged rows are refused, loudly.
            for j in damaged:
                with pytest.raises(IntegrityError, match=f"row-group {j} digest"):
                    restore_record_indexed(directory, upto=j)
            verdict = verify_record(directory)
            assert verdict.index_bad_groups == damaged and not verdict.ok

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


GOLDEN_N = 64 * 96 + 23  # short tail chunk
#: SHA-256 of every file ``save_record(_golden_chain(method))`` wrote at
#: commit a61ebd3 (PR 17).  The reader may change; these bytes may not.
GOLDEN_SHA256 = {
    "basic": {
        "ckpt-00000.rdif": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "ckpt-00001.rdif": "6a86db49d4720f2fbbbd197b842b73ec5961b12985efc04c073727f827aa665a",
        "ckpt-00002.rdif": "57c5679d3e961c472847fc8f25f8311e560efe084618e9877547d68a55da41c0",
        "ckpt-00003.rdif": "657b2f301ad98040c54978e1c67a362b33fec2f93e609916ab024914d07b48bb",
        "ckpt-00004.rdif": "364318b72e0a3a35485e4ba20ebaac2fbda3d6727d6b157ab80b355ba4aff63d",
        "ckpt-00005.rdif": "18a4365d35676bbb9bede44cb99bc8fd1eb59360f85ec130acd5ebb1b3e8c966",
        "provenance.rpix": "a593c31d95341357330d8268c360c03ea0019f82390ea32c99f1ad071c914005",
        "record.json": "b248fc2d0b24a9750960851de8efe5d2fcd7a14d7d786ed4b742b33e09db5781",
    },
    "full": {
        "ckpt-00000.rdif": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "ckpt-00001.rdif": "8832e2bc4f23ab18f59ac8cdfda1310c2f744cc654e61c546983a54df9a58974",
        "ckpt-00002.rdif": "babc840f0b53e903599a2cc1517c2250a24d5b9b65c4c3ca894400876a3bede5",
        "ckpt-00003.rdif": "2e3ee1465e506d291ab97e73af1a99bdd629b5104bd9176a2de41d58b9dedfc7",
        "ckpt-00004.rdif": "66b433c1764e83c93af44c109918ed091f12d5b5e42e0843283d825a63f791bd",
        "ckpt-00005.rdif": "6ec38f6d609e4bdcf8bb4e43469b42fe73b2748013eac1c7d65b51750ff9e96d",
        "provenance.rpix": "bf5b73a85435d7d41655459c6cc41c6dd0e40fc29d06a94a55f9193e955c101b",
        "record.json": "8e54789686baa9e45b1aa26803494c5a65f16c0260a3b90e3d3d602a7220c5cb",
    },
    "list": {
        "ckpt-00000.rdif": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "ckpt-00001.rdif": "f2b0f0f4e8af4d02ba3cb112b96c30c0202b781fc01ecbf749c9d001a4b5eabc",
        "ckpt-00002.rdif": "5d53e4561ccff2e99e08d3dd82f1da73eaa3d4ce264211b29ce677a5c46817f9",
        "ckpt-00003.rdif": "7b13fc500a6382fb829691c6550a54509cdfc00182bc5727cec0fa31d9c08be9",
        "ckpt-00004.rdif": "7eab97cf9565166b9028500178f50ffef5a84fd747c8ea7159c9e52d60319bc7",
        "ckpt-00005.rdif": "8fb0fa7233488abeb203ae600365cdaf398012317e9d426cffa21cea40b8eb49",
        "provenance.rpix": "93577bf7c9aa49a3155901a40087be23750bfec3adb00725c8f1a5f0bab2ca9d",
        "record.json": "f28f0de48eca2bc3541c43d3094719e58e9bf4aa57282dda7cc39cbb46cde113",
    },
    "tree": {
        "ckpt-00000.rdif": "da62fa683faa6ae68d48e9a2baa18cdec2de9e5ba270f9ad0493af2900bc27e9",
        "ckpt-00001.rdif": "64c3605f830c6fcee16f5267bb95fc478755dd0f46d918048c9b5917a65c50dd",
        "ckpt-00002.rdif": "fc0198d3cdfd5a13bca61fb55d814c2748d44518a381cadf50772e99e3cf8f4b",
        "ckpt-00003.rdif": "b0efba47423e4845aa65e33809d64e3bda1814dac97e83fe17d459970793d6a4",
        "ckpt-00004.rdif": "9030ccb087bace84c6cdcdd007166921c8883003f6d854a381d3613c3bfdf4c9",
        "ckpt-00005.rdif": "b46c742248ad2ec31bb762b14e6d35cb56a13a1315f08635f0a82fa25c05c2fd",
        "provenance.rpix": "196b4b054b987e74beecd02496d35fc3dd334748ecde25e845dd1b033209170c",
        "record.json": "0d50989c7fc54c9282958fe5a69374dc9eb5b8ee05ed5245c2e898ced4b72f50",
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
    return {
        name: hashlib.sha256(blob).hexdigest()
        for name, blob in _dir_bytes(path).items()
    }


@pytest.mark.parametrize("method", sorted(GOLDEN_SHA256))
class TestGoldenRecordBytes:
    """The on-disk format is frozen: frames, manifest and index of a fixed
    chain hash to what the parent commit wrote, however they are read."""

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


class TestOneRowDecoded:
    """A restore decodes the one row-group it names — counted, not timed."""

    CHAIN = 64

    @pytest.fixture
    def record(self, rng, tmp_path):
        diffs = _chain("tree", self.CHAIN, rng)
        return save_record(diffs, tmp_path / "rec", method="tree"), diffs

    @staticmethod
    def _decoded():
        return telemetry.counter("store.index_groups_decoded").value

    def test_cold_restore_decodes_exactly_one_group(self, record):
        directory, diffs = record
        states = Restorer().restore_all(diffs)
        with telemetry.capture():
            for k in range(self.CHAIN):
                before = self._decoded()
                out, report = restore_record_indexed(directory, upto=k)
                assert self._decoded() - before == 1, f"upto={k}"
                assert report.used_index and np.array_equal(out, states[k])

    def test_whole_table_and_reopen_decode_every_group_once(self, record):
        directory, _ = record
        with telemetry.capture():
            table = load_provenance(directory)
            assert self._decoded() == table.num_checkpoints == self.CHAIN
            writer = RecordWriter(directory, method="tree")
            assert self._decoded() == 2 * self.CHAIN and writer.indexed

    def test_row_out_of_range(self, record):
        directory, _ = record
        with pytest.raises(StorageError, match="outside record index of 64"):
            load_provenance(directory, ckpt=self.CHAIN)
        with pytest.raises(RestoreError, match="outside record of 64"):
            restore_record_indexed(directory, upto=self.CHAIN)

    def test_index_covering_fewer_rows_than_the_record(self, rng, tmp_path):
        """A coherent 5-row index under a 6-checkpoint manifest is refused
        for every target, including the rows it does hold."""
        diffs = _chain("tree", 6, rng)
        short = save_record(diffs[:5], tmp_path / "short", method="tree")
        directory = save_record(diffs, tmp_path / "rec", method="tree")
        (directory / "provenance.rpix").write_bytes(
            (short / "provenance.rpix").read_bytes()
        )
        manifest = json.loads((directory / "record.json").read_text())
        manifest["provenance"] = record_manifest(short)["provenance"]
        (directory / "record.json").write_text(json.dumps(manifest, indent=2))
        for k in (2, 5):
            with pytest.raises(IntegrityError, match="covers 5 checkpoints"):
                restore_record_indexed(directory, upto=k)


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
