"""Tests for the on-disk record store."""

import builtins
import io
import json
import os

import numpy as np
import pytest

from repro.core import ENGINES, RecordWriter, Restorer
from repro.core.diff import content_digest
from repro.core.provenance import restore_record_indexed
from repro.core.serialize import diff_payload
from repro.core.store import (
    STATUS_CORRUPT,
    STATUS_MISSING,
    STATUS_OK,
    load_record,
    record_manifest,
    save_record,
    verify_record,
)
from repro.errors import IntegrityError, SerializationError, StorageError
from repro.record.log import FORMAT_VERSION
from tests.conftest import forge_log_entry, v1_frame, v2_manifest


@pytest.fixture
def diffs(rng):
    n = 64 * 64
    base = rng.integers(0, 256, n, dtype=np.uint8)
    engine = ENGINES["tree"](n, 64)
    out = [engine.checkpoint(base)]
    nxt = base.copy()
    nxt[:256] = 0
    out.append(engine.checkpoint(nxt))
    return out


class TestSaveLoad:
    def test_roundtrip(self, diffs, tmp_path):
        save_record(diffs, tmp_path / "rec", method="tree")
        loaded = load_record(tmp_path / "rec")
        assert len(loaded) == len(diffs)
        for a, b in zip(diffs, loaded):
            assert a.to_bytes() == b.to_bytes()

    def test_restore_from_disk(self, diffs, tmp_path, rng):
        save_record(diffs, tmp_path / "rec")
        loaded = load_record(tmp_path / "rec")
        direct = Restorer().restore_all(diffs)
        from_disk = Restorer().restore_all(loaded)
        for a, b in zip(direct, from_disk):
            assert np.array_equal(a, b)

    def test_manifest(self, diffs, tmp_path):
        save_record(diffs, tmp_path / "rec", method="tree")
        manifest = record_manifest(tmp_path / "rec")
        assert manifest["method"] == "tree"
        assert manifest["num_checkpoints"] == 2
        assert manifest["data_len"] == diffs[0].data_len

    def test_append_style_resave(self, diffs, tmp_path):
        save_record(diffs[:1], tmp_path / "rec")
        save_record(diffs, tmp_path / "rec")
        assert len(load_record(tmp_path / "rec")) == 2

    def test_truncating_resave_rejected(self, diffs, tmp_path):
        save_record(diffs, tmp_path / "rec")
        with pytest.raises(StorageError):
            save_record(diffs[:1], tmp_path / "rec")

    def test_empty_record_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            save_record([], tmp_path / "rec")

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_record(tmp_path)

    def test_load_missing_blob(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "ckpt-00001.rdif").unlink()
        with pytest.raises(StorageError):
            load_record(path)


def _write_v1_record(diffs, directory):
    """A record exactly as the pre-integrity code would have written it."""
    directory.mkdir(parents=True, exist_ok=True)
    for d in diffs:
        (directory / f"ckpt-{d.ckpt_id:05d}.rdif").write_bytes(v1_frame(d))
    (directory / "record.json").write_text(
        json.dumps(
            {
                "format_version": 1,
                "method": "tree",
                "num_checkpoints": len(diffs),
                "data_len": diffs[0].data_len,
                "chunk_size": diffs[0].chunk_size,
            }
        )
    )
    return directory


class TestManifestRobustness:
    def test_malformed_json_wrapped(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "record.json").write_text("{not json")
        for fn in (load_record, record_manifest, verify_record):
            with pytest.raises(StorageError, match="malformed record manifest"):
                fn(path)

    def test_missing_key_wrapped(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        header = {"format_version": FORMAT_VERSION}
        (path / "record.json").write_text(json.dumps(header))
        with pytest.raises(StorageError, match="must name the record log"):
            load_record(path)
        header.update(log="record.log", data_len="64")
        (path / "record.json").write_text(json.dumps(header))
        with pytest.raises(StorageError, match="bad data_len"):
            load_record(path)

    def test_non_object_manifest_wrapped(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "record.json").write_text("[1, 2, 3]")
        with pytest.raises(StorageError, match="not a JSON object"):
            load_record(path)

    def test_unsupported_version_rejected(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        manifest = json.loads((path / "record.json").read_text())
        manifest["format_version"] = 99
        (path / "record.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unsupported record format"):
            load_record(path)

    def test_error_names_offending_path(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "record.json").write_text("{not json")
        with pytest.raises(StorageError, match="record.json"):
            record_manifest(path)


class TestAppendCompatibility:
    def test_append_rejects_different_geometry(self, diffs, tmp_path, rng):
        path = save_record(diffs, tmp_path / "rec")
        n = 32 * 64
        other = ENGINES["tree"](n, 32)
        alien = [other.checkpoint(rng.integers(0, 256, n, dtype=np.uint8))]
        alien.append(other.checkpoint(rng.integers(0, 256, n, dtype=np.uint8)))
        with pytest.raises(StorageError, match="incompatible"):
            save_record(alien, path)

    def test_append_rejects_different_method(self, diffs, tmp_path, rng):
        path = save_record(diffs, tmp_path / "rec", method="tree")
        n = diffs[0].data_len
        other = ENGINES["basic"](n, diffs[0].chunk_size)
        alien = [
            other.checkpoint(rng.integers(0, 256, n, dtype=np.uint8))
            for _ in range(3)
        ]
        with pytest.raises(StorageError, match="incompatible|different chain"):
            save_record(alien, path, method="basic")

    def test_append_rejects_divergent_chain(self, diffs, tmp_path, rng):
        path = save_record(diffs, tmp_path / "rec")
        n = diffs[0].data_len
        other = ENGINES["tree"](n, diffs[0].chunk_size)
        alien = [
            other.checkpoint(rng.integers(0, 256, n, dtype=np.uint8))
            for _ in range(2)
        ]
        with pytest.raises(StorageError, match="different chain"):
            save_record(alien, path)


class TestVerifyRecord:
    def test_clean_record_ok(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        report = verify_record(path)
        assert report.ok
        assert report.chain_ok is True
        assert all(c.status == STATUS_OK for c in report.checkpoints)

    def test_bitflip_flags_one_checkpoint(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        blob = bytearray((path / "ckpt-00001.rdif").read_bytes())
        blob[len(blob) // 2] ^= 0x10
        (path / "ckpt-00001.rdif").write_bytes(bytes(blob))
        report = verify_record(path)
        assert not report.ok
        assert [c.status for c in report.checkpoints] == [
            STATUS_OK,
            STATUS_CORRUPT,
        ]
        assert report.chain_ok is False

    def test_missing_file_flagged(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "ckpt-00000.rdif").unlink()
        report = verify_record(path)
        assert [c.status for c in report.checkpoints] == [STATUS_MISSING, STATUS_OK]

    def test_swapped_frames_detected(self, diffs, tmp_path):
        # Both frames self-verify; only the manifest digests catch the swap.
        path = save_record(diffs, tmp_path / "rec")
        (path / "ckpt-00001.rdif").write_bytes(
            (path / "ckpt-00000.rdif").read_bytes()
        )
        report = verify_record(path)
        assert report.checkpoints[1].status == STATUS_CORRUPT

    def test_v1_frame_in_record_reported_corrupt(self, diffs, tmp_path):
        # A digestless v1 frame behind a current record log — even with
        # the log entry forged to match it and re-sealed — is corrupt,
        # never a third "unverified but loadable" state.
        path = save_record(diffs, tmp_path / "rec")
        blob = v1_frame(diffs[1])
        (path / "ckpt-00001.rdif").write_bytes(blob)
        forge_log_entry(
            path, 1, frame_sha=content_digest(blob), frame_bytes=len(blob)
        )
        report = verify_record(path)
        assert not report.ok
        status = report.checkpoints[1]
        assert status.status == STATUS_CORRUPT and not status.loadable
        assert "unsupported diff version 1" in status.detail
        with pytest.raises(SerializationError, match="unsupported diff version 1"):
            load_record(path)

    def test_summary_mentions_statuses(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "ckpt-00001.rdif").unlink()
        text = verify_record(path).summary()
        assert "ckpt-00001.rdif: missing" in text


@pytest.fixture
def vanish(monkeypatch):
    """``vanish(name)``: from now on, opening the file *name* raises
    :class:`FileNotFoundError` although it is still on disk — a frame
    removed between any existence or size check and its read."""

    def install(name):
        real_open = builtins.open

        def open_unless_gone(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.basename(file) == name:
                raise FileNotFoundError(2, "No such file or directory", str(file))
            return real_open(file, *args, **kwargs)

        real_os_open = os.open

        def os_open_unless_gone(file, *args, **kwargs):
            if os.path.basename(file) == name:
                raise FileNotFoundError(2, "No such file or directory", str(file))
            return real_os_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_unless_gone)
        monkeypatch.setattr(io, "open", open_unless_gone)
        monkeypatch.setattr(os, "open", os_open_unless_gone)

    return install


class TestFrameVanishesAtTheRead:
    def test_verify_record_reports_it_missing(self, diffs, tmp_path, vanish):
        path = save_record(diffs, tmp_path / "rec")
        vanish("ckpt-00001.rdif")
        report = verify_record(path)
        assert [c.status for c in report.checkpoints] == [STATUS_OK, STATUS_MISSING]
        assert report.checkpoints[1].detail == "file not found"
        assert not report.ok and report.chain_ok is False

    def test_load_raises_storage_error(self, diffs, tmp_path, vanish):
        path = save_record(diffs, tmp_path / "rec")
        vanish("ckpt-00001.rdif")
        message = "record is missing checkpoint file ckpt-00001.rdif"
        with pytest.raises(StorageError, match=message):
            load_record(path)
        with pytest.raises(StorageError, match=message):
            restore_record_indexed(path)
        out, _ = restore_record_indexed(path, 0)
        assert np.array_equal(out, Restorer().restore(diffs, 0))


class TestSalvage:
    """What a damaged record still restores is what the production
    restore returns: each checkpoint from its own row and the frames
    that row names, never a partial load of the chain."""

    @staticmethod
    def _restorable(path, count):
        restored = {}
        for k in range(count):
            try:
                restored[k], _ = restore_record_indexed(path, k)
            except StorageError:
                pass
        return restored

    def test_strict_load_raises_integrity(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        blob = bytearray((path / "ckpt-00001.rdif").read_bytes())
        blob[-1] ^= 0x01
        (path / "ckpt-00001.rdif").write_bytes(bytes(blob))
        with pytest.raises(IntegrityError) as exc:
            load_record(path)
        assert exc.value.ckpt_id == 1
        assert "ckpt-00001" in exc.value.path

    def test_salvage_returns_valid_prefix(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        blob = bytearray((path / "ckpt-00001.rdif").read_bytes())
        blob[-1] ^= 0x01
        (path / "ckpt-00001.rdif").write_bytes(bytes(blob))
        assert list(self._restorable(path, len(diffs))) == [0]
        with pytest.raises(IntegrityError):
            restore_record_indexed(path, 1)

    def test_salvage_of_clean_record_is_complete(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        assert list(self._restorable(path, len(diffs))) == [0, 1]

    def test_salvage_past_missing_file(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        (path / "ckpt-00001.rdif").unlink()
        assert list(self._restorable(path, len(diffs))) == [0]

    def test_salvage_can_be_empty(self, diffs, tmp_path):
        # Checkpoint 1 rewrote 256 of 4096 bytes: its row still names
        # frame 0 for the rest, so losing frame 0 loses both.
        path = save_record(diffs, tmp_path / "rec")
        (path / "ckpt-00000.rdif").unlink()
        assert self._restorable(path, len(diffs)) == {}

    def test_salvaged_prefix_restores(self, diffs, tmp_path):
        path = save_record(diffs, tmp_path / "rec")
        golden = Restorer().restore_all(diffs)
        blob = bytearray((path / "ckpt-00001.rdif").read_bytes())
        blob[60] ^= 0x80
        (path / "ckpt-00001.rdif").write_bytes(bytes(blob))
        restored = self._restorable(path, len(diffs))
        assert list(restored) == [0]
        assert np.array_equal(restored[0], golden[0])


class TestV1Compatibility:
    """Pre-integrity records are rejected by name, never loaded unverified."""

    ENTRY_POINTS = (
        load_record,
        record_manifest,
        verify_record,
        restore_record_indexed,
        lambda path: RecordWriter(path, method="tree"),
    )

    def test_v1_manifest_rejected(self, diffs, tmp_path):
        path = _write_v1_record(diffs, tmp_path / "v1rec")
        for entry in self.ENTRY_POINTS:
            with pytest.raises(StorageError, match="unsupported record format 1"):
                entry(path)
        with pytest.raises(StorageError, match="unsupported record format 1"):
            save_record(diffs, path)

    def test_v2_manifest_rejected(self, diffs, tmp_path):
        """The per-checkpoint columns live in the sealed log now: a
        ``record.json`` that carries them itself (manifest v2) is refused
        by name, intact frames or not."""
        path = save_record(diffs, tmp_path / "rec")
        v2_manifest(path)
        assert json.loads((path / "record.json").read_text())["digests"]
        for entry in self.ENTRY_POINTS:
            with pytest.raises(StorageError, match="unsupported record format 2"):
                entry(path)
        with pytest.raises(StorageError, match="unsupported record format 2"):
            save_record(diffs, path)


class TestRecordLog:
    """``record.log`` is the commit point and the root of trust: a
    checkpoint exists iff its entry is whole and sealed."""

    ENTRY_POINTS = TestV1Compatibility.ENTRY_POINTS

    @pytest.fixture
    def record(self, rng, tmp_path):
        n = 64 * 64
        engine = ENGINES["tree"](n, 64)
        buf = rng.integers(0, 256, n, dtype=np.uint8)
        chain = [engine.checkpoint(buf)]
        for k in range(1, 4):
            buf = buf.copy()
            buf[k * 128 : k * 128 + 64] = k
            chain.append(engine.checkpoint(buf))
        return save_record(chain, tmp_path / "rec", method="tree"), chain

    def test_manifest_columns_come_from_the_log(self, record):
        path, chain = record
        manifest = record_manifest(path)
        assert manifest["num_checkpoints"] == len(chain)
        assert manifest["digests"] == [d.frame_digest() for d in chain]
        assert manifest["frame_bytes"] == [d.serialized_size for d in chain]
        assert manifest["provenance"]["rows"] == len(chain)
        header = json.loads((path / "record.json").read_text())
        assert sorted(header) == [
            "chunk_size", "data_len", "format_version", "index", "log", "method",
        ]

    def test_any_flipped_byte_before_the_tail_is_refused(self, record):
        """Every column of every entry before the last is sealed: one
        flipped byte anywhere in them and no entry point will read the
        record (damage before the tail is not a torn append)."""
        path, chain = record
        log = path / "record.log"
        clean = log.read_bytes()
        size = len(clean) // len(chain)
        for at in range(0, size * (len(chain) - 1), 7):
            raw = bytearray(clean)
            raw[at] ^= 0x20
            log.write_bytes(bytes(raw))
            for entry in self.ENTRY_POINTS:
                with pytest.raises(IntegrityError, match=f"entry {at // size} .*seal"):
                    entry(path)

    def test_torn_or_flipped_tail_entry_is_not_a_checkpoint(self, record):
        path, chain = record
        log = path / "record.log"
        clean = log.read_bytes()
        size = len(clean) // len(chain)
        flipped = bytearray(clean)
        flipped[-size // 2] ^= 0x01
        for tail in (clean[:-1], clean[: -size + 1], bytes(flipped)):
            log.write_bytes(tail)
            assert record_manifest(path)["num_checkpoints"] == len(chain) - 1
            assert verify_record(path).ok
            assert len(load_record(path)) == len(chain) - 1
            out, report = restore_record_indexed(path)
            assert report.target_ckpt == len(chain) - 2 and report.used_index
            assert np.array_equal(out, Restorer().restore(chain[:-1]))

    def test_forged_frame_digest_is_caught_by_the_frame(self, record):
        """A coherent (re-sealed) log that names another frame's digest
        or size: the frame check behind the log still refuses it."""
        path, chain = record
        forge_log_entry(path, 2, frame_sha=bytes.fromhex(chain[1].frame_digest()))
        assert verify_record(path).checkpoints[2].status == STATUS_CORRUPT
        with pytest.raises(IntegrityError, match="file digest mismatch"):
            load_record(path)
        forge_log_entry(path, 2, frame_bytes=chain[2].serialized_size + 1)
        status = verify_record(path).checkpoints[2]
        assert status.status == STATUS_CORRUPT and "file size" in status.detail


class TestCli:
    def test_demo_save_inspect_restore(self, tmp_path, capsys):
        from repro.cli import main

        rec = tmp_path / "rec"
        out = tmp_path / "out.bin"
        assert main([
            "demo", "--size", "65536", "--checkpoints", "3",
            "--save", str(rec),
        ]) == 0
        assert main(["inspect", str(rec)]) == 0
        captured = capsys.readouterr().out
        assert "chain verified" in captured
        assert main(["restore", str(rec), "-k", "1", "-o", str(out)]) == 0
        assert out.stat().st_size == 65536

    def test_demo_refuses_a_directory_holding_a_record(self, tmp_path, capsys):
        from repro.cli import main

        rec = tmp_path / "rec"
        assert main(["demo", "--checkpoints", "2", "--save", str(rec)]) == 0
        before = {p.name: p.read_bytes() for p in rec.iterdir()}
        capsys.readouterr()
        assert main(["demo", "--checkpoints", "2", "--save", str(rec)]) == 1
        assert f"cannot save to {rec}: " in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in rec.iterdir()} == before

    def test_restore_of_an_unrestorable_checkpoint_exits_two(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        rec = tmp_path / "rec"
        assert main(["demo", "--checkpoints", "6", "--save", str(rec)]) == 0
        (rec / "ckpt-00002.rdif").unlink()
        capsys.readouterr()
        out = tmp_path / "out.bin"
        assert main(["restore", str(rec), "-k", "1", "-o", str(out)]) == 0
        assert main(["restore", str(rec), "-k", "2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot restore {rec} checkpoint 2: " in err
        assert "missing checkpoint file ckpt-00002.rdif" in err
        assert main(["restore", str(rec), "-o", str(out)]) == 2
        assert f"cannot restore {rec} checkpoint newest: " in capsys.readouterr().err

    def test_demo_methods(self, capsys):
        from repro.cli import main

        for method in ("full", "basic", "list", "tree"):
            assert main([
                "demo", "--size", "8192", "--checkpoints", "2",
                "--method", method,
            ]) == 0

    def test_inspect_detects_corruption(self, diffs, tmp_path, capsys):
        from repro.cli import main

        path = save_record(diffs, tmp_path / "rec")
        blob = bytearray((path / "ckpt-00001.rdif").read_bytes())
        # Truncate the payload: still parseable lengths? Corrupt the
        # payload length consistency by rewriting with a wrong region —
        # simplest: swap the two files.
        (path / "ckpt-00001.rdif").write_bytes(
            (path / "ckpt-00000.rdif").read_bytes()
        )
        # ckpt file 1 now holds checkpoint id 0: inspect says so and
        # exits 1, as verify does, with no traceback.
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot inspect {path}: ")
        assert "ckpt-00001.rdif" in err

    def test_bench_command_table1(self, capsys):
        from repro.cli import main

        assert main(["bench", "table1", "--vertices", "256"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestSelectiveFrameLoading:
    """The selective-read primitives behind the indexed restore path."""

    def test_load_record_frames_subset(self, diffs, tmp_path):
        from repro.core.store import load_record_frames

        save_record(diffs, tmp_path)
        payloads = load_record_frames(tmp_path, [1])
        assert set(payloads) == {1}
        assert np.array_equal(payloads[1], diff_payload(diffs[1]))
        both = load_record_frames(tmp_path, [0, 1, 0])
        assert set(both) == {0, 1}
        assert np.array_equal(both[0], diff_payload(diffs[0]))

    def test_load_record_frames_out_of_range(self, diffs, tmp_path):
        from repro.core.store import load_record_frames

        save_record(diffs, tmp_path)
        with pytest.raises(StorageError, match="outside record"):
            load_record_frames(tmp_path, [5])

    def test_load_record_frames_detects_damage(self, diffs, tmp_path):
        from repro.core.store import load_record_frames

        path = save_record(diffs, tmp_path)
        target = path / "ckpt-00001.rdif"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_record_frames(tmp_path, [1])
        # The undamaged frame still loads on its own.
        payload = load_record_frames(tmp_path, [0])[0]
        assert np.array_equal(payload, diff_payload(diffs[0]))

    def test_record_frame_sizes(self, diffs, tmp_path):
        from repro.core.store import record_frame_sizes

        path = save_record(diffs, tmp_path)
        sizes = record_frame_sizes(tmp_path)
        assert sizes == [d.serialized_size for d in diffs]
        (path / "ckpt-00000.rdif").unlink()
        assert record_frame_sizes(tmp_path)[0] == 0

    def test_record_frame_sizes_stats_each_frame_once(
        self, diffs, tmp_path, monkeypatch
    ):
        """A frame removed after a first look at it is read as present or
        missing, never as a raw FileNotFoundError: one ``stat`` per frame."""
        from repro.core.store import record_frame_sizes

        path = save_record(diffs, tmp_path)
        real_stat, calls = os.stat, []

        def stat_once(file, *args, **kwargs):
            name = os.path.basename(file)
            if name.startswith("ckpt-"):
                calls.append(name)
                if calls.count(name) > 1:  # removed after its first stat
                    raise FileNotFoundError(2, "No such file or directory", str(file))
            return real_stat(file, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat_once)
        assert record_frame_sizes(path) == [d.serialized_size for d in diffs]
        assert sorted(calls) == [f"ckpt-{k:05d}.rdif" for k in range(len(diffs))]
