"""Fleet restore: sharded from-disk restarts with read/gather overlap."""

import numpy as np
import pytest

from repro.core import ENGINES, restore_record_indexed, save_record
from repro.errors import StorageError
from repro.gpusim import polaris, thetagpu
from repro.runtime import restore_record_sharded
from repro.telemetry import events

N = 64 * 80
CS = 64


def _record(rng, tmp_path, method="tree", steps=6, name="rec"):
    engine = ENGINES[method](N, CS)
    buf = np.zeros(N, dtype=np.uint8)
    buf[: N // 2] = rng.integers(0, 256, N // 2, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    for _ in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, N - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
    directory = tmp_path / name
    save_record(diffs, directory, method=method)
    return directory, buf


class TestRestoreRecordSharded:
    @pytest.mark.parametrize("ranks", [1, 4, 16])
    def test_bit_identical_to_indexed(self, ranks, rng, tmp_path):
        directory, final = _record(rng, tmp_path)
        single, _ = restore_record_indexed(directory)
        out, report = restore_record_sharded(directory, ranks)
        assert np.array_equal(out, single)
        assert np.array_equal(out, final)
        assert report.num_ranks == ranks
        assert len(report.shards) == ranks

    def test_window_auto_pick_and_override(self, rng, tmp_path):
        directory, _ = _record(rng, tmp_path)
        _, auto = restore_record_sharded(directory, 4)
        assert auto.windows >= 1
        _, forced = restore_record_sharded(directory, 4, windows=3)
        assert forced.windows == 3

    def test_costs_populated(self, rng, tmp_path):
        directory, _ = _record(rng, tmp_path)
        _, report = restore_record_sharded(directory, 4)
        assert report.cost.read_seconds > 0
        assert report.critical_path_seconds > 0
        assert report.predicted_seconds > 0
        assert len(report.cost.per_rank) == 4
        assert all(c.seconds > 0 for c in report.cost.per_rank)
        # Pipelined critical path never exceeds the serial timeline.
        assert (
            report.critical_path_seconds
            <= report.cost.serial_seconds * (1 + 1e-9)
        )

    def test_selective_read(self, rng, tmp_path):
        directory, _ = _record(rng, tmp_path)
        _, report = restore_record_sharded(directory, 4)
        assert report.frames_parsed <= report.frames_total
        assert report.record_bytes_read > 0
        assert report.index_bytes > 0

    def test_upto_intermediate_checkpoint(self, rng, tmp_path):
        directory, _ = _record(rng, tmp_path)
        single, _ = restore_record_indexed(directory, upto=2)
        out, report = restore_record_sharded(directory, 4, upto=2)
        assert np.array_equal(out, single)
        assert report.target_ckpt == 2

    def test_cluster_changes_pricing_not_bytes(self, rng, tmp_path):
        directory, _ = _record(rng, tmp_path)
        out_theta, rep_theta = restore_record_sharded(
            directory, 8, cluster=thetagpu()
        )
        out_polaris, rep_polaris = restore_record_sharded(
            directory, 8, cluster=polaris()
        )
        assert np.array_equal(out_theta, out_polaris)
        assert rep_theta.critical_path_seconds != pytest.approx(
            rep_polaris.critical_path_seconds
        )

    def test_record_without_index_rejected(self, rng, tmp_path):
        from tests.conftest import retire_index

        directory, _ = _record(rng, tmp_path)
        retire_index(directory)
        with pytest.raises(StorageError, match="no provenance index"):
            restore_record_sharded(directory, 4)

    def test_emits_sharded_restore_event(self, rng, tmp_path):
        directory, _ = _record(rng, tmp_path)
        with events.journal_to() as journal:
            restore_record_sharded(directory, 4)
        restores = [
            r for r in journal.records() if r["type"] == events.RESTORE
        ]
        assert len(restores) == 1
        event = restores[0]
        assert event["path"] == "sharded"
        assert event["ranks"] == 4
        assert event["windows"] >= 1
        assert event["critical_path_seconds"] > 0
        assert event["predicted_seconds"] > 0
        assert event["read_seconds"] > 0


class TestCli:
    def test_restore_ranks_flag(self, rng, tmp_path, capsys):
        from repro.cli import main

        directory, final = _record(rng, tmp_path)
        out = tmp_path / "out.bin"
        assert main([
            "restore", str(directory), "--ranks", "4",
            "--cluster", "polaris", "-o", str(out),
        ]) == 0
        assert np.array_equal(
            np.frombuffer(out.read_bytes(), dtype=np.uint8), final
        )
        captured = capsys.readouterr().out
        assert "4 ranks on polaris" in captured
        assert "rank 3:" in captured
        assert "critical path" in captured

    def test_restore_windows_flag(self, rng, tmp_path, capsys):
        from repro.cli import main

        directory, _ = _record(rng, tmp_path)
        assert main([
            "restore", str(directory), "--ranks", "2", "--windows", "3",
            "-o", str(tmp_path / "o.bin"),
        ]) == 0
        assert "3 window(s)" in capsys.readouterr().out

    def test_verify_json_reports_index_ratio(self, rng, tmp_path, capsys):
        import json

        from repro.cli import main

        directory, _ = _record(rng, tmp_path)
        assert main(["verify", str(directory), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["index_bytes"] > 0
        assert doc["index_raw_bytes"] > doc["index_bytes"]
        assert doc["index_compression_ratio"] > 1.0
