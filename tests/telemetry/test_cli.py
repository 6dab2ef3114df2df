"""CLI surfaces: ``repro trace`` and the ``--json`` flags."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.core import IncrementalCheckpointer

from .test_live_monitor import write_clean_run


@pytest.fixture()
def record_dir(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
    directory = tmp_path / "record"
    ck = IncrementalCheckpointer(data_len=1 << 14, chunk_size=128, record_dir=directory)
    for _ in range(3):
        ck.checkpoint(data)
        data = data.copy()
        data[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
    return directory


class TestTraceCommand:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        rc = main(
            [
                "trace",
                "-o",
                str(out),
                "--vertices",
                "256",
                "--checkpoints",
                "3",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases >= {"M", "X"}
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}  # wall and sim tracks
        ckpt_spans = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "checkpoint"
        ]
        assert len(ckpt_spans) == 2 * 3  # both tracks x checkpoints
        assert "repro_hash_bytes" in metrics.read_text()
        assert "sim-clock check" in capsys.readouterr().out

    def test_trace_reports_clock_match(self, tmp_path, capsys):
        rc = main(
            ["trace", "-o", str(tmp_path / "t.json"), "--checkpoints", "2"]
        )
        assert rc == 0
        assert "— match" in capsys.readouterr().out

    def test_trace_leaves_telemetry_state(self, tmp_path):
        telemetry.disable()
        main(["trace", "-o", str(tmp_path / "t.json"), "--checkpoints", "2"])
        assert not telemetry.enabled()


class TestJsonFlags:
    def test_verify_json(self, record_dir, capsys):
        rc = main(["verify", str(record_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        assert len(doc["checkpoints"]) == 3
        assert all(c["status"] == "ok" for c in doc["checkpoints"])

    def test_verify_json_detects_corruption(self, record_dir, capsys):
        frames = sorted(record_dir.glob("*.rdif"))
        blob = bytearray(frames[1].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        frames[1].write_bytes(bytes(blob))
        rc = main(["verify", str(record_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["ok"] is False
        assert [c["status"] for c in doc["checkpoints"]] == [
            "ok", "corrupt", "ok"
        ]
        assert "valid_prefix_len" not in doc and "first_bad" not in doc

    def test_verify_text_counts_damaged_frames(self, record_dir, capsys):
        frames = sorted(record_dir.glob("*.rdif"))
        frames[1].unlink()
        rc = main(["verify", str(record_dir)])
        assert rc == 1
        assert "integrity: PROBLEMS — 1/3 frames damaged" in capsys.readouterr().out

    def test_inspect_json(self, record_dir, capsys):
        rc = main(["inspect", str(record_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["chain_ok"] is True
        assert doc["num_checkpoints"] == 3
        rows = doc["checkpoints"]
        assert rows[0]["ckpt_id"] == 0
        for row in rows:
            assert (
                row["first_bytes"] + row["shift_bytes"] + row["fixed_bytes"]
                == doc["data_len"]
            )

    def test_inspect_plain_still_works(self, record_dir, capsys):
        rc = main(["inspect", str(record_dir)])
        assert rc == 0
        assert "chain verified" in capsys.readouterr().out


class TestInspectCompositionFields:
    def test_inspect_json_carries_composition_fields(self, record_dir, capsys):
        rc = main(["inspect", str(record_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        for row in doc["checkpoints"]:
            assert "changed_fraction" in row
            assert "consolidation_factor" in row
            # Histograms are JSON objects keyed by stringified ints.
            assert all(isinstance(k, str) for k in row["first_region_chunks"])
            assert all(isinstance(k, str) for k in row["shift_targets"])
        seed = doc["checkpoints"][0]
        assert seed["changed_fraction"] == 1.0

    def test_empty_diff_consolidation_is_null(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, 1 << 13, dtype=np.uint8)
        directory = tmp_path / "rec"
        ck = IncrementalCheckpointer(
            data_len=1 << 13, chunk_size=128, record_dir=directory
        )
        ck.checkpoint(data)
        ck.checkpoint(data)  # unchanged: empty diff
        rc = main(["inspect", str(directory), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["checkpoints"][1]["consolidation_factor"] is None


class TestExplainCommand:
    def test_explain_text_summary(self, record_dir, capsys):
        rc = main(["explain", str(record_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "record record: 3 checkpoints" in out
        assert "sharing" in out

    def test_explain_json_classes_partition_bytes(self, record_dir, capsys):
        rc = main(["explain", str(record_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        totals = doc["totals"]
        assert (
            totals["first"] + totals["shift"] + totals["fixed"] + totals["zero"]
            == doc["logical_bytes"]
        )

    def test_explain_sweep_prices_requested_sizes(self, record_dir, capsys):
        rc = main(["explain", str(record_dir), "--json", "--sweep", "64,256"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [p["chunk_size"] for p in doc["sweep"]] == [64, 256]

    def test_explain_sweep_text_table(self, record_dir, capsys):
        rc = main(["explain", str(record_dir), "--sweep", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "what-if chunk-size sweep:" in out


class TestCensusCommand:
    def _fleet(self, tmp_path, names=("a", "b")):
        root = tmp_path / "fleet"
        rng = np.random.default_rng(3)
        base = rng.integers(0, 256, 1 << 13, dtype=np.uint8)
        for name in names:
            ck = IncrementalCheckpointer(
                data_len=1 << 13, chunk_size=128, record_dir=root / name
            )
            ck.checkpoint(base)  # shared content across the fleet
            nxt = base.copy()
            nxt[:128] = rng.integers(0, 256, 128, dtype=np.uint8)
            ck.checkpoint(nxt)
        return root

    def test_census_over_directory_of_records(self, tmp_path, capsys):
        root = self._fleet(tmp_path)
        rc = main(["census", str(root), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["num_records"] == 2
        assert {r["name"] for r in doc["records"]} == {"a", "b"}
        # The two records share the base buffer: pooling must beat the
        # best record-local ratio.
        assert doc["pool_forecast_ratio"] > doc["best_intra_ratio"]

    def test_census_accepts_single_record_dir(self, record_dir, capsys):
        rc = main(["census", str(record_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["num_records"] == 1

    def test_census_text_summary(self, tmp_path, capsys):
        root = self._fleet(tmp_path)
        rc = main(["census", str(root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shared-pool forecast" in out

    def test_census_empty_root_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        rc = main(["census", str(tmp_path / "empty")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no records found" in captured.err


def _finding_lines(text):
    return [line for line in text.splitlines() if line.startswith("  [")]


class TestOneVerdictAcrossCommands:
    """``health``, ``monitor --once`` and ``report`` grade the same files
    with the same engine: same findings, same status, same exit code."""

    def test_journals_of_two_runs_grade_critical_not_traceback(
        self, tmp_path, capsys
    ):
        a = write_clean_run(tmp_path / "a.jsonl", run_id="run-a")
        b = write_clean_run(tmp_path / "b.jsonl", run_id="run-b")
        assert main(["health", str(a), str(b)]) == 2
        health = _finding_lines(capsys.readouterr().out)
        assert len(health) == 1
        assert "journal_ingest" in health[0] and "critical" in health[0]
        assert "2 different runs" in health[0]

        assert main(["monitor", str(tmp_path), "--once"]) == 2
        assert _finding_lines(capsys.readouterr().out) == health

        out = tmp_path / "report.html"
        assert main(["report", str(a), str(b), "-o", str(out)]) == 0
        assert "status critical, 1 findings" in capsys.readouterr().out
        assert "journal_ingest" in out.read_text()

    def test_skipped_line_grades_warn_everywhere(self, tmp_path, capsys):
        path = write_clean_run(tmp_path / "run.jsonl")
        with path.open("a") as fh:
            fh.write('{"schema": 2, "type": "crash", "sim_t\n')
        assert main(["health", str(path)]) == 1
        health = _finding_lines(capsys.readouterr().out)
        assert len(health) == 1
        assert "journal_ingest" in health[0]
        assert "1 damaged journal line(s) skipped" in health[0]

        assert main(["monitor", str(path), "--once"]) == 1
        assert _finding_lines(capsys.readouterr().out) == health

        out = tmp_path / "report.html"
        assert main(["report", str(path), "-o", str(out)]) == 0
        assert "status warn, 1 findings" in capsys.readouterr().out
        assert "journal_ingest" in out.read_text()
