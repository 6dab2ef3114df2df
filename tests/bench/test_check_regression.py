"""The CI benchmark regression gate: extraction, thresholds, exit codes."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
import check_regression  # noqa: E402


def _write_reports(directory, gbps=7.0, mops=4.5, speedup=9.0,
                   detection=1.0, recovery=1.0, gather_ratio=1.4):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_hotpath.json").write_text(json.dumps(
        {"hash": {"gb_per_s": gbps}, "map": {"mops_per_s": mops}}
    ))
    (directory / "BENCH_restore.json").write_text(json.dumps(
        {"tree_sweep": [
            {"chain_len": 10, "speedup": 2.0},
            {"chain_len": 50, "speedup": speedup},
        ],
         "gather": {"sources_100_over_1": gather_ratio}}
    ))
    (directory / "BENCH_faults.json").write_text(json.dumps(
        {"record": {"total": {"detection_rate": detection,
                              "recovery_rate": recovery}}}
    ))


class TestExtract:
    def test_dotted_path(self):
        assert check_regression.extract({"a": {"b": 2.5}}, "a.b") == 2.5

    def test_list_selector(self):
        doc = {"rows": [{"k": 1, "v": 10}, {"k": 2, "v": 20}]}
        assert check_regression.extract(doc, "rows[k=2].v") == 20

    def test_missing_returns_none(self):
        assert check_regression.extract({}, "a.b") is None
        assert check_regression.extract({"rows": []}, "rows[k=1].v") is None
        assert check_regression.extract({"a": 3}, "a.b") is None


class TestGate:
    def test_identical_reports_pass(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        rc = check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_small_drop_within_threshold_passes(self, tmp_path):
        _write_reports(tmp_path / "base", gbps=10.0)
        _write_reports(tmp_path / "fresh", gbps=8.0)
        assert check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ]) == 0

    def test_large_drop_fails(self, tmp_path, capsys):
        _write_reports(tmp_path / "base", speedup=10.0)
        _write_reports(tmp_path / "fresh", speedup=5.0)
        rc = check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert rc == 1
        assert "FAIL (-50%)" in capsys.readouterr().out

    def test_threshold_flag_tightens_gate(self, tmp_path):
        _write_reports(tmp_path / "base", gbps=10.0)
        _write_reports(tmp_path / "fresh", gbps=9.0)
        assert check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
            "--threshold", "0.05",
        ]) == 1

    def test_metric_missing_from_fresh_fails(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        (tmp_path / "fresh" / "BENCH_hotpath.json").write_text(
            json.dumps({"hash": {}, "map": {"mops_per_s": 4.5}})
        )
        rc = check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert rc == 1
        assert "metric gone" in capsys.readouterr().out

    def test_metric_missing_from_baseline_skips(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        (tmp_path / "base" / "BENCH_hotpath.json").write_text(
            json.dumps({"hash": {}, "map": {"mops_per_s": 4.5}})
        )
        rc = check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert rc == 0
        assert "skip (new metric)" in capsys.readouterr().out

    def test_missing_baseline_file_skips(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        (tmp_path / "base" / "BENCH_faults.json").unlink()
        assert check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ]) == 0
        assert "no baseline file" in capsys.readouterr().out

    def test_improvement_passes(self, tmp_path):
        _write_reports(tmp_path / "base", gbps=5.0)
        _write_reports(tmp_path / "fresh", gbps=50.0)
        assert check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ]) == 0

    def test_bounded_metric_under_ceiling_passes(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        for d in ("base", "fresh"):
            (tmp_path / d / "BENCH_append.json").write_text(json.dumps(
                {"append": {"tail_over_head_ratio": 1.1,
                            "bytes_tail_over_head_ratio": 1.2,
                            "index_bytes_per_append_ratio": 1.0}}
            ))
        assert check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ]) == 0
        assert "under ceiling" in capsys.readouterr().out

    def test_bounded_metric_over_ceiling_fails(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        for d, ratio in (("base", 1.1), ("fresh", 7.6)):
            (tmp_path / d / "BENCH_append.json").write_text(json.dumps(
                {"append": {"tail_over_head_ratio": ratio,
                            "bytes_tail_over_head_ratio": 1.2,
                            "index_bytes_per_append_ratio": 1.0}}
            ))
        rc = check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert rc == 1
        assert "over ceiling" in capsys.readouterr().out

    def test_gather_paying_per_source_fails(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh", gather_ratio=5.0)
        rc = check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        assert rc == 1
        assert "gather.sources_100_over_1" in capsys.readouterr().out

    def test_bounded_metric_gone_from_fresh_fails(self, tmp_path, capsys):
        _write_reports(tmp_path / "base")
        _write_reports(tmp_path / "fresh")
        (tmp_path / "base" / "BENCH_append.json").write_text(json.dumps(
            {"append": {"tail_over_head_ratio": 1.1,
                        "bytes_tail_over_head_ratio": 1.2,
                        "index_bytes_per_append_ratio": 1.0}}
        ))
        assert check_regression.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ]) == 1

    def test_gate_accepts_committed_reports(self, capsys):
        repo = Path(__file__).resolve().parents[2]
        assert check_regression.main([
            "--baseline", str(repo), "--fresh", str(repo),
        ]) == 0
