"""End-to-end fleet observability: journal → rollup → health → report → CLI.

Acceptance criteria for the observability layer:

* a clean fixed-seed ORANGES run grades ``ok`` with **zero** findings;
* a seeded fault campaign gets **every** injected tier outage and
  record corruption flagged warn/critical, with the injection event in
  the finding's evidence;
* the ``repro health`` / ``repro report`` CLI round-trips journal files
  with the 0/1/2 exit-code convention.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import IncrementalCheckpointer
from repro.core.provenance import restore_record_indexed
from repro.faults import flip_bit
from repro.oranges import OrangesApp
from repro.runtime import AsyncFlushPipeline, NodeRuntime, StorageTier
from repro.telemetry import build_rollup, evaluate_health
from repro.telemetry.events import (
    RECORD_FAULT,
    TIER_OUTAGE,
    journal_to,
    write_journal,
)

#: Geometry of the golden trace (matches tests/integration/test_tree_golden.py).
TRACE = dict(workload="unstructured_mesh", num_vertices=512, seed=2)
CHUNK_SIZE = 64
NUM_CHECKPOINTS = 5


def _clean_oranges_journal():
    """Journal of the fixed-seed ORANGES run through a node runtime."""
    with journal_to(node="node0") as journal:
        app = OrangesApp(TRACE["workload"], num_vertices=TRACE["num_vertices"],
                         seed=TRACE["seed"])
        engine = app.fresh_engine()
        node = NodeRuntime(
            data_len=engine.buffer_nbytes,
            chunk_size=CHUNK_SIZE,
            num_processes=1,
        )
        for i, snap in enumerate(engine.checkpoint_stream(NUM_CHECKPOINTS)):
            node.checkpoint_all([snap.reshape(-1).view(np.uint8)], now=i * 10.0)
    return journal


def _faulted_journal(tmp_path):
    """Journal of a small seeded fault storm: outages + a corrupted record."""
    with journal_to(node="node0") as journal:
        # Tier outages through the flush pipeline.
        tiers = [
            StorageTier("host", 1 << 20, 100e6),
            StorageTier("ssd", 1 << 28, 50e6),
            StorageTier("pfs", 1 << 30, 1000e6),
        ]
        pipe = AsyncFlushPipeline(tiers, retry_base_seconds=0.05)
        pipe.tiers[0].fail_transient(0.0, 0.4)
        pipe.tiers[1].fail_permanent(0.0)
        for i in range(3):
            pipe.submit(f"ck{i}", 1 << 16, now=i * 0.5)

        # A corrupted stored record.
        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
        record = tmp_path / "record"
        ck = IncrementalCheckpointer(data_len=1 << 14, chunk_size=128, record_dir=record)
        for _ in range(3):
            ck.checkpoint(data)
            data = data.copy()
            data[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
        flip_bit(record, 2, byte_offset=200)
    return journal


class TestCleanRun:
    def test_fixed_seed_oranges_run_is_all_ok(self):
        journal = _clean_oranges_journal()
        report = evaluate_health(journal)
        assert report.findings == []
        assert report.status == "ok"
        assert report.exit_code == 0

    def test_clean_rollup_numbers(self):
        rollup = build_rollup(_clean_oranges_journal())
        assert rollup.total_checkpoints == NUM_CHECKPOINTS
        assert rollup.total_crashes == 0
        assert rollup.dedup_ratio > 1.0
        assert not rollup.tier_outages


class TestFaultedRun:
    def test_every_injected_outage_flagged_with_evidence(self, tmp_path):
        rollup = build_rollup(_faulted_journal(tmp_path))
        report = evaluate_health(rollup)
        outage_findings = report.findings_for("tier_outage")
        assert all(f.severity in ("warn", "critical") for f in outage_findings)
        for outage in rollup.events_of(TIER_OUTAGE):
            assert any(outage in f.evidence for f in outage_findings), (
                f"unflagged outage: {outage}"
            )
        # Permanent ssd outage escalates; transient host outage warns.
        severities = {f.evidence[0]["tier"]: f.severity for f in outage_findings}
        assert severities["ssd"] == "critical"
        assert severities["host"] == "warn"

    def test_every_injected_corruption_flagged_with_evidence(self, tmp_path):
        rollup = build_rollup(_faulted_journal(tmp_path))
        report = evaluate_health(rollup)
        corruption = report.findings_for("corruption")
        injected = rollup.events_of(RECORD_FAULT)
        assert injected, "campaign must have injected a record fault"
        assert len(corruption) == len(injected)
        assert all(f.severity == "critical" for f in corruption)
        for event in injected:
            assert any(event in f.evidence for f in corruption)

    def test_salvaged_prefix_still_restores(self, tmp_path):
        # Only the newest frame is damaged: the checkpoints before it
        # restore from their own rows.
        _faulted_journal(tmp_path)
        for k in range(2):
            state, _ = restore_record_indexed(tmp_path / "record", k)
            assert state.nbytes == 1 << 14


class TestCli:
    def test_health_exit_codes(self, tmp_path, capsys):
        clean = write_journal(tmp_path / "clean.jsonl",
                              _clean_oranges_journal().records())
        assert main(["health", str(clean)]) == 0
        assert "status: OK" in capsys.readouterr().out

        faulted = write_journal(tmp_path / "faulted.jsonl",
                                _faulted_journal(tmp_path).records())
        assert main(["health", str(faulted)]) == 2
        out = capsys.readouterr().out
        assert "status: CRITICAL" in out
        assert "tier_outage" in out

    def test_health_json_output(self, tmp_path, capsys):
        import json

        path = write_journal(tmp_path / "f.jsonl",
                             _faulted_journal(tmp_path).records())
        main(["health", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "critical"
        assert doc["fleet"]["tier_outages"] == 2
        assert doc["findings"]

    def test_health_merges_multiple_journals(self, tmp_path, capsys):
        journal = _clean_oranges_journal()
        records = journal.records()
        a = write_journal(tmp_path / "a.jsonl", records[:2])
        b = write_journal(tmp_path / "b.jsonl", records[2:])
        assert main(["health", str(b), str(a)]) == 0
        assert f"{len(records)} events" in capsys.readouterr().out

    def test_report_writes_html(self, tmp_path, capsys):
        path = write_journal(tmp_path / "f.jsonl",
                             _faulted_journal(tmp_path).records())
        out = tmp_path / "run.html"
        assert main(["report", str(path), "-o", str(out),
                     "--title", "Fault storm"]) == 0
        text = out.read_text()
        assert "<title>Fault storm</title>" in text
        assert "tier_outage" in text
