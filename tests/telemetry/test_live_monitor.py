"""LiveMonitor + MonitorServer: ingestion paths, exposition, endpoints."""

import json
import urllib.request

import pytest

from repro.telemetry import events
from repro.telemetry.events import (
    CHECKPOINT_COMMITTED,
    CRASH,
    HEARTBEAT,
    EventJournal,
)
from repro.telemetry.export import validate_prometheus_text
from repro.telemetry.health import JournalIngestRule, default_rules
from repro.telemetry.live import LiveMonitor, MonitorServer
from repro.telemetry.live.server import CONTENT_TYPE_PROM, HEALTH_STATUS

INGEST_RULE = JournalIngestRule.name


def write_clean_run(path, ranks=2, beats=4, interval=10.0, run_id="run-a"):
    journal = EventJournal(path=path, run_id=run_id, node="node0")
    for i in range(1, beats + 1):
        now = i * interval
        for r in range(ranks):
            journal.emit(
                CHECKPOINT_COMMITTED,
                sim_time=now,
                rank=r,
                device_seconds=1e-4,
                blocked_seconds=0.0,
                produced_at=now,
                persisted_at=now + 1e-4,
                stored_bytes=100,
                full_bytes=1000,
            )
            journal.emit(
                HEARTBEAT,
                sim_time=now,
                rank=r,
                interval_seconds=interval,
                checkpoints=i,
            )
    return path


class TestFollowerMode:
    def test_clean_run_grades_ok(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor:
            report = monitor.report()
            assert report.status == "ok"
            assert report.findings == []
            assert monitor.records_seen == 16

    def test_crash_without_restart_goes_critical(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        journal = EventJournal(path=path, run_id="run-a", node="node0")
        journal.emit(CRASH, sim_time=45.0, rank=1)
        # Advance the fleet clock one deadline past the crash.
        journal.emit(
            HEARTBEAT, sim_time=60.0, rank=0, interval_seconds=10.0, checkpoints=6
        )
        with LiveMonitor(path) as monitor:
            report = monitor.report()
            assert report.status == "critical"
            hung = [f for f in report.findings if f.rule == "liveness"]
            assert hung and hung[0].rank == 1

    def test_mixed_runs_flagged_critical(self, tmp_path):
        write_clean_run(tmp_path / "a.jsonl", run_id="run-a")
        write_clean_run(tmp_path / "b.jsonl", run_id="run-b")
        with LiveMonitor(tmp_path) as monitor:
            report = monitor.report()
            ingest = [f for f in report.findings if f.rule == INGEST_RULE]
            assert ingest and ingest[0].severity == "critical"

    def test_damaged_lines_warn_not_crash(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with path.open("a") as fh:
            fh.write("not json at all\n")
        with LiveMonitor(path) as monitor:
            report = monitor.report()
            ingest = [f for f in report.findings if f.rule == INGEST_RULE]
            assert ingest and ingest[0].severity == "warn"
            assert "skipped" in ingest[0].message

    def test_report_runs_the_whole_registry(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor:
            assert monitor.report().rules_run == [
                r.name for r in default_rules()
            ]

    def test_idle_poll_returns_previous_report_without_regrading(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor:
            first = monitor.report()
            assert monitor.report() is first  # nothing new: not re-graded
            monitor.snapshot(), monitor.prometheus(), monitor.rank_table()
            assert monitor.report() is first
            journal = EventJournal(path=path, run_id="run-a", node="node0")
            journal.emit(CRASH, sim_time=45.0, rank=1)
            regraded = monitor.report()
            assert regraded is not first
            assert [f.rule for f in regraded.findings] == [
                "crash_loop",
                "liveness",
            ]
            # A poll that consumed only a damaged line still moves the grade.
            with path.open("a") as fh:
                fh.write("not json at all\n")
            assert INGEST_RULE in [f.rule for f in monitor.report().findings]


class TestBusMode:
    def test_bus_records_reach_monitor_without_disk(self):
        # No journal installed at all: records ride the bus only.
        with LiveMonitor(bus=True) as monitor:
            for i in range(1, 4):
                events.emit(
                    HEARTBEAT,
                    sim_time=i * 10.0,
                    rank=0,
                    interval_seconds=10.0,
                    checkpoints=i,
                )
            monitor.poll()
            assert monitor.records_seen == 3
            verdict = monitor.verdicts()[("node0", 0)]
            assert verdict.heartbeats == 3

    def test_close_unsubscribes(self):
        monitor = LiveMonitor(bus=True)
        monitor.close()
        events.emit(HEARTBEAT, sim_time=10.0, rank=0)
        monitor.poll()
        assert monitor.records_seen == 0


class TestRendering:
    def test_prometheus_page_is_format_valid(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor:
            text = monitor.prometheus()
        assert validate_prometheus_text(text) == []
        assert "repro_live_rank_state" in text
        assert "repro_live_heartbeats_total" in text
        assert "repro_live_latency_sim_seconds" in text
        assert 'rank="1"' in text

    def test_snapshot_shape(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor:
            snap = monitor.snapshot()
        assert snap["status"] == "ok"
        assert snap["records_seen"] == 16
        assert len(snap["ranks"]) == 2
        assert snap["slo"]["commit_latency"]["count"] == 8
        json.dumps(snap)  # must be JSON-serializable as served

    def test_rank_table_lists_every_rank(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl", ranks=3)
        with LiveMonitor(path) as monitor:
            table = monitor.rank_table()
        for r in range(3):
            assert f"node0/r{r}" in table
        assert "window[" in table


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read()


class TestMonitorServer:
    def test_endpoints_on_clean_run(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor, MonitorServer(monitor) as server:
            status, ctype, body = fetch(server.url + "/metrics")
            assert status == 200 and ctype == CONTENT_TYPE_PROM
            assert validate_prometheus_text(body.decode()) == []

            status, _, body = fetch(server.url + "/healthz")
            assert status == 200 and body.decode().strip() == "ok"

            status, ctype, body = fetch(server.url + "/slo")
            assert status == 200 and ctype == "application/json"
            snap = json.loads(body)
            assert snap["status"] == "ok" and len(snap["ranks"]) == 2

            status, _, _ = fetch(server.url + "/nope")
            assert status == 404

    def test_healthz_maps_critical_to_503(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        journal = EventJournal(path=path, run_id="run-a", node="node0")
        journal.emit(CRASH, sim_time=45.0, rank=1)
        journal.emit(
            HEARTBEAT, sim_time=60.0, rank=0, interval_seconds=10.0, checkpoints=6
        )
        with LiveMonitor(path) as monitor, MonitorServer(monitor) as server:
            status, _, body = fetch(server.url + "/healthz")
            assert status == 503 and body.decode().strip() == "critical"

    def test_scrape_sees_appended_events(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl", beats=2)
        with LiveMonitor(path) as monitor, MonitorServer(monitor) as server:
            _, _, before = fetch(server.url + "/slo")
            assert json.loads(before)["records_seen"] == 8
            journal = EventJournal(path=path, run_id="run-a", node="node0")
            journal.emit(
                HEARTBEAT, sim_time=30.0, rank=0, interval_seconds=10.0, checkpoints=3
            )
            _, _, after = fetch(server.url + "/slo")
            assert json.loads(after)["records_seen"] == 9

    def test_status_map_covers_every_grade(self):
        assert HEALTH_STATUS == {"ok": 200, "warn": 429, "critical": 503}


def append_attribution(path, run_id="run-a"):
    """Append record + census attribution summaries to a journal file."""
    from repro.telemetry.events import ATTRIBUTION_SUMMARY

    journal = EventJournal(path=path, run_id=run_id, node="node0")
    journal.emit(
        ATTRIBUTION_SUMMARY,
        sim_time=40.0,
        scope="record",
        record="recA",
        num_checkpoints=3,
        logical_bytes=30_000,
        stored_bytes=12_000,
        first_bytes=9_000,
        shift_bytes=3_000,
        fixed_bytes=15_000,
        zero_bytes=3_000,
        metadata_bytes=400,
        unique_cells=120,
        sharing_factor=2.5,
        max_lineage_depth=2,
    )
    journal.emit(
        ATTRIBUTION_SUMMARY,
        sim_time=40.0,
        scope="census_record",
        record="recA",
        cross_duplicate_share=0.4,
        intra_ratio=2.5,
        pool_ratio=3.0,
    )
    journal.emit(
        ATTRIBUTION_SUMMARY,
        sim_time=40.0,
        scope="census",
        num_records=1,
        pool_forecast_ratio=5.25,
        best_intra_ratio=2.5,
    )


class TestAttributionExposition:
    def test_attr_families_rendered_and_valid(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        append_attribution(path)
        with LiveMonitor(path) as monitor:
            monitor.poll()
            text = monitor.prometheus()
        assert validate_prometheus_text(text) == []
        assert 'repro_attr_class_bytes{record="recA",class="first"} 9000' in text
        assert 'repro_attr_class_bytes{record="recA",class="metadata"} 400' in text
        assert 'repro_attr_lineage_depth_max{record="recA"} 2' in text
        assert 'repro_attr_sharing_factor{record="recA"} 2.5' in text
        assert 'repro_attr_cross_duplicate_share{record="recA"} 0.4' in text
        assert "repro_attr_records_seen_total 1" in text
        assert "repro_attr_pool_forecast_ratio 5.25" in text

    def test_records_counter_present_without_attribution(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        with LiveMonitor(path) as monitor:
            monitor.poll()
            text = monitor.prometheus()
        assert "repro_attr_records_seen_total 0" in text
        # No census seen: the forecast gauge must be absent, not zero.
        assert "repro_attr_pool_forecast_ratio" not in text

    def test_metrics_endpoint_serves_attr_families(self, tmp_path):
        path = write_clean_run(tmp_path / "run.jsonl")
        append_attribution(path)
        with LiveMonitor(path) as monitor, MonitorServer(monitor) as server:
            status, ctype, body = fetch(server.url + "/metrics")
        assert status == 200 and ctype == CONTENT_TYPE_PROM
        text = body.decode()
        assert validate_prometheus_text(text) == []
        assert "repro_attr_class_bytes" in text
        assert "repro_attr_pool_forecast_ratio 5.25" in text
