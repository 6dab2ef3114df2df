"""Live-monitoring acceptance: the two ends of the tentpole contract.

* A run whose rank 1 suffers a **dropped recovery** (crash with no
  restart) must be reported ``hung`` by a monitor tailing the journal
  *while the run is still in flight* — within one heartbeat deadline of
  the crash, not post-hoc.
* A clean fixed-seed ORANGES run must finish with **zero** live
  warn/critical findings, and its ``/metrics`` page must pass the
  exposition-format validator end to end over HTTP.
"""

import json
import threading
import urllib.request

import numpy as np

from repro.faults.plan import CrashSpec
from repro.oranges import OrangesApp
from repro.replay import IncidentSchedule, RunConfig, drive_run
from repro.runtime import NodeRuntime
from repro.telemetry import evaluate_health, read_journal
from repro.telemetry.events import HEARTBEAT, journal_to
from repro.telemetry.export import validate_prometheus_text
from repro.telemetry.live import HUNG, LiveMonitor, MonitorServer

#: Geometry of the golden trace (matches test_fleet_observability.py).
TRACE = dict(workload="unstructured_mesh", num_vertices=512, seed=2)
CHUNK_SIZE = 64
NUM_CHECKPOINTS = 5

SYNTH = RunConfig(
    workload="synthetic",
    data_len=4096,
    chunk_size=64,
    num_processes=2,
    steps=5,
    period_seconds=10.0,
    seed=7,
)


class TestMidRunHungDetection:
    def test_dropped_recovery_reported_hung_while_run_is_live(self, tmp_path):
        """Rank 1 crashes at t=25 and never restarts; a monitor tailing
        the journal must grade it hung at t=40 — one deadline past the
        crash — while the driving thread is demonstrably still mid-run."""
        journal_path = tmp_path / "run.jsonl"
        schedule = IncidentSchedule(
            crashes=[CrashSpec(process=1, at=25.0, restart=False)]
        )

        reached = threading.Event()  # driver hit t>=40, paused
        release = threading.Event()  # monitor done, let the run finish
        failures = []

        def on_step(step, now):
            if now >= 40.0 and not reached.is_set():
                reached.set()
                if not release.wait(timeout=30):
                    failures.append("monitor never released the driver")

        result_box = {}

        def drive():
            result_box["result"] = drive_run(
                SYNTH, schedule, journal_path=journal_path, on_step=on_step
            )

        driver = threading.Thread(target=drive, name="driver")
        driver.start()
        try:
            assert reached.wait(timeout=30), "driver never reached t=40"
            # The run is paused mid-flight; grade it from the journal.
            with LiveMonitor(journal_path) as monitor:
                report = monitor.report()
                verdicts = monitor.verdicts()
            v1 = verdicts[("node0", 1)]
            assert v1.state == HUNG
            assert "no restart" in v1.reason
            assert verdicts[("node0", 0)].state == "ok"
            assert report.status == "critical"
            hung = [
                f
                for f in report.findings
                if f.rule == "liveness" and f.severity == "critical"
            ]
            assert hung and hung[0].rank == 1
        finally:
            release.set()
            driver.join(timeout=60)
        assert not driver.is_alive()
        assert not failures
        # The monitor's mid-run verdict didn't perturb the run itself.
        assert result_box["result"].golden_ok


class TestCleanRunStaysQuiet:
    def _clean_oranges_journal(self, path):
        with journal_to(path=path, node="node0") as journal:
            app = OrangesApp(
                TRACE["workload"],
                num_vertices=TRACE["num_vertices"],
                seed=TRACE["seed"],
            )
            engine = app.fresh_engine()
            node = NodeRuntime(
                data_len=engine.buffer_nbytes,
                chunk_size=CHUNK_SIZE,
                num_processes=1,
                heartbeat_interval=10.0,
            )
            for i, snap in enumerate(engine.checkpoint_stream(NUM_CHECKPOINTS)):
                node.checkpoint_all(
                    [snap.reshape(-1).view(np.uint8)], now=i * 10.0
                )
        return journal

    def test_oranges_run_raises_zero_live_findings(self, tmp_path):
        path = tmp_path / "oranges.jsonl"
        self._clean_oranges_journal(path)
        with LiveMonitor(path) as monitor:
            report = monitor.report()
            assert report.status == "ok"
            assert report.findings == []
            # Every checkpoint round heartbeat arrived.
            verdict = monitor.verdicts()[("node0", 0)]
            assert verdict.heartbeats == NUM_CHECKPOINTS
            assert verdict.state == "ok" and not verdict.straggler
        # ... and the same journal graded post hoc says the same.
        post_hoc = evaluate_health(read_journal(path))
        assert post_hoc.status == "ok" and post_hoc.findings == []

    def test_metrics_endpoint_valid_over_http(self, tmp_path):
        path = tmp_path / "oranges.jsonl"
        self._clean_oranges_journal(path)
        with LiveMonitor(path) as monitor, MonitorServer(monitor) as server:
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=10
            ) as resp:
                assert resp.status == 200
                page = resp.read().decode()
            assert validate_prometheus_text(page) == []
            assert "repro_live_status 0" in page
            with urllib.request.urlopen(
                server.url + "/slo", timeout=10
            ) as resp:
                snap = json.loads(resp.read())
            assert snap["status"] == "ok" and snap["findings"] == []

    def test_journal_carries_heartbeats(self, tmp_path):
        path = tmp_path / "oranges.jsonl"
        journal = self._clean_oranges_journal(path)
        beats = [r for r in journal.records() if r["type"] == HEARTBEAT]
        assert len(beats) == NUM_CHECKPOINTS
        assert all(b["interval_seconds"] == 10.0 for b in beats)
