"""Live-monitoring smoke: scrape a run while it is actually running.

Drives the fixed-seed ORANGES fleet run in a background thread while a
:class:`~repro.telemetry.live.MonitorServer` tails its journal, and
polls the HTTP surface exactly the way a scraper would:

* hit ``/metrics`` + ``/healthz`` repeatedly until the first heartbeat
  shows up in the exposition page (``repro_live_heartbeats_total``);
* every ``/metrics`` page fetched along the way must pass
  :func:`~repro.telemetry.export.validate_prometheus_text`;
* once the run finishes, the final grade must be ``ok`` (HTTP 200, zero
  warn/critical findings — a clean run stays quiet), the monitor's
  report must equal :func:`~repro.telemetry.evaluate_health` on the
  journal it tailed (one engine, one verdict), and the closing ``/slo``
  snapshot is written to ``SLO_live_monitor.json`` (or
  ``$REPRO_BENCH_OUT``) as the CI artifact.

Run directly (``python benchmarks/smoke_live_monitor.py``) or under
pytest (the CI smoke job does the latter).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.replay import IncidentSchedule, RunConfig, drive_run
from repro.telemetry import evaluate_health, read_journal
from repro.telemetry.export import validate_prometheus_text
from repro.telemetry.live import LiveMonitor, MonitorServer

#: Fixed-seed ORANGES fleet geometry (same trace as bench_fuzz).
CONFIG = RunConfig(
    workload="unstructured_mesh",
    num_vertices=512,
    chunk_size=64,
    method="tree",
    num_processes=2,
    steps=5,
    period_seconds=10.0,
    seed=2,
    node_name="node0",
)

#: Wall-clock budget for the first heartbeat to reach a scrape.
FIRST_BEAT_TIMEOUT = float(os.environ.get("REPRO_SMOKE_TIMEOUT", 120.0))


def _fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:  # non-200 grades still have bodies
        return err.code, err.read().decode()


def run(out_path: Path | None = None) -> dict:
    report: dict = {"config": CONFIG.to_payload()}
    with tempfile.TemporaryDirectory(prefix="repro-live-smoke-") as tmp:
        journal_path = Path(tmp) / "run.jsonl"
        journal_path.touch()  # the follower may win the race to first poll

        result_box: dict = {}

        def drive() -> None:
            result_box["result"] = drive_run(
                CONFIG, IncidentSchedule(), journal_path=journal_path
            )

        driver = threading.Thread(target=drive, name="smoke-driver")
        with LiveMonitor(journal_path) as monitor, MonitorServer(
            monitor
        ) as server:
            driver.start()
            deadline = time.monotonic() + FIRST_BEAT_TIMEOUT
            scrapes = 0
            beats_seen = 0.0
            format_problems: list = []
            while time.monotonic() < deadline:
                status, page = _fetch(server.url + "/metrics")
                scrapes += 1
                assert status == 200, f"/metrics returned {status}"
                format_problems.extend(validate_prometheus_text(page))
                health_status, grade = _fetch(server.url + "/healthz")
                assert health_status in (200, 429, 503), grade
                beats_seen = sum(
                    float(line.rsplit(" ", 1)[1])
                    for line in page.splitlines()
                    if line.startswith("repro_live_heartbeats_total{")
                )
                if beats_seen >= 1:
                    break
                time.sleep(0.05)
            driver.join(timeout=300)
            assert not driver.is_alive(), "driven run never finished"

            # Final grade after the run completed: clean run stays quiet.
            final_status, final_grade = _fetch(server.url + "/healthz")
            _, final_page = _fetch(server.url + "/metrics")
            format_problems.extend(validate_prometheus_text(final_page))
            snapshot = monitor.snapshot()
            live_report = monitor.report().as_dict()
            post_hoc_report = evaluate_health(read_journal(journal_path)).as_dict()

        result = result_box["result"]
        report.update(
            {
                "scrapes_until_first_beat": scrapes,
                "first_beat_seen": beats_seen >= 1,
                "format_problems": format_problems,
                "final_healthz": {
                    "status": final_status,
                    "grade": final_grade.strip(),
                },
                "golden_ok": result.golden_ok,
                "live_equals_post_hoc": live_report == post_hoc_report,
                "snapshot": snapshot,
            }
        )

    if out_path is None:
        out_path = Path(
            os.environ.get(
                "REPRO_BENCH_OUT",
                Path(__file__).resolve().parent.parent
                / "SLO_live_monitor.json",
            )
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    report["out_path"] = str(out_path)
    return report


def test_smoke_live_monitor(capsys):
    report = run()
    with capsys.disabled():
        print()
        print(json.dumps({k: v for k, v in report.items() if k != "snapshot"},
                         indent=2))
    assert report["first_beat_seen"], "no heartbeat reached a scrape in time"
    assert report["format_problems"] == [], report["format_problems"]
    assert report["golden_ok"], "driven run restored wrong bytes"
    assert report["final_healthz"]["status"] == 200
    assert report["final_healthz"]["grade"] == "ok"
    assert report["live_equals_post_hoc"], "monitor and repro health disagree"
    snap = report["snapshot"]
    assert snap["status"] == "ok" and snap["findings"] == []
    assert all(r["state"] == "ok" for r in snap["ranks"])


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
