"""Window SLIs (the ``/slo`` summary) and the two tail-latency rules that
grade them; the dedup and failure signals the retired streaming engine
also graded are covered by their registry rules."""

import pytest

from repro.telemetry.aggregate import SLO_WINDOW, window_slis
from repro.telemetry.events import CHECKPOINT_COMMITTED, CRASH, FLUSH_RETRY
from repro.telemetry.health import (
    CommitLatencyTailRule,
    DedupRegressionRule,
    FlushLatencyTailRule,
    evaluate_health,
)


def commit(
    sim,
    seq=0,
    device=1e-4,
    blocked=0.0,
    produced=None,
    persisted=None,
    stored=100,
    full=1000,
    rank=0,
):
    produced = produced if produced is not None else sim
    persisted = persisted if persisted is not None else produced + 1e-5
    return {
        "schema": 2,
        "seq": seq,
        "type": CHECKPOINT_COMMITTED,
        "run_id": "run",
        "node": "node0",
        "rank": rank,
        "wall_time": 0.0,
        "sim_time": sim,
        "device_seconds": device,
        "blocked_seconds": blocked,
        "produced_at": produced,
        "persisted_at": persisted,
        "stored_bytes": stored,
        "full_bytes": full,
    }


def failure(sim, type=FLUSH_RETRY, seq=0):
    return {
        "schema": 2,
        "seq": seq,
        "type": type,
        "run_id": "run",
        "node": "node0",
        "rank": 0,
        "wall_time": 0.0,
        "sim_time": sim,
    }


def tail_findings(records):
    return evaluate_health(
        records, rules=[CommitLatencyTailRule(), FlushLatencyTailRule()]
    ).findings


class TestWindowQuantiles:
    def test_summary_carries_p50_p99(self):
        records = [commit(float(i), seq=i, device=1e-3) for i in range(20)]
        stats = window_slis(records)["commit_latency"]
        assert stats["count"] == 20
        assert stats["p50"] == pytest.approx(1e-3, rel=1.0)
        assert stats["p99"] >= stats["p50"]

    def test_window_slides(self):
        records = [commit(float(i), seq=i) for i in range(SLO_WINDOW + 6)]
        summary = window_slis(records)
        assert summary["commit_latency"]["count"] == SLO_WINDOW
        assert summary["commits"] == SLO_WINDOW + 6

    def test_clean_stream_produces_no_findings(self):
        records = [commit(float(i), seq=i) for i in range(30)]
        assert evaluate_health(records).findings == []


class TestLatencyAlerts:
    def test_tail_ratio_alert_without_target(self):
        records = [commit(float(i), seq=i, device=1e-5) for i in range(40)]
        records += [commit(float(i), seq=i, device=1e-1) for i in range(40, 42)]
        findings = [
            f for f in tail_findings(records) if f.rule == "slo_commit_latency"
        ]
        assert findings and findings[0].severity in ("warn", "critical")
        assert "tail" in findings[0].message
        assert findings[0].evidence == [window_slis(records)["commit_latency"]]

    def test_flush_tail_is_graded_under_its_own_name(self):
        records = [
            commit(float(i), seq=i, persisted=float(i) + 1e-5) for i in range(40)
        ]
        records += [
            commit(float(i), seq=i, persisted=float(i) + 1e-1)
            for i in range(40, 42)
        ]
        assert [f.rule for f in tail_findings(records)] == ["slo_flush_latency"]


class TestDedupDrift:
    """The collapsing-ratio signal is ``dedup_regression``'s alone now."""

    def test_collapsing_ratio_alerts(self):
        steady = [
            commit(float(i), seq=i, stored=100, full=1000) for i in range(8)
        ]
        assert evaluate_health(steady).findings == []
        collapsed = steady + [
            commit(float(i), seq=i, stored=1000, full=1000) for i in range(8, 30)
        ]
        findings = evaluate_health(collapsed).findings
        assert [f.rule for f in findings] == [DedupRegressionRule.name]

    def test_improving_ratio_never_alerts(self):
        records = [
            commit(float(i), seq=i, stored=max(10, 1000 - 40 * i), full=1000)
            for i in range(20)
        ]
        assert evaluate_health(records).findings == []


class TestBacklogAndBurn:
    def test_backlog_depth_counts_in_flight(self):
        # Ten commits produced by t=10, none durable until t=100.
        records = [
            commit(float(i), seq=i, produced=float(i), persisted=100.0)
            for i in range(10)
        ]
        assert window_slis(records)["backlog_depth"] == 10

    def test_drained_backlog_is_quiet(self):
        records = [
            commit(float(i), seq=i, produced=float(i), persisted=float(i) + 0.1)
            for i in range(10)
        ]
        records.append(commit(50.0, seq=99, produced=49.0, persisted=50.0))
        assert window_slis(records)["backlog_depth"] == 0

    def test_failures_are_counted_not_graded_here(self):
        records = [commit(float(i), seq=i) for i in range(20)]
        assert window_slis(records)["failures"] == 0
        records += [failure(21.0, seq=50), failure(22.0, type=CRASH, seq=51)]
        assert window_slis(records)["failures"] == 2
        assert tail_findings(records) == []
