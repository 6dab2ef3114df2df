"""liveness_verdicts: deadlines, hung escalation, stragglers — and the
order-independence property: shuffled multi-rank heartbeat streams must
produce identical verdicts once merged (same style as
``test_aggregate.py``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.aggregate import (
    HUNG,
    LAGGING,
    OK,
    liveness_verdicts,
    merge_journals,
)
from repro.telemetry.events import CRASH, HEARTBEAT, RESTART
from repro.telemetry.health import LivenessRule, StragglerRule, evaluate_health


def verdicts(records, now=None):
    """Verdicts over *records* in whatever order they arrived."""
    return liveness_verdicts(merge_journals([records]), now)


def findings(records):
    return evaluate_health(
        records, rules=[LivenessRule(), StragglerRule()]
    ).findings


def beat(node, rank, sim, seq=0, interval=10.0, checkpoints=0):
    return {
        "schema": 2,
        "seq": seq,
        "type": HEARTBEAT,
        "run_id": "run",
        "node": node,
        "rank": rank,
        "wall_time": 0.0,
        "sim_time": sim,
        "interval_seconds": interval,
        "checkpoints": checkpoints,
    }


def crash(node, rank, sim, seq=0):
    return {
        "schema": 2,
        "seq": seq,
        "type": CRASH,
        "run_id": "run",
        "node": node,
        "rank": rank,
        "wall_time": 0.0,
        "sim_time": sim,
    }


def restart(node, rank, sim, seq=0):
    return {
        "schema": 2,
        "seq": seq,
        "type": RESTART,
        "run_id": "run",
        "node": node,
        "rank": rank,
        "wall_time": 0.0,
        "sim_time": sim,
    }


def fleet_stream(num_ranks=4, beats_per_rank=5, interval=10.0):
    records = []
    for r in range(num_ranks):
        for i in range(beats_per_rank):
            records.append(
                beat("node0", r, (i + 1) * interval, seq=i, checkpoints=i + 1)
            )
    return records


class TestDeadlines:
    def test_all_on_deadline_is_ok(self):
        assert {v.state for v in verdicts(fleet_stream()).values()} == {OK}

    def test_missed_deadlines_grade_lagging_then_hung(self):
        records = [beat("node0", 0, 10.0), beat("node0", 1, 10.0)]
        # Rank 1 keeps beating; rank 0 goes silent.
        for i in range(2, 8):
            records.append(beat("node0", 1, i * 10.0, seq=i))
        v0 = verdicts(records, now=35.0)[("node0", 0)]
        assert v0.state == LAGGING and v0.misses == 2
        v0 = verdicts(records, now=55.0)[("node0", 0)]
        assert v0.state == HUNG
        assert verdicts(records, now=55.0)[("node0", 1)].state == OK

    def test_crash_without_restart_hung_within_one_deadline(self):
        records = [
            beat("node0", 0, 20.0, seq=1),
            beat("node0", 1, 20.0, seq=1),
            crash("node0", 1, 25.0, seq=2),
        ]
        # Before one interval has elapsed: not hung yet (restart grace).
        before = verdicts(records, now=30.0)[("node0", 1)]
        assert before.state != HUNG
        # One heartbeat deadline after the crash: hung, no waiting out
        # HUNG_MISSES silent beats.
        after = verdicts(records, now=35.0)[("node0", 1)]
        assert after.state == HUNG
        assert "no restart" in after.reason

    def test_restart_clears_the_open_crash(self):
        records = [
            beat("node0", 0, 20.0, seq=1),
            crash("node0", 0, 25.0, seq=2),
            restart("node0", 0, 26.0, seq=3),
            beat("node0", 0, 30.0, seq=4),
        ]
        assert verdicts(records, now=31.0)[("node0", 0)].state == OK

    def test_interval_inferred_from_gaps_when_undeclared(self):
        records = [
            beat("node0", 0, i * 3.0, seq=i, interval=None) for i in range(1, 5)
        ]
        verdict = verdicts(records, now=12.0)[("node0", 0)]
        assert verdict.interval == pytest.approx(3.0)
        assert verdicts(records, now=30.0)[("node0", 0)].state == HUNG

    def test_hung_findings_are_critical(self):
        # The rules grade at the newest heartbeat/crash/restart instant:
        # rank 1's beat at t=40 is what moves the fleet clock past rank
        # 0's restart grace.
        graded = findings(
            [
                beat("node0", 0, 10.0),
                crash("node0", 0, 15.0, seq=1),
                beat("node0", 1, 40.0),
            ]
        )
        assert len(graded) == 1
        assert graded[0].rule == "liveness"
        assert graded[0].severity == "critical"
        assert graded[0].rank == 0


class TestStragglers:
    def test_slow_rank_flagged_relative_to_fleet(self):
        records = []
        for r in range(6):
            gap = 10.0 if r < 5 else 25.0  # rank 5 is 2.5x slower
            for i in range(1, 6):
                records.append(beat("node0", r, i * gap, seq=i, interval=None))
        graded = verdicts(records, now=50.0)
        assert graded[("node0", 5)].straggler
        assert not any(graded[("node0", r)].straggler for r in range(5))
        # Through the registry (graded at the slow rank's own last beat).
        (flagged,) = [f for f in findings(records) if f.rule == "straggler"]
        assert flagged.rank == 5 and flagged.severity == "warn"

    def test_uniform_fleet_has_no_stragglers(self):
        graded = verdicts(fleet_stream(num_ranks=6))
        assert not any(v.straggler for v in graded.values())


class TestOrderIndependence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_shuffled_streams_identical_verdicts(self, seed):
        records = fleet_stream(num_ranks=4, beats_per_rank=5)
        records.append(crash("node0", 2, 35.0, seq=90))
        records.append(crash("node0", 3, 12.0, seq=91))
        records.append(restart("node0", 3, 13.0, seq=92))

        baseline = {
            k: v.as_dict() for k, v in verdicts(records, now=60.0).items()
        }

        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        assert {
            k: v.as_dict() for k, v in verdicts(shuffled, now=60.0).items()
        } == baseline

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_shuffled_findings_identical(self, seed):
        records = fleet_stream(num_ranks=3, beats_per_rank=4)
        records.append(crash("node0", 1, 22.0, seq=50))
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)

        def graded(stream):
            return sorted(
                (f.rule, f.severity, f.node, f.rank, f.message)
                for f in findings(stream)
            )

        assert graded(records)  # rank 1 is hung by the fleet's t=40 beats
        assert graded(shuffled) == graded(records)
