"""Tests for the integrated node runtime (Fig. 3 end to end)."""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError, SimulationError
from repro.record import RecordView
from repro.runtime import NodeRuntime
from repro.utils.rng import seeded_rng


def make_buffers(num, size, rng):
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(num)]


class TestNodeRuntime:
    def test_checkpoint_all_requires_matching_buffers(self, rng):
        runtime = NodeRuntime(4096, 64, num_processes=2)
        with pytest.raises(ValueError):
            runtime.checkpoint_all(make_buffers(3, 4096, rng), now=0.0)

    def test_too_many_processes_rejected(self):
        with pytest.raises(ValueError):
            NodeRuntime(4096, 64, num_processes=9)  # DGX has 8

    def test_overhead_accumulates(self, rng):
        runtime = NodeRuntime(64 * 256, 64, num_processes=2)
        buffers = make_buffers(2, 64 * 256, rng)
        runtime.checkpoint_all(buffers, now=0.0)
        first = runtime.total_overhead_seconds
        assert first > 0
        runtime.checkpoint_all(buffers, now=1.0)
        assert runtime.total_overhead_seconds > first

    def test_tree_overhead_below_full(self, rng):
        """The paper's bottom line: de-duplication reduces the
        application-visible I/O overhead of a checkpoint cadence."""
        size = 64 * 1024
        base = rng.integers(0, 256, size, dtype=np.uint8)
        results = {}
        for method in ("full", "tree"):
            runtime = NodeRuntime(
                size, 64, method=method, num_processes=4,
                host_staging_bytes=2 * size,
                host_drain_bandwidth=2.0e8,
            )
            cur = [base.copy() for _ in range(4)]
            for step in range(6):
                runtime.checkpoint_all(cur, now=step * 1e-4)
                for buf in cur:
                    buf[:128] = rng.integers(0, 256, 128, dtype=np.uint8)
            results[method] = runtime.overhead_report()
        assert results["tree"]["stored_bytes"] < results["full"]["stored_bytes"] / 3
        assert (
            results["tree"]["staging_seconds"]
            <= results["full"]["staging_seconds"]
        )
        assert results["tree"]["durable_at"] < results["full"]["durable_at"]

    def test_contention_scales_with_processes(self, rng):
        size = 64 * 512
        base = rng.integers(0, 256, size, dtype=np.uint8)
        overheads = {}
        for procs in (1, 8):
            runtime = NodeRuntime(size, 64, method="full", num_processes=procs)
            runtime.checkpoint_all([base.copy() for _ in range(procs)], now=0.0)
            overheads[procs] = (
                runtime.total_overhead_seconds / procs
            )  # per-process cost
        # Eight GPUs sharing the host link pay more per process.
        assert overheads[8] > overheads[1]

    def test_timelines_per_process(self, rng):
        runtime = NodeRuntime(4096, 64, num_processes=3)
        timelines = runtime.checkpoint_all(make_buffers(3, 4096, rng), now=0.0)
        assert [t.process for t in timelines] == [0, 1, 2]
        assert all(t.stored_bytes > 0 for t in timelines)

    def test_durability_ledger_tracks_every_checkpoint(self, rng):
        runtime = NodeRuntime(4096, 64, num_processes=2)
        buffers = make_buffers(2, 4096, rng)
        for step in range(3):
            runtime.checkpoint_all(buffers, now=float(step))
        for ledger in runtime.persisted:
            assert [c.ckpt_id for c in ledger] == [0, 1, 2]
            for entry in ledger:
                assert entry.persisted_at >= entry.produced_at


class TestCommitUnit:
    """Every process commits through its own IncrementalCheckpointer."""

    def test_unknown_method_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown method 'wavelet'"):
            NodeRuntime(1024, 64, method="wavelet", num_processes=1)

    def test_ledger_timeline_and_spans_come_from_the_units(self, rng):
        runtime = NodeRuntime(4096, 64, num_processes=2)
        buffers = make_buffers(2, 4096, rng)
        with telemetry.capture():
            for step in range(5):
                runtime.checkpoint_all(buffers, now=float(step))
                for b in buffers:
                    b[:128] = rng.integers(0, 256, 128, dtype=np.uint8)
            spans = telemetry.get_tracer().spans()
        for p, unit in enumerate(runtime.checkpointers):
            diffs = [c.diff for c in runtime.persisted[p]]
            assert len(diffs) == 5
            held = RecordView(unit.record.writer.store).log.frame_sha
            assert [d.content_digest() for d in diffs] == list(held)
            assert runtime.engines[p] is unit.engine
            assert sum(s.cost.total_seconds for s in unit.record.stats) == (
                runtime.timelines[p].blocking_device_seconds
            )
        commits = [r.attrs["ckpt_id"] for r in spans if r.name == "checkpoint"]
        assert sorted(commits) == [k for k in range(5) for _ in range(2)]
        assert not any(r.name == "node.checkpoint" for r in spans)


SIZE = 64 * 128
PERIOD = 10.0


def run_cadence(runtime, rng, steps):
    """Checkpoint on a cadence, returning the exact buffer snapshots."""
    buffers = make_buffers(runtime.num_processes, SIZE, rng)
    snapshots = []
    for step in range(steps):
        runtime.checkpoint_all(buffers, now=step * PERIOD)
        snapshots.append([b.copy() for b in buffers])
        for b in buffers:
            b[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
    return snapshots


class TestCrashRestart:
    def test_restore_is_bit_identical(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        snapshots = run_cadence(runtime, rng, steps=4)
        report = runtime.crash_restart(0, at_time=3 * PERIOD + 5.0)
        assert report.restored_ckpt_id == 3
        assert np.array_equal(report.restored_state, snapshots[3][0])

    def test_lost_work_measures_since_last_durable(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        run_cadence(runtime, rng, steps=4)
        last = runtime.persisted[1][-1]
        crash_at = last.persisted_at + 7.0
        report = runtime.crash_restart(1, at_time=crash_at)
        assert report.lost_work_seconds == pytest.approx(
            crash_at - last.produced_at
        )

    def test_cold_restart_before_any_durable(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        report = runtime.crash_restart(0, at_time=0.0)
        assert report.restored_ckpt_id is None
        assert report.lost_work_seconds == 0.0
        assert not report.restored_state.any()

    def test_in_flight_checkpoints_reported(self, rng):
        # Slow links: the first checkpoint takes many seconds to persist.
        runtime = NodeRuntime(
            SIZE, 64, num_processes=1,
            host_drain_bandwidth=1e3, ssd_drain_bandwidth=1e3,
        )
        runtime.checkpoint_all(make_buffers(1, SIZE, rng), now=0.0)
        entry = runtime.persisted[0][0]
        assert entry.persisted_at > entry.produced_at + 1.0
        report = runtime.crash_restart(0, at_time=entry.produced_at + 0.5)
        assert report.in_flight_ckpts == [0]
        assert report.restored_ckpt_id is None  # it never became durable

    def test_ledger_resets_after_restart(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        snapshots = run_cadence(runtime, rng, steps=3)
        first = runtime.crash_restart(0, at_time=100.0)
        ledger = runtime.persisted[0]
        assert [c.ckpt_id for c in ledger] == [0]
        assert ledger[0].persisted_at == 100.0
        # A second crash with no new checkpoints restores the same state.
        second = runtime.crash_restart(0, at_time=150.0)
        assert second.restored_ckpt_id == 0
        assert np.array_equal(second.restored_state, first.restored_state)
        assert np.array_equal(second.restored_state, snapshots[2][0])

    def test_cadence_continues_after_restart(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        run_cadence(runtime, rng, steps=2)
        runtime.crash_restart(0, at_time=50.0)
        fresh = make_buffers(2, SIZE, rng)
        runtime.checkpoint_all(fresh, now=60.0)
        report = runtime.crash_restart(0, at_time=1000.0)
        assert np.array_equal(report.restored_state, fresh[0])

    def test_other_processes_unaffected(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        snapshots = run_cadence(runtime, rng, steps=3)
        runtime.crash_restart(0, at_time=100.0)
        assert [c.ckpt_id for c in runtime.persisted[1]] == [0, 1, 2]
        survivor = runtime.crash_restart(1, at_time=200.0)
        assert np.array_equal(survivor.restored_state, snapshots[2][1])

    def test_total_lost_work_accumulates(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        run_cadence(runtime, rng, steps=2)
        a = runtime.crash_restart(0, at_time=30.0)
        b = runtime.crash_restart(1, at_time=40.0)
        assert runtime.total_lost_work_seconds == pytest.approx(
            a.lost_work_seconds + b.lost_work_seconds
        )
        assert len(runtime.crash_reports) == 2

    def test_invalid_process_rejected(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        with pytest.raises(SimulationError):
            runtime.crash_restart(2, at_time=1.0)

    def test_negative_crash_time_rejected(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        with pytest.raises(SimulationError):
            runtime.crash_restart(0, at_time=-1.0)


class TestIndexedRestart:
    """crash_restart rides the provenance-indexed restore path."""

    def test_warm_restart_reports_restore_cost(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        run_cadence(runtime, rng, steps=4)
        report = runtime.crash_restart(0, at_time=3 * PERIOD + 5.0)
        assert report.restore_seconds > 0.0
        assert report.restore_payload_bytes > 0
        # The cadence only mutates the first 256 bytes per step: the
        # restored state references the opening full checkpoint plus the
        # last writers of that window — never the whole chain.
        assert 1 <= report.restore_sources <= 3

    def test_cold_restart_has_no_restore_cost(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        report = runtime.crash_restart(0, at_time=0.0)
        assert report.restore_seconds == 0.0
        assert report.restore_payload_bytes == 0
        assert report.restore_sources == 0

    def test_restart_then_crash_again_is_consistent(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=1)
        run_cadence(runtime, rng, steps=3)
        runtime.crash_restart(0, at_time=2 * PERIOD + 1.0)
        snapshots = run_cadence(runtime, rng, steps=3)
        report = runtime.crash_restart(0, at_time=5 * PERIOD + 60.0)
        assert np.array_equal(report.restored_state, snapshots[-1][0])


class TestJournalEmission:
    """NodeRuntime journals checkpoints, crashes, and restarts when on."""

    def test_no_journal_no_events(self, rng):
        from repro.telemetry import events

        assert events.active_journal() is None
        runtime = NodeRuntime(SIZE, 64, num_processes=1)
        run_cadence(runtime, rng, steps=2)  # must not raise, nothing recorded

    def test_checkpoint_events_carry_dual_clock_and_identity(self, rng):
        from repro.telemetry.events import CHECKPOINT_COMMITTED, journal_to

        with journal_to(node="nodeX") as journal:
            runtime = NodeRuntime(SIZE, 64, num_processes=2, name="nodeX")
            run_cadence(runtime, rng, steps=2)
        ckpts = [
            e for e in journal.records() if e["type"] == CHECKPOINT_COMMITTED
        ]
        assert len(ckpts) == 4
        for e in ckpts:
            assert e["node"] == "nodeX"
            assert e["rank"] in (0, 1)
            assert e["sim_time"] == e["produced_at"]
            assert e["persisted_at"] >= e["produced_at"]
            assert e["stored_bytes"] > 0
            assert e["full_bytes"] == SIZE

    def test_crash_restart_emits_paired_events(self, rng):
        from repro.telemetry.events import CRASH, RESTART, journal_to

        runtime = NodeRuntime(SIZE, 64, num_processes=1)
        run_cadence(runtime, rng, steps=3)
        with journal_to(node="node0") as journal:
            report = runtime.crash_restart(0, at_time=2 * PERIOD + 1.0)
        kinds = [e["type"] for e in journal.records()]
        # The restart's internal restore journals itself too.
        assert kinds[0] == CRASH
        assert kinds[-1] == RESTART
        crash = journal.records()[0]
        restart = journal.records()[-1]
        assert crash["rank"] == restart["rank"] == 0
        assert crash["sim_time"] == restart["sim_time"] == 2 * PERIOD + 1.0
        assert restart["restored_ckpt_id"] == report.restored_ckpt_id
        assert restart["cold"] is (report.restored_ckpt_id is None)
        assert restart["lost_work_seconds"] == report.lost_work_seconds

    def test_a_crash_alone_journals_one_crash_and_restarts_nothing(self, rng):
        """A dropped recovery: the crash is journalled, the process keeps
        its ledger and nothing restores; a later restart restores the
        durable chain the crash saw."""
        from repro.telemetry.events import CRASH, journal_to

        runtime = NodeRuntime(SIZE, 64, num_processes=1)
        snapshots = run_cadence(runtime, rng, steps=3)
        ledger = list(runtime.persisted[0])
        at = ledger[1].persisted_at
        with journal_to(node="node0") as journal:
            assert runtime.crash(0, at) == [
                c.ckpt_id for c in ledger if c.produced_at <= at < c.persisted_at
            ]
        (crash,) = journal.records()
        assert crash["type"] == CRASH and crash["sim_time"] == at
        assert crash["durable_ckpts"] == 2
        assert runtime.persisted[0] == ledger
        assert runtime.crash_reports == []
        assert runtime.durable_chain(0, at) == ledger[:2]
        assert runtime.durable_chain(0, -1.0) == []
        report = runtime.crash_restart(0, at)
        assert report.restored_ckpt_id == 1
        assert np.array_equal(report.restored_state, snapshots[1][0])


class TestShardedRestart:
    """crash_restart with fan_out > 1 borrows idle sibling GPUs."""

    def test_bit_identical_to_single_gpu(self, rng):
        snapshots = {}
        reports = {}
        for fan_out in (1, 4):
            local = seeded_rng(99)
            runtime = NodeRuntime(SIZE, 64, num_processes=2)
            snapshots[fan_out] = run_cadence(runtime, local, steps=4)
            reports[fan_out] = runtime.crash_restart(
                0, at_time=3 * PERIOD + 5.0, fan_out=fan_out
            )
        assert np.array_equal(
            reports[1].restored_state, reports[4].restored_state
        )
        assert np.array_equal(
            reports[4].restored_state, snapshots[4][3][0]
        )
        assert reports[1].restore_fan_out == 1
        assert reports[4].restore_fan_out == 4
        assert reports[1].restored_ckpt_id == reports[4].restored_ckpt_id

    def test_fan_out_reduces_restore_seconds(self, rng):
        seconds = {}
        for fan_out in (1, 4):
            local = seeded_rng(7)
            runtime = NodeRuntime(SIZE, 64, num_processes=2)
            run_cadence(runtime, local, steps=4)
            seconds[fan_out] = runtime.crash_restart(
                0, at_time=3 * PERIOD + 5.0, fan_out=fan_out
            ).restore_seconds
        assert 0 < seconds[4] < seconds[1]

    def test_fan_out_beyond_node_rejected(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        run_cadence(runtime, rng, steps=2)
        with pytest.raises(SimulationError, match="fan-out"):
            runtime.crash_restart(0, at_time=PERIOD + 1.0, fan_out=9)

    def test_cold_restart_ignores_fan_out(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=2)
        report = runtime.crash_restart(0, at_time=0.0, fan_out=4)
        assert report.restored_ckpt_id is None
        assert report.restore_seconds == 0.0

    def test_emits_sharded_node_restore_event(self, rng):
        from repro.telemetry.aggregate import build_rollup
        from repro.telemetry.events import RESTORE, journal_to

        # Every fan-out, 1 included, journals its one restore on the
        # crashed process's own identity, not the journal's defaults: the
        # rollup sees the node's two ranks and no third.
        for fan_out in (1, 2):
            with journal_to(node="ignored") as journal:
                runtime = NodeRuntime(4096, 64, num_processes=2, name="nodeA")
                buffers = make_buffers(2, 4096, seeded_rng(5))
                for step in range(4):
                    runtime.checkpoint_all(buffers, now=step * PERIOD)
                report = runtime.crash_restart(1, at_time=100.0, fan_out=fan_out)
            restores = [
                e for e in journal.records() if e["type"] == RESTORE
            ]
            assert len(restores) == 1
            event = restores[0]
            assert (event["node"], event["rank"]) == ("nodeA", 1)
            assert event["sim_time"] == 100.0
            assert event["path"] == "sharded_node"
            assert event["ranks"] == fan_out
            assert event["critical_path_seconds"] == report.restore_seconds
            assert event["predicted_seconds"] > 0
            assert len(build_rollup(journal.records()).ranks) == 2

    def test_fan_out_beyond_chunks_rejected_before_any_event(self, rng):
        from repro.telemetry.events import journal_to

        runtime = NodeRuntime(256, 64, num_processes=1)
        runtime.checkpoint_all(make_buffers(1, 256, rng), now=0.0)
        with journal_to() as journal:
            with pytest.raises(SimulationError, match="4 chunks"):
                runtime.crash_restart(0, at_time=100.0, fan_out=8)
        assert journal.records() == []
        assert runtime.crash_reports == []

    def test_cadence_continues_after_sharded_restart(self, rng):
        runtime = NodeRuntime(SIZE, 64, num_processes=1)
        run_cadence(runtime, rng, steps=3)
        runtime.crash_restart(0, at_time=2 * PERIOD + 1.0, fan_out=4)
        snapshots = run_cadence(runtime, rng, steps=2)
        report = runtime.crash_restart(0, at_time=4 * PERIOD + 30.0)
        assert np.array_equal(report.restored_state, snapshots[-1][0])
