"""NodeRuntime → RecordWriter wiring: flushes land in on-disk records."""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import IncrementalCheckpointer, Restorer
from repro.core.provenance import restore_record_indexed
from repro.core.store import load_record, verify_record
from repro.faults import RecordFault, delete_frame, truncate_frame
from repro.replay.driver import IncidentSchedule, drive_run
from repro.replay.timeline import RunConfig
from repro.runtime import NodeRuntime
from repro.telemetry import events

SIZE = 64 * 256


def _buffers(num, rng, size=SIZE):
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(num)]


class TestNodeRecording:
    def test_flushed_checkpoints_land_in_per_process_records(self, rng, tmp_path):
        runtime = NodeRuntime(
            SIZE, 64, num_processes=2, record_root=tmp_path / "records"
        )
        buffers = _buffers(2, rng)
        runtime.checkpoint_all(buffers, now=0.0)
        mutated = [b.copy() for b in buffers]
        for b in mutated:
            b[:128] = 0
        runtime.checkpoint_all(mutated, now=1.0)
        for p in range(2):
            record_dir = runtime.record_path(p)
            assert verify_record(record_dir).ok
            loaded = load_record(record_dir)
            assert [d.ckpt_id for d in loaded] == [0, 1]
            restored = Restorer().restore_all(loaded)[-1]
            assert np.array_equal(restored, mutated[p])

    def test_record_mirrors_ledger(self, rng, tmp_path):
        runtime = NodeRuntime(
            SIZE, 64, num_processes=1, record_root=tmp_path / "records"
        )
        for step in range(3):
            runtime.checkpoint_all(_buffers(1, rng), now=float(step))
        ledger = runtime.persisted[0]
        loaded = load_record(runtime.record_path(0))
        assert len(loaded) == len(ledger)
        for held, disk in zip(ledger, loaded):
            assert held.diff.to_bytes() == disk.to_bytes()

    def test_crash_restart_resets_and_reseeds_record(self, rng, tmp_path):
        runtime = NodeRuntime(
            SIZE, 64, num_processes=1, record_root=tmp_path / "records"
        )
        buffers = _buffers(1, rng)
        runtime.checkpoint_all(buffers, now=0.0)
        runtime.checkpoint_all(buffers, now=1.0)
        report = runtime.crash_restart(0, at_time=2.0)
        assert report.restored_ckpt_id is not None
        loaded = load_record(runtime.record_path(0))
        assert [d.ckpt_id for d in loaded] == [0]
        assert np.array_equal(
            Restorer().restore_all(loaded)[-1], report.restored_state
        )
        # The chain keeps growing from the restart seed.
        runtime.checkpoint_all(buffers, now=3.0)
        assert [d.ckpt_id for d in load_record(runtime.record_path(0))] == [0, 1]

    def test_crash_restart_of_a_hybrid_unit(self, rng, tmp_path):
        """A unit whose frames compress their payloads (paper §5) restarts
        bit-for-bit: the restore reads each frame's codec from the frame."""
        runtime = NodeRuntime(
            SIZE, 64, num_processes=1, record_root=tmp_path / "records"
        )
        plain = runtime.checkpointers[0]
        runtime.checkpointers[0] = IncrementalCheckpointer(
            SIZE,
            64,
            device=plain.device,
            pcie_contention=plain.cost_model.pcie_contention,
            payload_codec=get_codec("bitcomp"),
            record_dir=runtime.record_path(0),
        )
        buf = rng.integers(0, 4, SIZE, dtype=np.uint8)
        for step in range(4):
            buf = buf.copy()
            buf[step * 640 : step * 640 + 512] = rng.integers(0, 4, 512, dtype=np.uint8)
            runtime.checkpoint_all([buf], now=float(step))
        stored = load_record(runtime.record_path(0))
        assert [d.codec for d in stored] == [None, "bitcomp", "bitcomp", "bitcomp"]
        out, _ = restore_record_indexed(runtime.record_path(0))
        assert np.array_equal(out, buf)
        report = runtime.crash_restart(0, at_time=10.0)
        assert report.restored_ckpt_id == 3
        assert np.array_equal(report.restored_state, buf)

    def _six_checkpoints(self, runtime, rng):
        """Six checkpoints, each rewriting 2 KiB at a new place; returns
        their states."""
        buf = rng.integers(0, 256, 64 * 1024, dtype=np.uint8)
        states = []
        for step in range(6):
            buf = buf.copy()
            buf[step * 4096 : step * 4096 + 2048] = rng.integers(
                0, 256, 2048, dtype=np.uint8
            )
            runtime.checkpoint_all([buf], now=float(step))
            states.append(buf)
        return states

    def test_a_restart_reads_the_record_not_memory(self, rng, tmp_path):
        """With the pack cut before frame 0 the record restores no
        checkpoint: the restart is cold, loses all six, and replaces the
        crashed unit."""
        runtime = NodeRuntime(
            64 * 1024, 128, num_processes=1, record_root=tmp_path / "records"
        )
        self._six_checkpoints(runtime, rng)
        crashed = runtime.checkpointers[0]
        truncate_frame(runtime.record_path(0), 0, 0)
        with events.journal_to() as journal:
            report = runtime.crash_restart(0, at_time=100.0)
        assert report.restored_ckpt_id is None
        assert report.skipped_ckpts == [5, 4, 3, 2, 1, 0]
        assert report.lost_work_seconds == 100.0
        assert not report.restored_state.any()
        types = [r["type"] for r in journal.records()]
        assert events.RESTORE not in types
        (restart,) = [r for r in journal.records() if r["type"] == events.RESTART]
        assert restart["cold"] and restart["skipped_ckpts"] == [5, 4, 3, 2, 1, 0]
        # The crashed unit and its ledger are gone; the new generation is
        # an empty record.
        assert runtime.checkpointers[0] is not crashed
        assert runtime.persisted[0] == []
        assert runtime.checkpointers[0].record.writer.count == 0
        assert sorted(p.name for p in runtime.record_path(0).iterdir()) == []

    def test_a_restart_falls_back_past_a_checkpoint_the_record_cannot_restore(
        self, tmp_path
    ):
        """With only frame 2's extent lost, rows 2..5 name it and rows 0
        and 1 do not: the restart restores checkpoint 1, and loses the work
        since checkpoint 1 was produced."""
        runtime = NodeRuntime(
            64 * 1024, 128, num_processes=1, record_root=tmp_path / "records"
        )
        states = self._six_checkpoints(runtime, np.random.default_rng(7))
        produced = runtime.persisted[0][1].produced_at
        delete_frame(runtime.record_path(0), 2)
        with events.journal_to() as journal:
            report = runtime.crash_restart(0, at_time=100.0)
        assert report.restored_ckpt_id == 1
        assert report.skipped_ckpts == [5, 4, 3, 2]
        assert np.array_equal(report.restored_state, states[1])
        assert report.lost_work_seconds == pytest.approx(100.0 - produced)
        restores = [r for r in journal.records() if r["type"] == events.RESTORE]
        assert [r["target_ckpt"] for r in restores] == [1]
        (restart,) = [r for r in journal.records() if r["type"] == events.RESTART]
        assert restart["restored_ckpt_id"] == 1
        assert restart["skipped_ckpts"] == [5, 4, 3, 2]
        assert restart["lost_work_seconds"] == report.lost_work_seconds
        # The new generation's checkpoint 0 is checkpoint 1's bytes.
        out, _ = restore_record_indexed(runtime.record_path(0))
        assert np.array_equal(out, states[1])
        assert verify_record(runtime.record_path(0)).ok

    def test_without_a_record_root_a_restart_reads_the_ram_record(self, rng):
        runtime = NodeRuntime(64 * 1024, 128, num_processes=1)
        final = self._six_checkpoints(runtime, rng)[-1]
        with events.journal_to() as journal:
            report = runtime.crash_restart(0, at_time=100.0)
        assert report.restored_ckpt_id == 5
        assert np.array_equal(report.restored_state, final)
        (restore,) = [r for r in journal.records() if r["type"] == events.RESTORE]
        assert restore["record_bytes_read"] > 0 and restore["read_seconds"] > 0
        assert report.restore_seconds == restore["critical_path_seconds"]
        # The restarted unit's record holds the seed, and nothing else.
        assert runtime.checkpointers[0].record.writer.count == 1

    def test_no_record_root_means_no_records(self, rng, tmp_path):
        runtime = NodeRuntime(SIZE, 64, num_processes=1)
        runtime.checkpoint_all(_buffers(1, rng), now=0.0)
        assert runtime.record_path(0) is None


class TestDriverRecording:
    def test_record_leg_uses_incrementally_written_record(self, tmp_path):
        config = RunConfig(
            steps=4, num_processes=1, data_len=SIZE, chunk_size=64
        )
        schedule = IncidentSchedule(
            record_faults=[
                RecordFault(kind="bitflip", ckpt=1, offset=40, bit=2)
            ]
        )
        drive = drive_run(config, schedule, workdir=tmp_path)
        assert drive.record_leg is not None
        assert drive.record_leg["applied"] == 1
        assert drive.record_leg["detected"] is True
        appended = [
            r for r in drive.records if r["type"] == events.RECORD_APPENDED
        ]
        assert len(appended) == config.steps

    def test_the_final_restore_reads_each_ranks_record(self, tmp_path):
        """With rank 0's newest frame deleted by the record leg, the final
        restore falls back to rank 0's checkpoint 2 — still the workload's
        bytes — and journals exactly one ``final`` restore per rank."""
        config = RunConfig(steps=4, num_processes=2, data_len=SIZE, chunk_size=64)
        schedule = IncidentSchedule(
            record_faults=[RecordFault(kind="delete", ckpt=3)]
        )
        drive = drive_run(config, schedule, workdir=tmp_path)
        assert drive.golden_ok, drive.golden_failures
        finals = [
            r
            for r in drive.records
            if r["type"] == events.RESTORE and r.get("path") == "final"
        ]
        targets = sorted((r["rank"], r["target_ckpt"]) for r in finals)
        assert targets == [(0, 2), (1, 3)]
