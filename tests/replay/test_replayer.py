"""Replay equivalence: a recorded journal is a sufficient description.

The contract under test: re-driving a run from nothing but its journal
reproduces the same durable-checkpoint set (payload digests included),
bit-identical restored bytes, and the same graded health findings —
and any tampering with the recording surfaces as a divergence.
"""

import json

import pytest

from repro.errors import ReplayError
from repro.replay import (
    JournalReplayer,
    RunConfig,
    build_timeline,
    make_schedule,
    record_run,
    schedule_from_timeline,
)
from repro.telemetry import events
from repro.telemetry.events import EventJournal

SYNTH = RunConfig(
    workload="synthetic",
    data_len=4096,
    chunk_size=64,
    num_processes=2,
    steps=3,
    period_seconds=10.0,
    seed=5,
)


@pytest.fixture()
def recorded(tmp_path):
    journal_path = tmp_path / "run.jsonl"
    schedule = make_schedule(
        SYNTH, faults_seed=1, n_transient=1, n_crashes=1, n_record_faults=1
    )
    drive = record_run(
        SYNTH, schedule, journal_path=journal_path, workdir=tmp_path / "rec"
    )
    return journal_path, drive


class TestReplayEquivalence:
    def test_synthetic_run_replays_equivalent(self, recorded, tmp_path):
        journal_path, drive = recorded
        assert drive.golden_ok
        result = JournalReplayer(journal_path).replay(workdir=tmp_path / "rp")
        assert result.equivalent, [d.as_dict() for d in result.divergences]
        assert result.golden_ok
        assert result.skipped_lines == 0
        assert result.run_id == "record-synthetic-5"
        assert result.replay_run_id == "record-synthetic-5-replay"
        assert len(result.original.durable) > 0
        assert result.original.durable == result.replay.durable
        assert result.original.final_states == result.replay.final_states

    def test_replay_from_record_list(self, recorded, tmp_path):
        _, drive = recorded
        result = JournalReplayer(drive.records).replay(workdir=tmp_path / "rp")
        assert result.equivalent

    def test_oranges_run_replays_equivalent(self, tmp_path):
        config = RunConfig(
            workload="unstructured_mesh",
            num_vertices=256,
            chunk_size=64,
            num_processes=2,
            steps=3,
            seed=2,
        )
        journal_path = tmp_path / "oranges.jsonl"
        schedule = make_schedule(config, faults_seed=0, n_transient=1, n_crashes=1)
        record_run(
            config, schedule, journal_path=journal_path, workdir=tmp_path / "rec"
        )
        result = JournalReplayer(journal_path).replay(workdir=tmp_path / "rp")
        assert result.equivalent, [d.as_dict() for d in result.divergences]

    def test_damaged_journal_still_replays(self, recorded, tmp_path):
        journal_path, _ = recorded
        with open(journal_path, "a") as f:
            f.write('{"schema": 2, "type": "cra\n')  # torn final write
        replayer = JournalReplayer(journal_path)
        assert replayer.skipped_lines == 1
        result = replayer.replay(workdir=tmp_path / "rp")
        assert result.equivalent
        assert result.skipped_lines == 1

    def test_tampered_recording_diverges(self, recorded, tmp_path):
        journal_path, drive = recorded
        records = [dict(r) for r in drive.records]
        victim = next(
            r for r in records if r["type"] == events.CHECKPOINT_COMMITTED
        )
        victim["payload_sha256"] = "0" * 64
        result = JournalReplayer(records).replay(workdir=tmp_path / "rp")
        assert not result.equivalent
        assert {d.kind for d in result.divergences} >= {"durable_set"}
        emitted = [
            r
            for r in result.replay_records
            if r["type"] == events.REPLAY_DIVERGENCE
        ]
        assert {r["kind"] for r in emitted} == {
            d.kind for d in result.divergences
        }
        assert all(r["replay_of"] == result.run_id for r in emitted)

    def test_mixed_run_journal_refused(self, recorded):
        journal_path, drive = recorded
        foreign = EventJournal(node="node9", run_id="other-run")
        foreign.emit(events.CRASH, sim_time=1.0, rank=0, in_flight_ckpts=0)
        with pytest.raises(ReplayError, match="different runs"):
            JournalReplayer(list(drive.records) + foreign.records())


class TestScheduleFromTimeline:
    def _timeline(self, emit):
        journal = EventJournal(node="node0", run_id="r")
        config = RunConfig(steps=3)
        journal.emit(
            events.RUN_CONFIG,
            sim_time=0.0,
            config=config.to_payload(),
            horizon=config.horizon_seconds,
        )
        emit(journal)
        return build_timeline(journal.records())

    def test_crash_restart_pairing(self):
        def emit(journal):
            journal.emit(events.CRASH, sim_time=5.0, rank=0, in_flight_ckpts=0)
            journal.emit(
                events.RESTART, sim_time=5.0, rank=0, cold=False,
                lost_work_seconds=1.0,
            )
            journal.emit(events.CRASH, sim_time=8.0, rank=1, in_flight_ckpts=0)

        schedule = schedule_from_timeline(self._timeline(emit))
        by_proc = {c.process: c for c in schedule.crashes}
        assert by_proc[0].restart is True
        assert by_proc[1].restart is False  # dropped recovery
        assert by_proc[1].at == 8.0

    def test_orphan_restart_rejected(self):
        def emit(journal):
            journal.emit(
                events.RESTART, sim_time=5.0, rank=0, cold=False,
                lost_work_seconds=1.0,
            )

        with pytest.raises(ReplayError, match="no matching crash"):
            schedule_from_timeline(self._timeline(emit))

    def test_crash_without_rank_rejected(self):
        def emit(journal):
            journal.emit(events.CRASH, sim_time=5.0, in_flight_ckpts=0)

        with pytest.raises(ReplayError, match="without a rank"):
            schedule_from_timeline(self._timeline(emit))

    def test_record_faults_are_exactly_addressed(self):
        def emit(journal):
            journal.emit(
                events.RECORD_FAULT, sim_time=2.0, kind="bitflip",
                path="/some/dir/record.pack", ckpt=2, detail=17, bit=3,
            )

        schedule = schedule_from_timeline(self._timeline(emit))
        (fault,) = schedule.record_faults
        assert (fault.kind, fault.ckpt, fault.offset, fault.bit) == (
            "bitflip", 2, 17, 3,
        )

    @pytest.mark.parametrize(
        "receipt, message",
        [
            (dict(kind="bitflp", ckpt=2, detail=17, bit=3), "unknown record fault kind"),
            (dict(kind="bitflip", ckpt=2, detail="17", bit=3), "not integers"),
            (dict(kind="bitflip", ckpt=2, detail=17.5, bit=3), "not integers"),
            (dict(kind="bitflip", ckpt=2, detail=17, bit="3"), "not integers"),
            (dict(kind="bitflip", detail=17, bit=3), "not integers"),
        ],
    )
    def test_unpinnable_record_fault_receipt_rejected(self, receipt, message):
        def emit(journal):
            journal.emit(
                events.RECORD_FAULT, sim_time=2.0,
                path="/some/dir/record.pack", **receipt,
            )

        with pytest.raises(ReplayError, match=message):
            schedule_from_timeline(self._timeline(emit))

    def test_result_as_dict_is_json_serialisable(self, tmp_path):
        schedule = make_schedule(SYNTH, faults_seed=1, n_transient=1)
        journal_path = tmp_path / "run.jsonl"
        record_run(
            SYNTH, schedule, journal_path=journal_path, workdir=tmp_path / "rec"
        )
        result = JournalReplayer(journal_path).replay(workdir=tmp_path / "rp")
        round_tripped = json.loads(json.dumps(result.as_dict()))
        assert round_tripped["equivalent"] is True
