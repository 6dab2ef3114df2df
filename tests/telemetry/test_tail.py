"""Incremental journal reading and the live tailer.

The load-bearing regression here is the torn-trailing-line contract: a
record the emitter is still mid-``write`` (no terminating newline yet)
must be *held back* by one incremental poll and consumed intact by the
next — never half-parsed, never skipped-and-lost.
"""

import json
import threading

import pytest

from repro.errors import StorageError
from repro.telemetry.aggregate import build_rollup
from repro.telemetry.events import (
    CHECKPOINT_COMMITTED,
    HEARTBEAT,
    EventJournal,
    JournalCursor,
    read_journal,
)
from repro.telemetry.live import JournalFollower, follow_journal


def _line(seq, type=HEARTBEAT, node="node0", rank=0, sim=None, run_id=None, **fields):
    record = {
        "schema": 2,
        "seq": seq,
        "type": type,
        "run_id": run_id,
        "node": node,
        "rank": rank,
        "wall_time": 0.0,
        "sim_time": sim if sim is not None else float(seq),
    }
    record.update(fields)
    return json.dumps(record, sort_keys=True)


class TestCursorApi:
    def test_whole_file_load_returns_eof_cursor(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(_line(0) + "\n" + _line(1) + "\n")
        loaded = read_journal(path)
        assert len(loaded) == 2
        assert loaded.cursor.offset == path.stat().st_size
        assert loaded.cursor.lineno == 3

    def test_incremental_reads_only_the_suffix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(_line(0) + "\n")
        first = read_journal(path, since=JournalCursor())
        assert [r["seq"] for r in first] == [0]
        with open(path, "a") as f:
            f.write(_line(1) + "\n" + _line(2) + "\n")
        second = read_journal(path, since=first.cursor)
        assert [r["seq"] for r in second] == [1, 2]
        third = read_journal(path, since=second.cursor)
        assert list(third) == []
        assert third.cursor == second.cursor

    def test_torn_trailing_line_held_back_then_consumed_intact(self, tmp_path):
        path = tmp_path / "j.jsonl"
        whole = _line(0)
        torn = _line(1)
        path.write_text(whole + "\n" + torn[: len(torn) // 2])
        first = read_journal(path, since=JournalCursor())
        # One poll: the torn line is *not* parsed (and not counted as
        # damage — the writer simply hasn't finished it yet).
        assert [r["seq"] for r in first] == [0]
        assert first.skipped_lines == 0
        assert first.cursor.offset == len(whole) + 1
        # The writer finishes the line; the next poll gets it whole.
        with open(path, "a") as f:
            f.write(torn[len(torn) // 2 :] + "\n")
        second = read_journal(path, since=first.cursor)
        assert [r["seq"] for r in second] == [1]
        assert second.skipped_lines == 0

    def test_whole_file_mode_still_parses_unterminated_final_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(_line(0) + "\n" + _line(1))  # no trailing newline
        loaded = read_journal(path)
        assert [r["seq"] for r in loaded] == [0, 1]

    def test_shrunk_file_restarts_and_is_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(_line(0) + "\n" + _line(1) + "\n")
        loaded = read_journal(path, since=JournalCursor())
        path.write_text(_line(7) + "\n")  # rotated under the tailer
        again = read_journal(path, since=loaded.cursor)
        assert [r["seq"] for r in again] == [7]
        assert again.skipped_lines == 1
        assert "shrank" in again.problems[0]

    def test_lineno_tracks_across_polls_for_problem_reports(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(_line(0) + "\n")
        first = read_journal(path, since=JournalCursor())
        with open(path, "a") as f:
            f.write("{garbage\n")
        second = read_journal(path, since=first.cursor)
        assert second.skipped_lines == 1
        assert second.problems[0].startswith("line 2:")

    def test_strict_mode_unaffected_by_cursor(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(StorageError):
            read_journal(path, strict=True, since=JournalCursor())


class TestJournalFollower:
    def test_follows_single_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path, node="node0", rank=0)
        journal.emit(HEARTBEAT, sim_time=1.0)
        follower = JournalFollower(path)
        assert [r["sim_time"] for r in follower.poll()] == [1.0]
        journal.emit(HEARTBEAT, sim_time=2.0)
        assert [r["sim_time"] for r in follower.poll()] == [2.0]
        assert follower.poll() == []
        journal.close()

    def test_directory_merge_is_canonically_ordered(self, tmp_path):
        j0 = EventJournal(tmp_path / "r0.jsonl", node="node0", rank=0)
        j1 = EventJournal(tmp_path / "r1.jsonl", node="node0", rank=1)
        j1.emit(HEARTBEAT, sim_time=2.0)
        j0.emit(HEARTBEAT, sim_time=1.0)
        j0.emit(HEARTBEAT, sim_time=3.0)
        follower = JournalFollower(tmp_path)
        batch = follower.poll()
        assert [r["sim_time"] for r in batch] == [1.0, 2.0, 3.0]
        j0.close(), j1.close()

    def test_discovers_files_created_after_start(self, tmp_path):
        follower = JournalFollower(tmp_path)
        assert follower.poll() == []
        late = EventJournal(tmp_path / "late.jsonl", node="node1", rank=4)
        late.emit(CHECKPOINT_COMMITTED, sim_time=1.0, ckpt_id=0)
        assert len(follower.poll()) == 1
        late.close()

    def test_mixed_run_ids_flagged_not_merged_away(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(_line(0, run_id="run-a") + "\n")
        (tmp_path / "b.jsonl").write_text(_line(0, run_id="run-b") + "\n")
        # The follower delivers both; build_rollup names the runs and
        # the journal_ingest rule grades the conflation critical.
        batch = JournalFollower(tmp_path).poll()
        assert build_rollup(batch).run_ids == ["run-a", "run-b"]

    def test_damage_accumulates_with_file_names(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(_line(0) + "\n{broken\n" + _line(1) + "\n")
        follower = JournalFollower(tmp_path)
        batch = follower.poll()
        assert len(batch) == 2
        assert follower.skipped_lines == 1
        assert "a.jsonl" in follower.problems[0]

    def test_follow_journal_generator_stops_on_event(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(_line(0) + "\n")
        stop = threading.Event()
        batches = []
        for batch in follow_journal(path, poll_interval=0.01, stop=stop.is_set):
            batches.append(batch)
            stop.set()
        assert len(batches) == 1
        assert [r["seq"] for r in batches[0]] == [0]
