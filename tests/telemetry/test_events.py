"""Event journal: envelope, sink lifecycle, persistence, byte-identity."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import IncrementalCheckpointer
from repro.errors import StorageError
from repro.telemetry import events
from repro.telemetry.events import (
    CHECKPOINT_COMMITTED,
    CRASH,
    SCHEMA_VERSION,
    TIER_OUTAGE,
    EventJournal,
    journal_run_ids,
    journal_to,
    read_journal,
    write_journal,
)


@pytest.fixture(autouse=True)
def _journaling_off():
    """Every test starts and ends with no installed journal."""
    events.uninstall()
    yield
    events.uninstall()


class TestEnvelope:
    def test_records_carry_schema_identity_and_both_clocks(self):
        journal = EventJournal(node="node3", rank=7)
        record = journal.emit(CHECKPOINT_COMMITTED, sim_time=1.5, ckpt_id=4)
        assert record["schema"] == SCHEMA_VERSION
        assert record["type"] == CHECKPOINT_COMMITTED
        assert record["node"] == "node3"
        assert record["rank"] == 7
        assert record["sim_time"] == 1.5
        assert record["wall_time"] > 0
        assert record["ckpt_id"] == 4

    def test_seq_is_per_journal_monotonic(self):
        journal = EventJournal()
        seqs = [journal.emit(CRASH)["seq"] for _ in range(3)]
        assert seqs == [0, 1, 2]

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            EventJournal().emit("made_up_event")

    def test_payload_may_not_shadow_envelope(self):
        with pytest.raises(ValueError, match="shadow the envelope"):
            EventJournal().emit(CRASH, seq=99)

    def test_per_emit_identity_override(self):
        journal = EventJournal(node="node0", rank=0)
        record = journal.emit(CRASH, node="node9", rank=5)
        assert (record["node"], record["rank"]) == ("node9", 5)


class TestSink:
    def test_module_emit_is_noop_without_installed_journal(self):
        assert events.active_journal() is None
        assert events.emit(CRASH) is None

    def test_install_routes_module_emits(self):
        journal = events.install(EventJournal())
        events.emit(CRASH, in_flight_ckpts=2)
        assert len(journal.records()) == 1

    def test_journal_to_restores_previous_sink(self):
        outer = events.install(EventJournal(node="outer"))
        with journal_to(node="inner") as inner:
            events.emit(CRASH)
        assert events.active_journal() is outer
        assert len(inner.records()) == 1
        assert len(outer.records()) == 0

    def test_journal_to_restores_sink_on_exception(self):
        with pytest.raises(RuntimeError):
            with journal_to():
                raise RuntimeError("boom")
        assert events.active_journal() is None


class TestPersistence:
    def test_streaming_and_write_roundtrip(self, tmp_path):
        streamed = tmp_path / "stream.jsonl"
        with journal_to(streamed, node="node1", rank=0) as journal:
            events.emit(CHECKPOINT_COMMITTED, sim_time=0.5, ckpt_id=0)
            events.emit(TIER_OUTAGE, sim_time=1.0, tier="ssd", kind="transient")
        dumped = journal.write(tmp_path / "dump.jsonl")
        assert read_journal(streamed) == read_journal(dumped) == journal.records()

    def test_write_journal_roundtrip(self, tmp_path):
        records = EventJournal(node="n")
        records.emit(CRASH, in_flight_ckpts=1)
        path = write_journal(tmp_path / "j.jsonl", records.records())
        assert read_journal(path) == records.records()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no journal"):
            read_journal(tmp_path / "absent.jsonl")

    def test_malformed_line_raises_with_location_in_strict_mode(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 2, "type": "crash"}\nnot json\n')
        with pytest.raises(StorageError, match="bad.jsonl:2"):
            read_journal(path, strict=True)

    def test_future_schema_rejected_in_strict_mode(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"schema": SCHEMA_VERSION + 1, "type": "crash"}) + "\n"
        )
        with pytest.raises(StorageError, match="unsupported journal schema"):
            read_journal(path, strict=True)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"schema": 2, "type": "crash"}\n\n')
        loaded = read_journal(path)
        assert len(loaded) == 1
        assert loaded.skipped_lines == 0


class TestLenientLoading:
    """Damaged journals load by default — the crash that truncates a
    journal is often the incident the journal documents."""

    def test_damaged_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "damaged.jsonl"
        path.write_text(
            '{"schema": 2, "type": "crash", "seq": 0}\n'
            '{"schema": 2, "type": "cra'  # truncated mid-record
            "\n"
            '{"schema": 2, "notype": true}\n'
            f'{{"schema": {SCHEMA_VERSION + 5}, "type": "crash"}}\n'
            '{"schema": 2, "type": "restart", "seq": 1}\n'
        )
        loaded = read_journal(path)
        assert [r["type"] for r in loaded] == ["crash", "restart"]
        assert loaded.skipped_lines == 3
        assert len(loaded.problems) == 3
        assert "line 2" in loaded.problems[0]

    def test_loaded_journal_equals_plain_list(self, tmp_path):
        journal = EventJournal(node="n")
        journal.emit(CRASH)
        path = write_journal(tmp_path / "j.jsonl", journal.records())
        assert read_journal(path) == journal.records()


class TestRunIdentity:
    def test_run_id_in_envelope(self):
        journal = EventJournal(node="n", run_id="run-7")
        record = journal.emit(CRASH)
        assert record["run_id"] == "run-7"
        assert record["schema"] == SCHEMA_VERSION

    def test_no_run_id_reads_as_none(self):
        record = EventJournal(node="n").emit(CRASH)
        assert record["run_id"] is None

    def test_v1_records_rejected_by_name(self, tmp_path):
        """Schema 1 (no ``run_id`` field) is retired: skipped by name, or
        refused under ``strict=True``."""
        path = tmp_path / "v1.jsonl"
        path.write_text('{"schema": 1, "type": "crash", "seq": 0}\n')
        loaded = read_journal(path)
        assert len(loaded) == 0 and loaded.skipped_lines == 1
        assert "unsupported journal schema 1" in loaded.problems[0]
        with pytest.raises(StorageError, match="unsupported journal schema 1"):
            read_journal(path, strict=True)

    def test_journal_run_ids_sorted_distinct(self):
        records = [
            {"type": "crash", "run_id": "b"},
            {"type": "crash", "run_id": "a"},
            {"type": "crash", "run_id": "b"},
            {"type": "crash"},
        ]
        assert journal_run_ids(records) == ["a", "b"]


class TestGoldenBytesWithJournal:
    """Checkpoint bytes must be identical whether journaling is on or off."""

    @staticmethod
    def _digests(method):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
        ck = IncrementalCheckpointer(data_len=1 << 14, chunk_size=128, method=method)
        for _ in range(3):
            ck.checkpoint(data)
            data = data.copy()
            data[:512] = rng.integers(0, 256, 512, dtype=np.uint8)
        return [hashlib.sha256(d.to_bytes()).hexdigest() for d in ck.record.diffs]

    @pytest.mark.parametrize("method", ["tree", "list", "basic", "full"])
    def test_all_methods_identical_journal_on_vs_off(self, method):
        off = self._digests(method)
        with journal_to():
            on = self._digests(method)
        assert on == off, f"method {method} bytes changed under journaling"
