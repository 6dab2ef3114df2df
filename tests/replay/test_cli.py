"""CLI surfaces: ``repro replay`` and ``repro fuzz`` exit codes."""

import json

import pytest

from repro.cli import main
from repro.replay import RunConfig, make_schedule, record_run
from repro.telemetry import events
from repro.telemetry.events import EventJournal, write_journal

CONFIG = RunConfig(data_len=4096, num_processes=2, steps=3, seed=4)


@pytest.fixture()
def journal_path(tmp_path):
    path = tmp_path / "run.jsonl"
    schedule = make_schedule(
        CONFIG, faults_seed=2, n_transient=1, n_crashes=1, n_record_faults=1
    )
    record_run(CONFIG, schedule, journal_path=path, workdir=tmp_path / "rec")
    return path


class TestReplayCommand:
    def test_equivalent_replay_exits_zero(self, journal_path, capsys):
        rc = main(["replay", str(journal_path)])
        assert rc == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_json_output(self, journal_path, capsys):
        rc = main(["replay", str(journal_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert payload["run_id"] == "record-synthetic-4"

    def test_unreplayable_journal_exits_two(self, tmp_path, capsys):
        journal = EventJournal(node="n")  # no run_config event
        journal.emit(events.CRASH, sim_time=1.0, rank=0, in_flight_ckpts=0)
        path = write_journal(tmp_path / "bad.jsonl", journal.records())
        rc = main(["replay", str(path)])
        assert rc == 2
        assert "no run_config" in capsys.readouterr().err

    def test_malformed_record_fault_receipt_exits_two(self, tmp_path, capsys):
        # The CI replay smoke's run, with its receipt's kind misspelt.
        config = RunConfig(seed=3)
        schedule = make_schedule(
            config, faults_seed=0, n_transient=1, n_crashes=2, n_record_faults=1
        )
        path = tmp_path / "run.jsonl"
        record_run(config, schedule, journal_path=path, workdir=tmp_path / "rec")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        (receipt,) = [r for r in records if r["type"] == events.RECORD_FAULT]
        receipt["kind"] = "bitflp"
        write_journal(path, records)
        rc = main(["replay", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot replay {path}: record_fault receipt" in err
        assert "unknown record fault kind 'bitflp'" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("kind", "transiant", "unknown tier fault kind 'transiant'"),
            ("tier", "tape", "names tier 'tape', not one of the node's"),
        ],
    )
    def test_malformed_tier_receipt_exits_two(
        self, journal_path, field, value, message, capsys
    ):
        records = [json.loads(line) for line in journal_path.read_text().splitlines()]
        receipt = next(r for r in records if r["type"] == events.TIER_OUTAGE)
        receipt[field] = value
        write_journal(journal_path, records)
        rc = main(["replay", str(journal_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot replay {journal_path}: tier_outage receipt" in err
        assert message in err and "Traceback" not in err

    def test_output_journal_written(self, journal_path, tmp_path, capsys):
        out = tmp_path / "replay.jsonl"
        rc = main(["replay", str(journal_path), "-o", str(out)])
        assert rc == 0
        assert out.exists()


class TestFuzzCommand:
    def test_fixed_seed_campaign_passes(self, capsys):
        rc = main(["fuzz", "--trials", "3", "--seed", "1", "--no-replay"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.0%" in out
        assert "PASSED" in out

    def test_json_output(self, capsys):
        rc = main(["fuzz", "--trials", "2", "--seed", "0", "--no-replay", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag_coverage"] == 1.0
        assert payload["silent_wrong"] == 0

    def test_config_from_journal(self, journal_path, capsys):
        rc = main(
            [
                "fuzz",
                "--trials",
                "2",
                "--seed",
                "0",
                "--journal",
                str(journal_path),
                "--no-replay",
            ]
        )
        assert rc == 0
