"""One verdict per run: live grading equals post-hoc grading.

The live monitor grades by running :func:`evaluate_health` on what it has
ingested, so the two surfaces agree by construction.  This pins it on the
journals that once told them apart — the 60 mutated incident runs of the
PR-7 fuzz campaign (``benchmarks/bench_fuzz.py``: ``FUZZ_CONFIG``, seed
0, base schedule of one transient outage, one crash, one record fault),
where the two engines used to differ in status on 32 and share no rule
on any — for whole journals, for every record-boundary prefix however
it was polled, and for every arrival order of the records.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay import RunConfig, drive_run, make_schedule
from repro.replay.fuzz import _TRIAL_SEED_STRIDE
from repro.replay.mutator import IncidentMutator
from repro.telemetry import evaluate_health, read_journal
from repro.telemetry.health import default_rules
from repro.telemetry.live import LiveMonitor

#: ``benchmarks/bench_fuzz.py``'s campaign geometry.
FUZZ_CONFIG = RunConfig(
    workload="synthetic",
    data_len=8192,
    chunk_size=64,
    method="tree",
    num_processes=2,
    steps=5,
    period_seconds=10.0,
    seed=3,
)
FUZZ_SEED = 0
FUZZ_TRIALS = 60


def graded(report):
    return (
        [(f.rule, f.severity, f.node, f.rank, f.message) for f in report.findings],
        report.exit_code,
    )


def live(path):
    with LiveMonitor(path) as monitor:
        return monitor.report()


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The campaign's journals on disk, one file per trial."""
    root = tmp_path_factory.mktemp("campaign")
    base = make_schedule(
        FUZZ_CONFIG,
        faults_seed=FUZZ_SEED,
        n_transient=1,
        n_crashes=1,
        n_record_faults=1,
    )
    paths = []
    for trial in range(FUZZ_TRIALS):
        schedule, _ = IncidentMutator(
            FUZZ_SEED * _TRIAL_SEED_STRIDE + trial
        ).mutate(base, FUZZ_CONFIG)
        path = root / f"trial-{trial:04d}.jsonl"
        drive_run(
            FUZZ_CONFIG,
            schedule,
            journal_path=path,
            run_id=f"fuzz-{FUZZ_SEED}-{trial:04d}",
            workdir=root / f"trial-{trial:04d}",
        )
        paths.append(path)
    return paths


class TestCampaignParity:
    def test_live_equals_post_hoc_on_every_campaign_journal(self, campaign):
        fired = set()
        for path in campaign:
            monitor_report = live(path)
            post_hoc = evaluate_health(read_journal(path))
            assert graded(monitor_report) == graded(post_hoc), path.name
            assert monitor_report.rules_run == post_hoc.rules_run == [
                r.name for r in default_rules()
            ]
            fired.update(f.rule for f in post_hoc.findings)
        # Not vacuous: the campaign trips rules both retired engines owned.
        assert fired >= {"corruption", "crash_loop", "tier_outage", "liveness"}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_prefix_however_polled(self, campaign, data):
        lines = data.draw(st.sampled_from(campaign)).read_text().splitlines(True)
        cut = data.draw(st.integers(0, len(lines)))
        first_poll = data.draw(st.integers(0, cut))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            path.write_text("".join(lines[:first_poll]))
            with LiveMonitor(path) as monitor:
                monitor.report()  # grade the shorter prefix first
                with path.open("a") as fh:
                    fh.write("".join(lines[first_poll:cut]))
                assert graded(monitor.report()) == graded(
                    evaluate_health(read_journal(path))
                )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_arrival_order(self, campaign, data):
        source = data.draw(st.sampled_from(campaign))
        lines = source.read_text().splitlines(True)
        random.Random(data.draw(st.integers(0, 10_000))).shuffle(lines)
        expected = graded(evaluate_health(read_journal(source)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shuffled.jsonl"
            path.write_text("".join(lines))
            assert graded(evaluate_health(read_journal(path))) == expected
            assert graded(live(path)) == expected

