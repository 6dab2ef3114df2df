"""Health engine: each rule fires on its failure mode and stays quiet otherwise."""

import pytest

from repro.telemetry import events
from repro.telemetry.events import (
    ATTRIBUTION_SUMMARY,
    CHECKPOINT_COMMITTED,
    CRASH,
    FAILURE_EVENT_TYPES,
    FLUSH_RETRY,
    FLUSH_ROUTE_AROUND,
    RECORD_FAULT,
    REPLAY_DIVERGENCE,
    RESTART,
    RESTORE,
    TIER_OUTAGE,
    EventJournal,
)
from repro.telemetry.health import (
    CRITICAL,
    OK,
    RULE_COVERAGE,
    WARN,
    CorruptionRule,
    CrashLoopRule,
    DedupRegressionRule,
    Finding,
    FlushBacklogRule,
    HealthReport,
    JournalIngestRule,
    RestoreLagRule,
    TierOutageRule,
    default_rules,
    evaluate_health,
    severity_rank,
)


def _ckpt_journal(ratios, node="node0", rank=0, backlog=None, blocked=0.0):
    """A journal of checkpoints with the given per-checkpoint dedup ratios."""
    journal = EventJournal(node=node, rank=rank)
    for i, ratio in enumerate(ratios):
        fields = dict(
            ckpt_id=i,
            stored_bytes=1000,
            full_bytes=int(1000 * ratio),
            blocked_seconds=blocked if i == len(ratios) - 1 else 0.0,
        )
        if backlog is not None:
            fields["produced_at"] = float(i)
            fields["persisted_at"] = float(i) + backlog[i]
        journal.emit(CHECKPOINT_COMMITTED, sim_time=float(i), **fields)
    return journal


class TestReport:
    def test_empty_report_is_ok_exit_zero(self):
        report = HealthReport(findings=[], rules_run=["x"])
        assert report.status == OK
        assert report.exit_code == 0

    def test_status_is_worst_severity(self):
        report = HealthReport(
            findings=[
                Finding("a", WARN, "w"),
                Finding("b", CRITICAL, "c"),
            ],
            rules_run=["a", "b"],
        )
        assert report.status == CRITICAL
        assert report.exit_code == 2

    def test_severity_rank_ordering(self):
        assert severity_rank(OK) < severity_rank(WARN) < severity_rank(CRITICAL)

    def test_findings_sorted_most_severe_first(self):
        journal = EventJournal(node="n", rank=0)
        journal.emit(TIER_OUTAGE, sim_time=0.0, tier="ssd", kind="transient")
        journal.emit(RECORD_FAULT, kind="bitflip", path="r", detail=1)
        report = evaluate_health(journal)
        severities = [f.severity for f in report.findings]
        assert severities == sorted(
            severities, key=severity_rank, reverse=True
        )

    def test_summary_names_rule_and_location(self):
        journal = EventJournal(node="node2", rank=3)
        journal.emit(CRASH, sim_time=1.0, in_flight_ckpts=0)
        journal.emit(RESTART, sim_time=1.0, cold=False, lost_work_seconds=2.0)
        text = evaluate_health(journal).summary()
        assert "crash_loop" in text
        assert "node2/r3" in text


class TestDedupRegressionRule:
    def test_steady_ratios_are_clean(self):
        journal = _ckpt_journal([1.0, 20.0, 21.0, 19.0, 20.0, 18.0])
        assert DedupRegressionRule().evaluate(_rollup(journal)) == []

    def test_collapse_warns_with_checkpoint_evidence(self):
        journal = _ckpt_journal([20.0, 20.0, 20.0, 20.0, 8.0])
        findings = DedupRegressionRule().evaluate(_rollup(journal))
        assert len(findings) == 1
        assert findings[0].severity == WARN
        assert findings[0].evidence[0]["ckpt_id"] == 4

    def test_deep_collapse_is_critical(self):
        journal = _ckpt_journal([20.0, 20.0, 20.0, 20.0, 2.0])
        findings = DedupRegressionRule().evaluate(_rollup(journal))
        assert findings[0].severity == CRITICAL

    def test_one_finding_per_rank_even_with_repeated_drops(self):
        journal = _ckpt_journal([20.0] * 4 + [8.0, 20.0, 20.0, 20.0, 2.0])
        findings = DedupRegressionRule().evaluate(_rollup(journal))
        assert len(findings) == 1
        assert findings[0].severity == CRITICAL

    def test_organic_growth_never_trips(self):
        journal = _ckpt_journal([1.0, 5.0, 15.0, 40.0, 80.0, 120.0])
        assert DedupRegressionRule().evaluate(_rollup(journal)) == []


class TestFlushBacklogRule:
    def test_flat_backlog_is_clean(self):
        journal = _ckpt_journal([10.0] * 5, backlog=[0.2] * 5)
        assert FlushBacklogRule().evaluate(_rollup(journal)) == []

    def test_sustained_growth_warns(self):
        journal = _ckpt_journal([10.0] * 5, backlog=[0.1, 0.2, 0.3, 0.4, 0.5])
        findings = FlushBacklogRule().evaluate(_rollup(journal))
        assert len(findings) == 1
        assert findings[0].severity == WARN

    def test_tenfold_growth_is_critical(self):
        journal = _ckpt_journal([10.0] * 5, backlog=[0.1, 0.5, 1.0, 1.1, 1.2])
        findings = FlushBacklogRule().evaluate(_rollup(journal))
        assert findings[0].severity == CRITICAL

    def test_spike_that_recovers_is_clean(self):
        journal = _ckpt_journal([10.0] * 5, backlog=[0.1, 2.0, 0.1, 0.1, 0.1])
        assert FlushBacklogRule().evaluate(_rollup(journal)) == []

    def test_blocked_application_warns(self):
        journal = _ckpt_journal([10.0] * 2, blocked=1.5)
        findings = FlushBacklogRule().evaluate(_rollup(journal))
        assert len(findings) == 1
        assert "blocked" in findings[0].message


class TestCorruptionRule:
    def test_one_critical_per_record_fault(self):
        journal = EventJournal(node="n")
        journal.emit(RECORD_FAULT, kind="bitflip", path="f", detail=7)
        journal.emit(RECORD_FAULT, kind="truncate", path="g", detail=3)
        findings = CorruptionRule().evaluate(_rollup(journal))
        assert len(findings) == 2
        assert all(f.severity == CRITICAL for f in findings)
        assert all(len(f.evidence) == 1 for f in findings)

    def test_clean_journal_is_clean(self):
        assert CorruptionRule().evaluate(_rollup(_ckpt_journal([10.0]))) == []


class TestCrashLoopRule:
    @staticmethod
    def _crashes(n, cold=False):
        journal = EventJournal(node="n", rank=0)
        for i in range(n):
            journal.emit(CRASH, sim_time=float(i), in_flight_ckpts=0)
            journal.emit(
                RESTART, sim_time=float(i), cold=cold, lost_work_seconds=1.0
            )
        return journal

    def test_single_recovered_crash_warns(self):
        findings = CrashLoopRule().evaluate(_rollup(self._crashes(1)))
        assert [f.severity for f in findings] == [WARN]

    def test_crash_loop_is_critical(self):
        findings = CrashLoopRule().evaluate(_rollup(self._crashes(3)))
        assert findings[0].severity == CRITICAL
        assert "crash loop" in findings[0].message

    def test_cold_restart_is_critical(self):
        findings = CrashLoopRule().evaluate(_rollup(self._crashes(1, cold=True)))
        assert findings[0].severity == CRITICAL
        assert "cold restart" in findings[0].message


class TestTierOutageRule:
    def test_transient_warns_with_fallout_evidence(self):
        journal = EventJournal(node="n", rank=0)
        journal.emit(TIER_OUTAGE, sim_time=0.5, tier="ssd", kind="transient",
                     duration=2.0)
        journal.emit(FLUSH_RETRY, sim_time=0.6, key="ck0", tier="ssd", attempt=1)
        findings = TierOutageRule().evaluate(_rollup(journal))
        assert len(findings) == 1
        assert findings[0].severity == WARN
        assert len(findings[0].evidence) == 2

    def test_permanent_is_critical(self):
        journal = EventJournal(node="n")
        journal.emit(TIER_OUTAGE, sim_time=0.0, tier="ssd", kind="permanent")
        findings = TierOutageRule().evaluate(_rollup(journal))
        assert findings[0].severity == CRITICAL

    def test_orphan_degraded_flushes_warn(self):
        journal = EventJournal(node="n")
        journal.emit(FLUSH_ROUTE_AROUND, sim_time=1.0, key="ck0", tier="ssd")
        findings = TierOutageRule().evaluate(_rollup(journal))
        assert len(findings) == 1
        assert "without a recorded outage" in findings[0].message


class TestEvaluateHealth:
    def test_clean_run_zero_findings_all_ok(self):
        journal = _ckpt_journal([1.0, 18.0, 19.0, 18.5, 20.0],
                                backlog=[0.2] * 5)
        report = evaluate_health(journal)
        assert report.status == OK
        assert report.findings == []
        assert report.rules_run == [r.name for r in default_rules()]

    def test_accepts_rollup_journal_and_records(self):
        journal = _ckpt_journal([10.0] * 3)
        from_journal = evaluate_health(journal)
        from_records = evaluate_health(journal.records())
        from_rollup = evaluate_health(_rollup(journal))
        assert (
            from_journal.as_dict()
            == from_records.as_dict()
            == from_rollup.as_dict()
        )

    def test_custom_ruleset(self):
        journal = EventJournal(node="n")
        journal.emit(RECORD_FAULT, kind="delete", path="x", detail=0)
        report = evaluate_health(journal, rules=[CrashLoopRule()])
        assert report.rules_run == ["crash_loop"]
        assert report.findings == []


def _rollup(journal):
    from repro.telemetry.aggregate import build_rollup

    return build_rollup(journal)


class TestRestoreLagRule:
    from repro.telemetry.events import RESTORE
    from repro.telemetry.health import RestoreLagRule

    def _restore_journal(self, measured, predicted, **extra):
        journal = EventJournal(node="node0", rank=0)
        journal.emit(
            self.RESTORE,
            path="sharded",
            target_ckpt=4,
            ranks=8,
            critical_path_seconds=measured,
            predicted_seconds=predicted,
            **extra,
        )
        return journal

    def test_accurate_prediction_is_clean(self):
        report = evaluate_health(
            self._restore_journal(1.1e-3, 1.0e-3),
            rules=[self.RestoreLagRule()],
        )
        assert report.status == OK

    def test_twofold_lag_warns(self):
        report = evaluate_health(
            self._restore_journal(2.5e-3, 1.0e-3),
            rules=[self.RestoreLagRule()],
        )
        assert report.status == WARN
        finding = report.findings[0]
        assert finding.rule == "restore_lag"
        assert "2.5x" in finding.message
        assert finding.evidence[0]["ranks"] == 8

    def test_fourfold_lag_is_critical(self):
        report = evaluate_health(
            self._restore_journal(4.2e-3, 1.0e-3),
            rules=[self.RestoreLagRule()],
        )
        assert report.status == CRITICAL

    def test_events_without_prediction_ignored(self):
        # Single-GPU restores don't carry a prediction; they must never
        # trip the rule.
        journal = EventJournal(node="node0", rank=0)
        journal.emit(
            self.RESTORE, path="indexed", target_ckpt=4, state_bytes=4096
        )
        report = evaluate_health(journal, rules=[self.RestoreLagRule()])
        assert report.status == OK

    def test_in_default_ruleset(self):
        assert "restore_lag" in [r.name for r in default_rules()]


class TestThresholdBoundaries:
    """Rules fire *at* their thresholds (>=), not just past them, and
    stay quiet immediately below — the fuzz campaign calibrates against
    exactly these edges."""

    def test_dedup_drop_at_warn_threshold_warns(self):
        # Trailing-4 mean is 10.0; a 5.0 checkpoint is exactly a 50% drop.
        report = evaluate_health(
            _ckpt_journal([10, 10, 10, 10, 5]),
            rules=[DedupRegressionRule()],
        )
        assert report.status == WARN

    def test_dedup_drop_below_warn_threshold_is_clean(self):
        report = evaluate_health(
            _ckpt_journal([10, 10, 10, 10, 5.01]),
            rules=[DedupRegressionRule()],
        )
        assert report.status == OK

    def test_dedup_drop_at_critical_threshold_is_critical(self):
        # Exactly an 80% drop from the trailing mean.
        report = evaluate_health(
            _ckpt_journal([10, 10, 10, 10, 2]),
            rules=[DedupRegressionRule()],
        )
        assert report.status == CRITICAL

    def test_dedup_drop_between_thresholds_warns(self):
        report = evaluate_health(
            _ckpt_journal([10, 10, 10, 10, 2.01]),
            rules=[DedupRegressionRule()],
        )
        assert report.status == WARN

    def test_backlog_growth_at_warn_threshold_warns(self):
        # base 1s → last 3s over 4 checkpoints: exactly warn_growth 3.0.
        report = evaluate_health(
            _ckpt_journal([1, 1, 1, 1], backlog=[1.0, 1.5, 2.0, 3.0]),
            rules=[FlushBacklogRule()],
        )
        assert report.status == WARN

    def test_backlog_growth_below_warn_threshold_is_clean(self):
        report = evaluate_health(
            _ckpt_journal([1, 1, 1, 1], backlog=[1.0, 1.5, 2.0, 2.99]),
            rules=[FlushBacklogRule()],
        )
        assert report.status == OK

    def test_backlog_growth_at_critical_threshold_is_critical(self):
        report = evaluate_health(
            _ckpt_journal([1, 1, 1, 1], backlog=[1.0, 2.0, 5.0, 10.0]),
            rules=[FlushBacklogRule()],
        )
        assert report.status == CRITICAL

    def test_crash_count_below_loop_threshold_warns(self):
        journal = EventJournal(node="node0", rank=0)
        for i in range(2):  # loop_threshold - 1
            journal.emit(CRASH, sim_time=float(i), in_flight_ckpts=0)
            journal.emit(
                RESTART, sim_time=float(i) + 0.5, cold=False,
                lost_work_seconds=1.0,
            )
        report = evaluate_health(journal, rules=[CrashLoopRule()])
        assert report.status == WARN

    def test_crash_count_at_loop_threshold_is_critical(self):
        journal = EventJournal(node="node0", rank=0)
        for i in range(3):  # exactly loop_threshold
            journal.emit(CRASH, sim_time=float(i), in_flight_ckpts=0)
            journal.emit(
                RESTART, sim_time=float(i) + 0.5, cold=False,
                lost_work_seconds=1.0,
            )
        report = evaluate_health(journal, rules=[CrashLoopRule()])
        assert report.status == CRITICAL

    def test_restore_lag_at_warn_ratio_warns(self):
        journal = EventJournal(node="node0", rank=0)
        journal.emit(
            RESTORE, path="sharded", target_ckpt=1, ranks=4,
            critical_path_seconds=2.0, predicted_seconds=1.0,
        )
        report = evaluate_health(journal, rules=[RestoreLagRule()])
        assert report.status == WARN

    def test_restore_lag_at_critical_ratio_is_critical(self):
        journal = EventJournal(node="node0", rank=0)
        journal.emit(
            RESTORE, path="sharded", target_ckpt=1, ranks=4,
            critical_path_seconds=4.0, predicted_seconds=1.0,
        )
        report = evaluate_health(journal, rules=[RestoreLagRule()])
        assert report.status == CRITICAL


class TestRuleCoverage:
    """Every failure event type must map to at least one health rule,
    and the mapped rules must actually flag the event — the contract the
    fuzzing campaign's flag-coverage gate rests on."""

    def _journal_with(self, event_type):
        journal = EventJournal(node="node0", rank=0)
        if event_type == TIER_OUTAGE:
            journal.emit(
                TIER_OUTAGE, sim_time=1.0, tier="ssd", kind="transient",
                duration=2.0,
            )
        elif event_type == FLUSH_RETRY:
            journal.emit(
                TIER_OUTAGE, sim_time=1.0, tier="ssd", kind="transient",
                duration=2.0,
            )
            journal.emit(FLUSH_RETRY, sim_time=1.5, tier="ssd", attempt=1)
        elif event_type == FLUSH_ROUTE_AROUND:
            journal.emit(
                TIER_OUTAGE, sim_time=1.0, tier="ssd", kind="permanent",
            )
            journal.emit(
                FLUSH_ROUTE_AROUND, sim_time=1.5, tier="ssd", fallback="pfs",
            )
        elif event_type == RECORD_FAULT:
            journal.emit(
                RECORD_FAULT, sim_time=1.0, kind="bitflip",
                path="record.pack", ckpt=3, detail=17, bit=2,
            )
        elif event_type == CRASH:
            journal.emit(CRASH, sim_time=1.0, in_flight_ckpts=0)
        elif event_type == REPLAY_DIVERGENCE:
            journal.emit(
                REPLAY_DIVERGENCE, sim_time=1.0, replay_of="run-x",
                kind="durable_set", detail={"missing": 1},
            )
        else:  # pragma: no cover - new event types must extend this test
            raise AssertionError(f"no fixture for event type {event_type!r}")
        return journal

    def test_coverage_map_is_total_over_failure_events(self):
        assert set(RULE_COVERAGE) == set(FAILURE_EVENT_TYPES)

    def test_mapped_rules_exist_in_default_ruleset(self):
        default_names = {r.name for r in default_rules()}
        for event_type, rule_names in RULE_COVERAGE.items():
            assert rule_names, f"{event_type} maps to no rule"
            for name in rule_names:
                assert name in default_names, (
                    f"{event_type} maps to unknown rule {name!r}"
                )

    @pytest.mark.parametrize("event_type", sorted(FAILURE_EVENT_TYPES))
    def test_each_failure_event_lands_in_mapped_rule_evidence(self, event_type):
        journal = self._journal_with(event_type)
        target = next(
            r for r in journal.records() if r["type"] == event_type
        )
        report = evaluate_health(journal)
        flagging_rules = {
            f.rule
            for f in report.findings
            if any(e is target or e == target for e in f.evidence)
        }
        assert flagging_rules & set(RULE_COVERAGE[event_type]), (
            f"{event_type} not flagged by {RULE_COVERAGE[event_type]}; "
            f"findings: {[f.rule for f in report.findings]}"
        )


def _census_journal(shares):
    """A journal of census rows with the given cross-duplicate shares."""
    journal = EventJournal(node="node0", rank=0)
    for i, share in enumerate(shares):
        journal.emit(
            ATTRIBUTION_SUMMARY,
            scope="census_record",
            record=f"rec{i}",
            num_checkpoints=5,
            logical_bytes=50_000,
            unique_bytes=10_000,
            shared_bytes=int(10_000 * share),
            cross_duplicate_share=share,
            intra_ratio=5.0,
            pool_ratio=5.0 / max(1.0 - share / 2, 1e-9),
        )
    return journal


class TestPoolCandidateRule:
    def _findings(self, journal):
        report = evaluate_health(journal)
        return [f for f in report.findings if f.rule == "pool_candidate"]

    def test_low_share_stays_quiet(self):
        assert self._findings(_census_journal([0.0, 0.1, 0.29])) == []

    def test_warn_share_grades_warn(self):
        findings = self._findings(_census_journal([0.4]))
        assert [f.severity for f in findings] == [WARN]
        assert "rec0" in findings[0].message
        assert "shared-pool candidate" in findings[0].message

    def test_strong_share_grades_critical(self):
        findings = self._findings(_census_journal([0.85]))
        assert [f.severity for f in findings] == [CRITICAL]

    def test_one_finding_per_offending_record(self):
        findings = self._findings(_census_journal([0.1, 0.5, 0.9]))
        assert sorted(f.severity for f in findings) == [CRITICAL, WARN]

    def test_evidence_carries_the_census_row(self):
        findings = self._findings(_census_journal([0.6]))
        (finding,) = findings
        assert finding.evidence[0]["cross_duplicate_share"] == 0.6

    def test_record_scope_attribution_does_not_fire(self):
        journal = EventJournal(node="node0", rank=0)
        journal.emit(
            ATTRIBUTION_SUMMARY,
            scope="record",
            record="recA",
            cross_duplicate_share=0.99,  # wrong scope: must be ignored
        )
        assert self._findings(journal) == []

    def test_in_default_ruleset(self):
        assert "pool_candidate" in [r.name for r in default_rules()]


class TestJournalIngestRule:
    """The journal's own health: one run, nothing dropped on the way in."""

    def _findings(self, source):
        return evaluate_health(source, rules=[JournalIngestRule()]).findings

    def test_single_run_undamaged_is_quiet(self):
        journal = EventJournal(node="node0", rank=0, run_id="run-a")
        journal.emit(CRASH, sim_time=1.0)
        assert self._findings(journal) == []

    def test_mixed_runs_are_critical_and_named(self):
        a = EventJournal(node="node0", rank=0, run_id="run-a")
        b = EventJournal(node="node0", rank=1, run_id="run-b")
        a.emit(CRASH, sim_time=1.0)
        b.emit(CRASH, sim_time=2.0)
        (finding,) = self._findings([a, b])
        assert finding.severity == CRITICAL
        assert "2 different runs" in finding.message
        assert "run-a" in finding.message and "run-b" in finding.message

    def test_skipped_lines_warn_with_the_problems_as_evidence(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EventJournal(path=path, node="node0", rank=0)
        journal.emit(CRASH, sim_time=1.0)
        journal.close()
        with path.open("a") as fh:
            fh.write("not json at all\n")
        (finding,) = self._findings(events.read_journal(path))
        assert finding.severity == WARN
        assert "1 damaged journal line(s) skipped" in finding.message
        assert finding.evidence[0]["problems"][0].startswith("run.jsonl: line 2")

    def test_swallowed_subscriber_errors_warn(self):
        def boom(record):
            raise RuntimeError("subscriber bug")

        events.subscribe(boom)
        events.emit(CRASH, sim_time=1.0)
        (finding,) = self._findings([])
        assert finding.severity == WARN
        assert "1 event-bus subscriber error(s)" in finding.message


class TestRegistry:
    def test_default_rules_name_every_rule_once(self):
        names = [r.name for r in default_rules()]
        assert len(names) == len(set(names))
        assert {
            "liveness",
            "straggler",
            "slo_commit_latency",
            "slo_flush_latency",
            "journal_ingest",
        } <= set(names)
