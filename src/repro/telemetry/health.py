"""Declarative health rules over fleet rollups — the only grader.

The journal records what happened; the health engine decides whether it
was *fine*.  Each rule inspects a :class:`~repro.telemetry.aggregate.
FleetRollup` and produces graded :class:`Finding`\\ s (``warn`` /
``critical``) with the evidence events attached, so an operator reading
a finding can jump straight to the journal records that triggered it.
A clean run produces **zero findings** and an overall ``ok`` status —
asserted on the fixed-seed ORANGES run by the acceptance tests.

:func:`evaluate_health` is the one entry point: ``repro health`` and
``repro report`` call it on finished journals, the live monitor
(:mod:`repro.telemetry.live`) calls it on the records ingested so far,
and the replay and fuzz planes call it on the runs they drive — so a
run gets the same verdict whether it is graded live or post hoc.  Every
threshold is a module constant of this file (or, for the liveness and
window maths, of :mod:`~repro.telemetry.aggregate`).

Rule catalog (see ``docs/OBSERVABILITY.md`` §8):

* :class:`DedupRegressionRule` — per-rank dedup ratio collapsing vs its
  own trailing window (data drifting away from the dedup sweet spot).
* :class:`FlushBacklogRule` — flush backlog (persisted − produced)
  growing monotonically, or the application blocking on host admission.
* :class:`CorruptionRule` — injected-record-fault sentinels.
* :class:`CrashLoopRule` — crashes per rank; repeated crashes or a cold
  restart (data loss) escalate to ``critical``.
* :class:`TierOutageRule` — injected tier outages, with that tier's
  retry/route-around events as evidence.
* :class:`RestoreLagRule` — restores whose measured critical path blew
  past the cost model's pre-execution prediction.
* :class:`WriteAmplificationRule` — record appends whose bytes written
  dwarf the checkpoints appended (the store regressed toward O(N)
  appends: frames rewritten, index rebuilt whole).
* :class:`PoolCandidateRule` — census rows whose cross-record duplicate
  share marks a record as a strong shared-dedup-pool candidate.
* :class:`LivenessRule` / :class:`StragglerRule` — ranks behind their
  heartbeat deadline (hung is critical) or beating slower than the fleet.
* :class:`CommitLatencyTailRule` / :class:`FlushLatencyTailRule` — the
  rolling window's p99 blowing out relative to its p50.
* :class:`JournalIngestRule` — the journal itself: mixed runs, damaged
  lines, swallowed event-bus subscriber errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from . import events as events_mod
from .aggregate import HUNG, LAGGING, FleetRollup, build_rollup
from .events import (
    ATTRIBUTION_SUMMARY,
    CRASH,
    FLUSH_RETRY,
    FLUSH_ROUTE_AROUND,
    RECORD_APPENDED,
    RECORD_FAULT,
    REPLAY_DIVERGENCE,
    RESTORE,
    TIER_OUTAGE,
)

OK = "ok"
WARN = "warn"
CRITICAL = "critical"
_SEVERITY_RANK = {OK: 0, WARN: 1, CRITICAL: 2}


def severity_rank(severity: str) -> int:
    """Numeric ordering of ``ok`` < ``warn`` < ``critical``."""
    return _SEVERITY_RANK[severity]


# ----------------------------------------------------------------------
# Thresholds — one value each, used live and post hoc alike
# ----------------------------------------------------------------------
#: ``dedup_regression``: trailing-window length, and the fraction of the
#: trailing mean a checkpoint's ratio may lose before warn / critical.
DEDUP_WINDOW = 4
DEDUP_WARN_DROP = 0.5
DEDUP_CRITICAL_DROP = 0.8
#: ``flush_backlog``: last ÷ first backlog growth for warn / critical,
#: checkpoints needed before growth is judged, and the smallest initial
#: backlog (seconds) growth is measured against.
BACKLOG_WARN_GROWTH = 3.0
BACKLOG_CRITICAL_GROWTH = 10.0
BACKLOG_MIN_CHECKPOINTS = 4
BACKLOG_MIN_SECONDS = 1e-6
#: ``crash_loop``: crashes of one rank that make a loop.
CRASH_LOOP_THRESHOLD = 3
#: ``restore_lag``: measured ÷ predicted critical path.
RESTORE_LAG_WARN_RATIO = 2.0
RESTORE_LAG_CRITICAL_RATIO = 4.0
#: ``write_amplification``: bytes written ÷ checkpoint bytes, judged
#: only past this many bytes written.
WRITE_AMP_WARN_RATIO = 4.0
WRITE_AMP_CRITICAL_RATIO = 16.0
WRITE_AMP_MIN_BYTES = 1 << 20
#: ``pool_candidate``: cross-record duplicate share of a census row.
POOL_WARN_SHARE = 0.3
POOL_STRONG_SHARE = 0.7
#: ``slo_commit_latency`` / ``slo_flush_latency``: window p99 ÷ p50.
#: The simulated clock's absolute latencies scale with workload size, so
#: only the scale-free tail ratio is graded.
TAIL_WARN_RATIO = 100.0
TAIL_CRITICAL_RATIO = 1000.0


@dataclass
class Finding:
    """One graded health observation with its evidence events."""

    rule: str
    severity: str  # WARN | CRITICAL
    message: str
    node: Optional[str] = None
    rank: Optional[int] = None
    evidence: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "node": self.node,
            "rank": self.rank,
            "evidence": self.evidence,
        }


@dataclass
class HealthReport:
    """Every finding from one rule sweep over one rollup."""

    findings: List[Finding]
    rules_run: List[str]

    @property
    def status(self) -> str:
        """Worst severity across findings; ``ok`` when there are none."""
        worst = OK
        for finding in self.findings:
            if severity_rank(finding.severity) > severity_rank(worst):
                worst = finding.severity
        return worst

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 ok, 1 warn, 2 critical."""
        return severity_rank(self.status)

    def findings_for(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "rules_run": self.rules_run,
            "findings": [f.as_dict() for f in self.findings],
        }

    def summary(self) -> str:
        """Fixed-width text rendering (what ``repro health`` prints)."""
        lines = [f"status: {self.status.upper()}  ({len(self.findings)} findings)"]
        for finding in self.findings:
            where = finding.node or "-"
            if finding.rank is not None:
                where += f"/r{finding.rank}"
            lines.append(
                f"  [{finding.severity:<8s}] {finding.rule:<18s} "
                f"{where:<12s} {finding.message}"
            )
        return "\n".join(lines)


class HealthRule:
    """Base class: subclasses implement :meth:`evaluate`."""

    name = "rule"
    description = ""

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


class DedupRegressionRule(HealthRule):
    """A rank's dedup ratio collapsing versus its own trailing window.

    For each checkpoint past the warm-up window, compare its ratio with
    the mean of the previous :data:`DEDUP_WINDOW` checkpoints: a drop
    past :data:`DEDUP_WARN_DROP` (fraction of the trailing mean lost)
    warns, past :data:`DEDUP_CRITICAL_DROP` is critical.  The ratio
    sequence excludes nothing — the first (full) checkpoint anchors the
    window low, so organic ratio growth never trips the rule.
    """

    name = "dedup_regression"
    description = "per-rank dedup ratio vs trailing window"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        for rank in rollup.ranks.values():
            ratios = rank.dedup_ratios
            worst: Optional[Finding] = None
            for i in range(DEDUP_WINDOW, len(ratios)):
                trailing = sum(ratios[i - DEDUP_WINDOW : i]) / DEDUP_WINDOW
                if trailing <= 0:
                    continue
                drop = 1.0 - ratios[i] / trailing
                severity = None
                if drop >= DEDUP_CRITICAL_DROP:
                    severity = CRITICAL
                elif drop >= DEDUP_WARN_DROP:
                    severity = WARN
                if severity is None:
                    continue
                finding = Finding(
                    rule=self.name,
                    severity=severity,
                    message=(
                        f"dedup ratio fell to {ratios[i]:.2f}x "
                        f"({drop:.0%} below trailing-{DEDUP_WINDOW} mean "
                        f"{trailing:.2f}x) at checkpoint {i}"
                    ),
                    node=rank.node,
                    rank=rank.rank,
                    evidence=rank.commit_events[i : i + 1],
                )
                if worst is None or severity_rank(severity) > severity_rank(
                    worst.severity
                ):
                    worst = finding
            if worst is not None:
                findings.append(worst)
        return findings


class FlushBacklogRule(HealthRule):
    """Flush backlog growing without bound, or the app blocking on staging.

    The backlog of one checkpoint is ``persisted_at − produced_at``.  In
    the healthy regime it is flat (drain keeps up with the cadence); a
    final backlog :data:`BACKLOG_WARN_GROWTH`× the initial one —
    sustained, i.e. the last value is also the max — means the hierarchy
    is falling behind.  Any application blocking on host admission is
    itself a warn: the paper's §1 failure mode has arrived.
    """

    name = "flush_backlog"
    description = "flush backlog growth / host-admission stalls"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        for rank in rollup.ranks.values():
            backlog = rank.backlog_seconds
            evidence = rank.commit_events
            if len(backlog) >= BACKLOG_MIN_CHECKPOINTS:
                base = backlog[0]
                last = backlog[-1]
                if (
                    base > BACKLOG_MIN_SECONDS
                    and last >= max(backlog)
                    and last / base >= BACKLOG_WARN_GROWTH
                ):
                    severity = (
                        CRITICAL
                        if last / base >= BACKLOG_CRITICAL_GROWTH
                        else WARN
                    )
                    findings.append(
                        Finding(
                            rule=self.name,
                            severity=severity,
                            message=(
                                f"flush backlog grew {last / base:.1f}x over "
                                f"{len(backlog)} checkpoints "
                                f"({base:.3g}s → {last:.3g}s)"
                            ),
                            node=rank.node,
                            rank=rank.rank,
                            evidence=evidence[-1:],
                        )
                    )
            if rank.blocked_seconds > 0:
                blocked_evidence = [
                    e for e in evidence if e.get("blocked_seconds", 0) > 0
                ]
                findings.append(
                    Finding(
                        rule=self.name,
                        severity=WARN,
                        message=(
                            f"application blocked {rank.blocked_seconds:.3g}s "
                            f"waiting for host staging admission"
                        ),
                        node=rank.node,
                        rank=rank.rank,
                        evidence=blocked_evidence[:5],
                    )
                )
        return findings


class CorruptionRule(HealthRule):
    """Injected-record-fault sentinel: always critical.

    A ``record_fault`` event is a fault injector's receipt.  One finding
    per event, so a campaign can check that *every* injected corruption
    was flagged.
    """

    name = "corruption"
    description = "injected record faults"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        for event in rollup.events_of(RECORD_FAULT):
            findings.append(
                Finding(
                    rule=self.name,
                    severity=CRITICAL,
                    message=(
                        f"injected {event.get('kind', '?')} fault on "
                        f"checkpoint {event.get('ckpt', '?')}'s frame in "
                        f"{event.get('path', '?')}"
                    ),
                    node=event.get("node"),
                    rank=event.get("rank"),
                    evidence=[event],
                )
            )
        return findings


class CrashLoopRule(HealthRule):
    """Crashes per rank: any crash warns; loops and data loss are critical.

    :data:`CRASH_LOOP_THRESHOLD` crashes of the same rank is a crash
    loop; a cold restart (nothing durable to restore from — work is
    gone) is critical regardless of count.
    """

    name = "crash_loop"
    description = "crash counts and cold restarts per rank"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        for rank in rollup.ranks.values():
            if rank.crashes == 0:
                continue
            if rank.crashes >= CRASH_LOOP_THRESHOLD:
                severity = CRITICAL
                message = (
                    f"crash loop: {rank.crashes} crashes "
                    f"(≥ {CRASH_LOOP_THRESHOLD}), "
                    f"{rank.lost_work_seconds:.3g}s work lost"
                )
            elif rank.cold_restarts:
                severity = CRITICAL
                message = (
                    f"{rank.crashes} crash(es) including a cold restart: "
                    f"no durable checkpoint, {rank.lost_work_seconds:.3g}s lost"
                )
            else:
                severity = WARN
                message = (
                    f"{rank.crashes} crash(es), restored from durable "
                    f"checkpoints, {rank.lost_work_seconds:.3g}s work lost"
                )
            findings.append(
                Finding(
                    rule=self.name,
                    severity=severity,
                    message=message,
                    node=rank.node,
                    rank=rank.rank,
                    evidence=rank.crash_events[:10],
                )
            )
        return findings


class TierOutageRule(HealthRule):
    """Injected tier outages: transient warns, permanent is critical.

    Evidence bundles the outage event with that tier's retry and
    route-around events, so the finding shows both the cause and the
    degradation it produced.  Degraded flushes *without* a recorded
    outage (journals merged from a partial fleet) still warn.
    """

    name = "tier_outage"
    description = "tier outages with their retry/route-around fallout"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        degraded = rollup.events_of(FLUSH_RETRY, FLUSH_ROUTE_AROUND)
        claimed = set()
        for event in rollup.tier_outages:
            tier = event.get("tier", "?")
            fallout = [e for e in degraded if e.get("tier") == tier]
            claimed.update(id(e) for e in fallout)
            permanent = event.get("kind") == "permanent"
            findings.append(
                Finding(
                    rule=self.name,
                    severity=CRITICAL if permanent else WARN,
                    message=(
                        f"{event.get('kind', '?')} outage of tier {tier!r} "
                        f"at t={event.get('sim_time') or 0.0:g}"
                        + (
                            ""
                            if permanent
                            else f" for {event.get('duration', 0.0):g}s"
                        )
                        + f"; {len(fallout)} degraded flush event(s)"
                    ),
                    node=event.get("node"),
                    rank=event.get("rank"),
                    evidence=[event] + fallout[:10],
                )
            )
        orphans = [e for e in degraded if id(e) not in claimed]
        if orphans:
            retries = sum(1 for e in orphans if e.get("type") == FLUSH_RETRY)
            routes = len(orphans) - retries
            findings.append(
                Finding(
                    rule=self.name,
                    severity=WARN,
                    message=(
                        f"degraded flushes without a recorded outage: "
                        f"{retries} retries, {routes} route-arounds"
                    ),
                    evidence=orphans[:10],
                )
            )
        return findings


class RestoreLagRule(HealthRule):
    """A restore's measured critical path far beyond its prediction.

    Sharded restores carry both the pre-execution cost-model prediction
    (the number the window auto-picker committed to) and the measured
    critical path.  A measured path :data:`RESTORE_LAG_WARN_RATIO`× the
    prediction means the model no longer describes the fleet —
    contention, placement, or storage changed under it — and the window
    choice is stale; past :data:`RESTORE_LAG_CRITICAL_RATIO` the restore
    SLO itself is at risk.  Events without both fields (single-GPU
    restores) are ignored, so clean runs stay clean.
    """

    name = "restore_lag"
    description = "restore critical path vs cost-model prediction"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        for event in rollup.events_of(RESTORE):
            measured = float(event.get("critical_path_seconds", 0.0) or 0.0)
            predicted = float(event.get("predicted_seconds", 0.0) or 0.0)
            if measured <= 0 or predicted <= 0:
                continue
            ratio = measured / predicted
            if ratio < RESTORE_LAG_WARN_RATIO:
                continue
            severity = (
                CRITICAL if ratio >= RESTORE_LAG_CRITICAL_RATIO else WARN
            )
            findings.append(
                Finding(
                    rule=self.name,
                    severity=severity,
                    message=(
                        f"restore of ckpt {event.get('target_ckpt', '?')} "
                        f"across {event.get('ranks', '?')} rank(s) took "
                        f"{measured:.3g}s vs predicted {predicted:.3g}s "
                        f"({ratio:.1f}x)"
                    ),
                    node=event.get("node"),
                    rank=event.get("rank"),
                    evidence=[event],
                )
            )
        return findings


class ReplayDivergenceRule(HealthRule):
    """A journal replay diverged from the recorded run: always critical.

    The replay subsystem (:mod:`repro.replay`) re-drives a recorded
    journal and emits one ``replay_divergence`` event per equivalence
    component that differs — durable-checkpoint set, restored bytes,
    health findings, or event counts.  Any such event means either the
    runtime is non-deterministic or the journal no longer describes what
    the system does: both are correctness emergencies.
    """

    name = "replay_divergence"
    description = "replayed run diverged from its recorded journal"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        for event in rollup.events_of(REPLAY_DIVERGENCE):
            findings.append(
                Finding(
                    rule=self.name,
                    severity=CRITICAL,
                    message=(
                        f"replay of run {event.get('replay_of', '?')!r} "
                        f"diverged: {event.get('kind', '?')} — "
                        f"{event.get('detail', '?')}"
                    ),
                    node=event.get("node"),
                    rank=event.get("rank"),
                    evidence=[event],
                )
            )
        return findings


class WriteAmplificationRule(HealthRule):
    """Record appends writing far more bytes than they checkpoint.

    The append path is O(changed data): one frame, one index row-group,
    one log entry.  Summed over a run, ``bytes_written`` should track
    ``checkpoint_bytes`` closely; a fleet-wide ratio past
    :data:`WRITE_AMP_WARN_RATIO` means the store is rewriting frames or
    rebuilding the index whole — the O(N)-append regression the
    ``RecordWriter`` write path removed — and past
    :data:`WRITE_AMP_CRITICAL_RATIO` the storage pipeline, not the
    kernels, is the bottleneck again.  Runs writing less than
    :data:`WRITE_AMP_MIN_BYTES` total are ignored: tiny records are all
    fixed overhead (header, index prologue, log entries) and say nothing
    about the write path.
    """

    name = "write_amplification"
    description = "record-append bytes written vs checkpoint bytes"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        appends = rollup.events_of(RECORD_APPENDED)
        if not appends:
            return []
        written = sum(int(e.get("bytes_written", 0) or 0) for e in appends)
        checkpointed = sum(
            int(e.get("checkpoint_bytes", 0) or 0) for e in appends
        )
        if written < WRITE_AMP_MIN_BYTES or checkpointed <= 0:
            return []
        ratio = written / checkpointed
        if ratio < WRITE_AMP_WARN_RATIO:
            return []
        severity = CRITICAL if ratio >= WRITE_AMP_CRITICAL_RATIO else WARN
        worst = sorted(
            appends,
            key=lambda e: int(e.get("bytes_written", 0) or 0),
            reverse=True,
        )
        return [
            Finding(
                rule=self.name,
                severity=severity,
                message=(
                    f"write amplification {ratio:.1f}x across "
                    f"{len(appends)} append(s): {written} B written for "
                    f"{checkpointed} B of checkpoints"
                ),
                evidence=worst[:5],
            )
        ]


class PoolCandidateRule(HealthRule):
    """A record whose chunk bytes mostly already exist in other records.

    Reads the census rows (``attribution_summary`` events with scope
    ``census_record``, emitted by :class:`~repro.telemetry.attribution.
    ChunkCensus`): when a record's *cross-record duplicate share* — the
    fraction of its unique chunk bytes whose content other records also
    hold — passes :data:`POOL_WARN_SHARE`, standalone storage is leaving
    real dedup on the table and the record is a shared-pool candidate;
    past :data:`POOL_STRONG_SHARE` the record is mostly duplicate
    content and storing it outside the pool is mostly waste.  Purely
    advisory grading: it fires only when a census ran, so clean ORANGES
    runs stay at zero findings.
    """

    name = "pool_candidate"
    description = "cross-record duplicate share marks shared-pool candidates"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        rows = [
            e
            for e in rollup.events_of(ATTRIBUTION_SUMMARY)
            if e.get("scope") == "census_record"
        ]
        findings: List[Finding] = []
        for row in rows:
            share = float(row.get("cross_duplicate_share", 0.0) or 0.0)
            if share < POOL_WARN_SHARE:
                continue
            severity = CRITICAL if share >= POOL_STRONG_SHARE else WARN
            findings.append(
                Finding(
                    rule=self.name,
                    severity=severity,
                    message=(
                        f"record {row.get('record', '?')}: {share:.0%} of its "
                        f"unique chunk bytes exist in other records "
                        f"(intra ×{float(row.get('intra_ratio', 0) or 0):.2f} "
                        f"→ pooled ×{float(row.get('pool_ratio', 0) or 0):.2f})"
                        f" — shared-pool candidate"
                    ),
                    node=row.get("node"),
                    rank=row.get("rank"),
                    evidence=[row],
                )
            )
        return findings


class LivenessRule(HealthRule):
    """Ranks behind their heartbeat deadline: lagging warns, hung is critical.

    Grades :attr:`FleetRollup.liveness` (see :func:`~repro.telemetry.
    aggregate.liveness_verdicts` for the verdict maths).  A finished
    clean run ends with every rank on deadline and stays quiet; a run
    that *ends* with a rank behind — a dropped recovery, a rank excluded
    from the last rounds — is flagged the same live and post hoc.
    """

    name = "liveness"
    description = "ranks lagging or hung against their heartbeat deadline"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        return [
            Finding(
                rule=self.name,
                severity=CRITICAL if verdict.state == HUNG else WARN,
                message=f"rank {verdict.state}: {verdict.reason}",
                node=verdict.node,
                rank=verdict.rank,
                evidence=[verdict.as_dict()],
            )
            for verdict in rollup.liveness.values()
            if verdict.state in (HUNG, LAGGING)
        ]


class StragglerRule(HealthRule):
    """Ranks on deadline but beating measurably slower than the fleet."""

    name = "straggler"
    description = "heartbeat cadence far above the fleet median"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        return [
            Finding(
                rule=self.name,
                severity=WARN,
                message=f"straggler: {verdict.reason}",
                node=verdict.node,
                rank=verdict.rank,
                evidence=[verdict.as_dict()],
            )
            for verdict in rollup.liveness.values()
            if verdict.straggler
        ]


class CommitLatencyTailRule(HealthRule):
    """The rolling window's commit-latency p99 dwarfing its p50.

    Grades one phase of :attr:`FleetRollup.slis`: a p99/p50 ratio past
    :data:`TAIL_WARN_RATIO` warns, past :data:`TAIL_CRITICAL_RATIO` is
    critical.  Simulated latencies are sub-millisecond and scale with
    the workload, so only a pathological tail alerts.
    """

    name = "slo_commit_latency"
    description = "window commit latency p99 vs p50"
    phase = "commit_latency"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        stats = rollup.slis[self.phase]
        p50, p99 = stats["p50"], stats["p99"]
        if not p50 or p50 <= 0:
            return []
        ratio = p99 / p50
        if ratio < TAIL_WARN_RATIO:
            return []
        return [
            Finding(
                rule=self.name,
                severity=CRITICAL if ratio >= TAIL_CRITICAL_RATIO else WARN,
                message=(
                    f"{self.phase} tail blew out: p99 {p99:.3g}s is "
                    f"{ratio:.0f}x p50 {p50:.3g}s (window of {stats['count']})"
                ),
                evidence=[stats],
            )
        ]


class FlushLatencyTailRule(CommitLatencyTailRule):
    """The same tail check on ``persisted_at − produced_at``."""

    name = "slo_flush_latency"
    description = "window flush latency p99 vs p50"
    phase = "flush_latency"


class JournalIngestRule(HealthRule):
    """The journal itself: is what was graded the whole, single run?

    Records of two or more ``run_id``\\ s are unrelated fleets conflated
    into one verdict — critical.  Damaged lines the loaders skipped
    (:class:`~repro.telemetry.events.LoadedJournal` /
    :class:`~repro.telemetry.live.JournalFollower` accounting) and
    event-bus subscriber errors swallowed in this process mean the
    verdict rests on an incomplete stream — warn.
    """

    name = "journal_ingest"
    description = "mixed runs, damaged journal lines, bus subscriber errors"

    def evaluate(self, rollup: FleetRollup) -> List[Finding]:
        findings: List[Finding] = []
        if len(rollup.run_ids) > 1:
            findings.append(
                Finding(
                    rule=self.name,
                    severity=CRITICAL,
                    message=(
                        f"journals span {len(rollup.run_ids)} different "
                        f"runs: {rollup.run_ids}"
                    ),
                )
            )
        if rollup.skipped_lines:
            findings.append(
                Finding(
                    rule=self.name,
                    severity=WARN,
                    message=(
                        f"{rollup.skipped_lines} damaged journal line(s) "
                        f"skipped"
                    ),
                    evidence=[{"problems": rollup.problems[:8]}],
                )
            )
        if events_mod.subscriber_errors:
            findings.append(
                Finding(
                    rule=self.name,
                    severity=WARN,
                    message=(
                        f"{events_mod.subscriber_errors} event-bus "
                        f"subscriber error(s) swallowed"
                    ),
                )
            )
        return findings


#: Which rules can flag each failure event type (see
#: :data:`repro.telemetry.events.FAILURE_EVENT_TYPES`).  The fuzzing
#: campaign and ``tests/telemetry/test_health.py`` assert this map is
#: total over the failure event set and that the listed rules actually
#: produce a finding carrying the event as evidence.
RULE_COVERAGE: Dict[str, List[str]] = {
    TIER_OUTAGE: [TierOutageRule.name],
    FLUSH_RETRY: [TierOutageRule.name],
    FLUSH_ROUTE_AROUND: [TierOutageRule.name],
    RECORD_FAULT: [CorruptionRule.name],
    CRASH: [CrashLoopRule.name],
    REPLAY_DIVERGENCE: [ReplayDivergenceRule.name],
}


def default_rules() -> List[HealthRule]:
    """A fresh instance of every rule any surface can emit."""
    return [
        DedupRegressionRule(),
        FlushBacklogRule(),
        CorruptionRule(),
        CrashLoopRule(),
        TierOutageRule(),
        RestoreLagRule(),
        ReplayDivergenceRule(),
        WriteAmplificationRule(),
        PoolCandidateRule(),
        LivenessRule(),
        StragglerRule(),
        CommitLatencyTailRule(),
        FlushLatencyTailRule(),
        JournalIngestRule(),
    ]


def evaluate_health(
    source, rules: Optional[Sequence[HealthRule]] = None
) -> HealthReport:
    """Run the rule set over *source* and grade the outcome.

    *source* may be a :class:`FleetRollup`, an :class:`~repro.telemetry.
    events.EventJournal`, a record list, or an iterable of journals;
    *rules* narrows the sweep (how a test isolates one rule).
    """
    if isinstance(source, FleetRollup):
        rollup = source
    else:
        rollup = build_rollup(source)
    ruleset = list(rules) if rules is not None else default_rules()
    findings: List[Finding] = []
    for rule in ruleset:
        findings.extend(rule.evaluate(rollup))
    findings.sort(key=lambda f: -severity_rank(f.severity))
    return HealthReport(findings=findings, rules_run=[r.name for r in ruleset])
