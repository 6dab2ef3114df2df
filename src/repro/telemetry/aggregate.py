"""Fleet aggregation: merge per-rank journals into rollups.

A strong-scaling run produces one event journal per simulated rank.
This module merges them into a :class:`FleetRollup` — per-rank,
per-node, and fleet-wide dedup ratio, stored bytes, flush backlog, lost
work, and restore amplification, plus the two views a monitor renders
and the health rules grade: per-rank liveness
(:func:`liveness_verdicts`) and the rolling-window SLIs
(:func:`window_slis`) — with **order-independent** semantics: merging
the same journals in any order produces the same merged stream and the
same rollup (property-tested in ``tests/telemetry/test_aggregate.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .events import (
    CHECKPOINT_COMMITTED,
    CRASH,
    FAILURE_EVENT_TYPES,
    FLUSH_RETRY,
    FLUSH_ROUTE_AROUND,
    HEARTBEAT,
    RECORD_FAULT,
    RESTART,
    RESTORE,
    TIER_OUTAGE,
    EventJournal,
    LoadedJournal,
    journal_run_ids,
    merge_key,
)
from .metrics import DEFAULT_BUCKETS, Histogram


def _as_records(journal) -> List[Dict[str, Any]]:
    if isinstance(journal, EventJournal):
        return journal.records()
    return list(journal)


def merge_journals(
    journals: Iterable, allow_mixed_runs: bool = False
) -> List[Dict[str, Any]]:
    """Merge journals (record lists or :class:`EventJournal`) into one
    canonically ordered stream.

    The result depends only on the multiset of records, not on the order
    journals are passed in or the order records appear within them.

    Records carrying two or more distinct ``run_id`` values (schema v2
    envelope) are journals from *different runs*; merging them would
    silently conflate unrelated fleets, so it raises ``ValueError``
    unless ``allow_mixed_runs=True``.  Records without a run id (schema
    v1, ad-hoc journals) merge compatibly with anything.
    """
    merged: List[Dict[str, Any]] = []
    for journal in journals:
        merged.extend(_as_records(journal))
    if not allow_mixed_runs:
        run_ids = journal_run_ids(merged)
        if len(run_ids) > 1:
            raise ValueError(
                f"refusing to merge journals from {len(run_ids)} different "
                f"runs: {run_ids} (pass allow_mixed_runs=True to override)"
            )
    merged.sort(key=merge_key)
    return merged


# ----------------------------------------------------------------------
# Per-rank liveness over the heartbeat stream
# ----------------------------------------------------------------------
OK = "ok"
LAGGING = "lagging"
HUNG = "hung"

#: Worst-first ordering for liveness states.
STATE_RANK = {OK: 0, LAGGING: 1, HUNG: 2}

#: Whole heartbeat deadlines a rank may miss before it grades
#: ``lagging`` / ``hung``.
LAG_MISSES = 2
HUNG_MISSES = 4
#: Standard deviations a rank's mean heartbeat gap may sit above the
#: fleet median before it is flagged a straggler.
STRAGGLER_SIGMA = 3.0

RankKey = Tuple[str, Optional[int]]


@dataclass
class LivenessVerdict:
    """One rank's liveness at a given simulated instant."""

    node: str
    rank: Optional[int]
    state: str  # OK | LAGGING | HUNG
    last_heartbeat: Optional[float]
    #: Deadline used for this verdict (declared or inferred), seconds.
    interval: Optional[float]
    #: Whole deadlines elapsed since the last heartbeat.
    misses: int
    heartbeats: int
    checkpoints: int
    straggler: bool = False
    #: Why the verdict is what it is, operator-readable.
    reason: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class _RankHistory:
    """Per-rank fold of the heartbeat/crash/restart stream."""

    node: str
    rank: Optional[int]
    beats: List[float] = field(default_factory=list)
    declared_interval: Optional[float] = None
    checkpoints: int = 0
    #: Simulated time of a crash nobody has restarted yet.
    open_crash: Optional[float] = None

    def mean_gap(self) -> Optional[float]:
        gaps = [b - a for a, b in zip(self.beats, self.beats[1:]) if b > a]
        return sum(gaps) / len(gaps) if gaps else None


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def liveness_verdicts(
    events: Iterable[Dict[str, Any]], now: Optional[float] = None
) -> Dict[RankKey, LivenessVerdict]:
    """Grade every rank that ever beat, crashed or restarted, at *now*.

    Every healthy rank emits a ``heartbeat`` once per checkpoint round
    (:class:`~repro.runtime.NodeRuntime` stamps the cadence period on it
    as ``interval_seconds``).  A rank is ``ok`` on deadline, ``lagging``
    after :data:`LAG_MISSES` missed deadlines and ``hung`` after
    :data:`HUNG_MISSES` — or one deadline after a ``crash`` nobody
    restarted, so a dropped recovery is flagged within one heartbeat
    deadline of the crash instead of waiting out several missed beats.
    Stragglers are relative, as in the paper's strong-scaling runs: a
    rank whose mean heartbeat gap sits :data:`STRAGGLER_SIGMA` robust
    deviations above the fleet median cadence is flagged even though it
    never misses its own deadline.

    *events* must be in canonical merge order (:func:`merge_journals`),
    which is what makes the verdicts independent of arrival order.
    *now* defaults to the newest heartbeat/crash/restart instant — "as
    of the newest event anywhere in the fleet", which is what a tailer
    naturally knows.
    """
    histories: Dict[RankKey, _RankHistory] = {}
    newest = 0.0
    for record in events:
        kind = record.get("type")
        if kind not in (HEARTBEAT, CRASH, RESTART):
            continue
        key = (str(record.get("node", "")), record.get("rank"))
        history = histories.get(key)
        if history is None:
            history = histories[key] = _RankHistory(node=key[0], rank=key[1])
        sim = record.get("sim_time")
        if sim is not None:
            newest = max(newest, float(sim))
        if kind == HEARTBEAT:
            if sim is not None:
                history.beats.append(float(sim))
            declared = record.get("interval_seconds")
            if declared is not None:
                history.declared_interval = float(declared)
            history.checkpoints = max(
                history.checkpoints, int(record.get("checkpoints", 0) or 0)
            )
        elif kind == CRASH:
            history.open_crash = float(sim) if sim is not None else 0.0
        else:
            history.open_crash = None
    if now is None:
        now = newest

    fleet_gaps = [g for h in histories.values() for g in (h.mean_gap(),) if g]
    fleet_gap = _median(fleet_gaps) if fleet_gaps else None
    # Robust dispersion: a hung-or-slow outlier must not inflate the
    # yardstick it is measured against, so use the median absolute
    # deviation (scaled to σ-equivalent) with a relative floor — a
    # perfectly uniform fleet still needs a nonzero band before
    # normal jitter counts as straggling.
    if fleet_gap is not None:
        mad = _median([abs(g - fleet_gap) for g in fleet_gaps])
        sigma = max(1.4826 * mad, 0.1 * fleet_gap)
    else:
        sigma = 0.0

    out: Dict[RankKey, LivenessVerdict] = {}
    for key in sorted(histories, key=lambda k: (k[0], k[1] if k[1] is not None else -1)):
        history = histories[key]
        own_gap = history.mean_gap()
        # Deadline: declared, else the rank's own cadence, else the fleet's.
        interval = history.declared_interval or own_gap or fleet_gap
        last = history.beats[-1] if history.beats else None
        misses = 0
        state = OK
        reason = "on deadline"
        if interval and interval > 0:
            since = now - (last if last is not None else 0.0)
            misses = max(0, int(since / interval))
            if misses >= HUNG_MISSES:
                state = HUNG
                reason = (
                    f"{misses} heartbeat deadlines missed "
                    f"(last beat {'never' if last is None else f'at t={last:g}'})"
                )
            elif misses >= LAG_MISSES:
                state = LAGGING
                reason = f"{misses} heartbeat deadlines missed"
        # A crash nobody restarted escalates straight to hung one
        # deadline after the crash — no waiting out HUNG_MISSES beats
        # for a rank we *know* died.
        if history.open_crash is not None:
            grace = interval if interval else 0.0
            if now >= history.open_crash + grace:
                state = HUNG
                reason = f"crashed at t={history.open_crash:g} with no restart"
            elif STATE_RANK[state] < STATE_RANK[LAGGING]:
                state = LAGGING
                reason = (
                    f"crashed at t={history.open_crash:g}, within "
                    f"restart grace"
                )
        straggler = False
        if (
            state == OK
            and own_gap is not None
            and fleet_gap is not None
            and len(fleet_gaps) >= 3
            and own_gap > fleet_gap + STRAGGLER_SIGMA * sigma
        ):
            straggler = True
            reason = (
                f"cadence {own_gap:g}s/beat vs fleet median "
                f"{fleet_gap:g}s (+{STRAGGLER_SIGMA:g}σ)"
            )
        out[key] = LivenessVerdict(
            node=history.node,
            rank=history.rank,
            state=state,
            last_heartbeat=last,
            interval=interval,
            misses=misses,
            heartbeats=len(history.beats),
            checkpoints=history.checkpoints,
            straggler=straggler,
            reason=reason,
        )
    return out


# ----------------------------------------------------------------------
# Rolling-window service-level indicators
# ----------------------------------------------------------------------
#: Commits per rolling window.
SLO_WINDOW = 64


def _quantiles(values: Sequence[float]) -> Dict[str, Any]:
    if not values:
        return {"p50": None, "p99": None, "count": 0}
    hist = Histogram.from_values("window", values, buckets=DEFAULT_BUCKETS)
    return {
        "p50": hist.quantile(0.5),
        "p99": hist.quantile(0.99),
        "count": len(values),
    }


def window_slis(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """SLIs over the most recent :data:`SLO_WINDOW` commits of *events*.

    The ``/slo`` endpoint's payload: **commit latency** (application-
    visible seconds per checkpoint: device work + admission stall) and
    **flush latency** (``persisted_at − produced_at``, the hierarchy's
    drain lag) as p50/p99 via :meth:`Histogram.quantile` over the shared
    cumulative buckets, the **backlog depth** (window commits produced
    but not yet durable at the newest observed instant), and run-long
    commit / failure-event counts.
    """
    commits: List[Dict[str, Any]] = []
    failures = 0
    now = 0.0
    for event in events:
        kind = event.get("type")
        if kind == CHECKPOINT_COMMITTED:
            commits.append(event)
        elif kind in FAILURE_EVENT_TYPES:
            failures += 1
        if event.get("sim_time") is not None:
            now = max(now, float(event["sim_time"]))
    commit_latency: List[float] = []
    flight: List[Tuple[float, float]] = []
    for event in commits[-SLO_WINDOW:]:
        commit_latency.append(
            float(event.get("device_seconds", 0.0) or 0.0)
            + float(event.get("blocked_seconds", 0.0) or 0.0)
        )
        produced = event.get("produced_at")
        persisted = event.get("persisted_at")
        if produced is not None and persisted is not None:
            flight.append((float(produced), float(persisted)))
            now = max(now, float(produced))
    return {
        "window": SLO_WINDOW,
        "commits": len(commits),
        "failures": failures,
        "now": now,
        "commit_latency": _quantiles(commit_latency),
        "flush_latency": _quantiles([max(0.0, q - p) for p, q in flight]),
        "backlog_depth": sum(1 for p, q in flight if p <= now < q),
    }


@dataclass
class RankRollup:
    """Everything the journal said about one (node, rank) emitter."""

    node: str
    rank: Optional[int]
    checkpoints: int = 0
    stored_bytes: int = 0
    full_bytes: int = 0
    #: Per-checkpoint dedup ratios, in merged (simulated-time) order —
    #: the trailing-window input for the health engine.
    dedup_ratios: List[float] = field(default_factory=list)
    #: Per-checkpoint flush backlog (persisted_at − produced_at), where known.
    backlog_seconds: List[float] = field(default_factory=list)
    blocked_seconds: float = 0.0
    device_seconds: float = 0.0
    retries: int = 0
    route_arounds: int = 0
    crashes: int = 0
    cold_restarts: int = 0
    lost_work_seconds: float = 0.0
    restores: int = 0
    restore_payload_bytes: int = 0
    restore_state_bytes: int = 0
    record_faults: int = 0
    #: This rank's ``checkpoint_committed`` and crash/restart events in
    #: merged order — the evidence the per-rank health rules attach.
    commit_events: List[Dict[str, Any]] = field(default_factory=list)
    crash_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def dedup_ratio(self) -> float:
        """Aggregate full/stored over every committed checkpoint."""
        if self.stored_bytes == 0:
            return float("inf") if self.full_bytes else 0.0
        return self.full_bytes / self.stored_bytes

    @property
    def restore_amplification(self) -> float:
        """Payload bytes gathered per byte of state restored (≥ 0)."""
        if self.restore_state_bytes == 0:
            return 0.0
        return self.restore_payload_bytes / self.restore_state_bytes

    @property
    def max_backlog_seconds(self) -> float:
        return max(self.backlog_seconds, default=0.0)


@dataclass
class FleetRollup:
    """Merged view over every rank's journal."""

    events: List[Dict[str, Any]]
    ranks: Dict[RankKey, RankRollup]
    tier_outages: List[Dict[str, Any]] = field(default_factory=list)
    #: Ingest accounting: distinct run ids in the stream (more than one
    #: means unrelated runs were conflated) and the damaged lines the
    #: loaders skipped (:class:`~repro.telemetry.events.LoadedJournal`).
    run_ids: List[str] = field(default_factory=list)
    skipped_lines: int = 0
    problems: List[str] = field(default_factory=list)

    @cached_property
    def liveness(self) -> Dict[RankKey, LivenessVerdict]:
        """Per-rank liveness as of the newest heartbeat/crash/restart."""
        return liveness_verdicts(self.events)

    @cached_property
    def slis(self) -> Dict[str, Any]:
        """Rolling-window SLIs at the end of the stream."""
        return window_slis(self.events)

    # -- fleet-wide ----------------------------------------------------
    @property
    def total_stored_bytes(self) -> int:
        return sum(r.stored_bytes for r in self.ranks.values())

    @property
    def total_full_bytes(self) -> int:
        return sum(r.full_bytes for r in self.ranks.values())

    @property
    def dedup_ratio(self) -> float:
        stored = self.total_stored_bytes
        if stored == 0:
            return float("inf") if self.total_full_bytes else 0.0
        return self.total_full_bytes / stored

    @property
    def total_checkpoints(self) -> int:
        return sum(r.checkpoints for r in self.ranks.values())

    @property
    def total_crashes(self) -> int:
        return sum(r.crashes for r in self.ranks.values())

    @property
    def total_lost_work_seconds(self) -> float:
        return sum(r.lost_work_seconds for r in self.ranks.values())

    @property
    def max_backlog_seconds(self) -> float:
        return max((r.max_backlog_seconds for r in self.ranks.values()), default=0.0)

    @property
    def restore_amplification(self) -> float:
        state = sum(r.restore_state_bytes for r in self.ranks.values())
        if state == 0:
            return 0.0
        return sum(r.restore_payload_bytes for r in self.ranks.values()) / state

    # -- per node ------------------------------------------------------
    def nodes(self) -> Dict[str, Dict[str, float]]:
        """Per-node sums of the additive rank fields (+ dedup ratio)."""
        out: Dict[str, Dict[str, float]] = {}
        for rollup in self.ranks.values():
            node = out.setdefault(
                rollup.node,
                {
                    "ranks": 0,
                    "checkpoints": 0,
                    "stored_bytes": 0,
                    "full_bytes": 0,
                    "blocked_seconds": 0.0,
                    "retries": 0,
                    "route_arounds": 0,
                    "crashes": 0,
                    "lost_work_seconds": 0.0,
                    "record_faults": 0,
                    "max_backlog_seconds": 0.0,
                },
            )
            node["ranks"] += 1
            node["checkpoints"] += rollup.checkpoints
            node["stored_bytes"] += rollup.stored_bytes
            node["full_bytes"] += rollup.full_bytes
            node["blocked_seconds"] += rollup.blocked_seconds
            node["retries"] += rollup.retries
            node["route_arounds"] += rollup.route_arounds
            node["crashes"] += rollup.crashes
            node["lost_work_seconds"] += rollup.lost_work_seconds
            node["record_faults"] += rollup.record_faults
            node["max_backlog_seconds"] = max(
                node["max_backlog_seconds"], rollup.max_backlog_seconds
            )
        for node in out.values():
            stored = node["stored_bytes"]
            node["dedup_ratio"] = (
                node["full_bytes"] / stored
                if stored
                else (float("inf") if node["full_bytes"] else 0.0)
            )
        return out

    def events_of(self, *types: str) -> List[Dict[str, Any]]:
        """Merged-order events filtered to the given types."""
        wanted = set(types)
        return [e for e in self.events if e.get("type") in wanted]

    def summary(self) -> Dict[str, Any]:
        """Flat fleet numbers (what the report's summary table shows)."""
        return {
            "events": len(self.events),
            "nodes": len({r.node for r in self.ranks.values()}),
            "ranks": len(self.ranks),
            "checkpoints": self.total_checkpoints,
            "stored_bytes": self.total_stored_bytes,
            "full_bytes": self.total_full_bytes,
            "dedup_ratio": self.dedup_ratio,
            "max_backlog_seconds": self.max_backlog_seconds,
            "crashes": self.total_crashes,
            "lost_work_seconds": self.total_lost_work_seconds,
            "restore_amplification": self.restore_amplification,
            "tier_outages": len(self.tier_outages),
            "record_faults": sum(r.record_faults for r in self.ranks.values()),
        }


def build_rollup(journals: Iterable) -> FleetRollup:
    """Merge journals into a :class:`FleetRollup`.

    *journals* may be a single record list, a single :class:`EventJournal`
    or :class:`LoadedJournal`, or an iterable of any of them.  Journals
    of different runs still merge — the rollup's ``run_ids`` names them
    and the ``journal_ingest`` health rule grades that critical.
    """
    if isinstance(journals, (EventJournal, LoadedJournal)):
        journals = [journals]
    else:
        journals = list(journals)
        # A bare record list (rather than a list of journals) is common.
        if journals and isinstance(journals[0], dict):
            journals = [journals]
    events = merge_journals(journals, allow_mixed_runs=True)
    skipped_lines = 0
    problems: List[str] = []
    for journal in journals:
        if isinstance(journal, LoadedJournal):
            skipped_lines += journal.skipped_lines
            where = f"{journal.path.name}: " if journal.path else ""
            problems.extend(where + problem for problem in journal.problems)

    ranks: Dict[RankKey, RankRollup] = {}
    tier_outages: List[Dict[str, Any]] = []

    def rank_of(event: Dict[str, Any]) -> RankRollup:
        key = (str(event.get("node", "")), event.get("rank"))
        if key not in ranks:
            ranks[key] = RankRollup(node=key[0], rank=key[1])
        return ranks[key]

    for event in events:
        kind = event.get("type")
        if kind == CHECKPOINT_COMMITTED:
            rollup = rank_of(event)
            rollup.commit_events.append(event)
            rollup.checkpoints += 1
            stored = int(event.get("stored_bytes", 0))
            full = int(event.get("full_bytes", 0))
            rollup.stored_bytes += stored
            rollup.full_bytes += full
            if stored:
                rollup.dedup_ratios.append(full / stored)
            produced = event.get("produced_at")
            persisted = event.get("persisted_at")
            if produced is not None and persisted is not None:
                rollup.backlog_seconds.append(max(0.0, persisted - produced))
            rollup.blocked_seconds += float(event.get("blocked_seconds", 0.0))
            rollup.device_seconds += float(event.get("device_seconds", 0.0))
        elif kind == FLUSH_RETRY:
            rank_of(event).retries += 1
        elif kind == FLUSH_ROUTE_AROUND:
            rank_of(event).route_arounds += 1
        elif kind == TIER_OUTAGE:
            tier_outages.append(event)
        elif kind == CRASH:
            rollup = rank_of(event)
            rollup.crash_events.append(event)
            rollup.crashes += 1
        elif kind == RESTART:
            rollup = rank_of(event)
            rollup.crash_events.append(event)
            rollup.lost_work_seconds += float(event.get("lost_work_seconds", 0.0))
            if event.get("cold"):
                rollup.cold_restarts += 1
        elif kind == RESTORE:
            rollup = rank_of(event)
            rollup.restores += 1
            rollup.restore_payload_bytes += int(event.get("payload_bytes", 0))
            rollup.restore_state_bytes += int(event.get("state_bytes", 0))
        elif kind == RECORD_FAULT:
            rank_of(event).record_faults += 1

    return FleetRollup(
        events=events,
        ranks=ranks,
        tier_outages=tier_outages,
        run_ids=journal_run_ids(events),
        skipped_lines=skipped_lines,
        problems=problems,
    )
