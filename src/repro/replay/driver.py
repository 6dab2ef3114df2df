"""The deterministic incident-run driver shared by recording and replay.

:func:`drive_run` drives one :class:`~repro.runtime.NodeRuntime` through
a fixed checkpoint cadence while an :class:`IncidentSchedule` injects
tier outages, process crashes, and stored-record corruptions — exactly
the fault surface the existing :class:`~repro.faults.FaultPlan` and
injector machinery model.  Everything the driver does is a pure function
of ``(RunConfig, IncidentSchedule)``: workload bytes are stateless in
``(seed, rank, step)``, the flush hierarchy is an event-driven
simulation, and no wall-clock value ever feeds a decision.  Recording a
run and replaying its journal therefore execute the *same* code path —
the only difference is where the schedule came from (a seed vs the
journal itself).

:class:`RunOutcome` condenses a journal into the equivalence components
replay asserts on: the durable-checkpoint set (with payload digests, so
bit-identical content is proven, not assumed), the final restored-state
digests per rank, the graded health findings, and per-type event counts.
:func:`compare_outcomes` diffs two outcomes into typed
:class:`Divergence` records.
"""

from __future__ import annotations

import hashlib
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ReplayError
from ..faults.plan import (
    CrashSpec,
    FaultPlan,
    RecordFault,
    TierFaultSpec,
    apply_record_faults,
    grade_record_damage,
)
from ..telemetry import events
from ..telemetry.health import evaluate_health
from .timeline import RunConfig

PathLike = Union[str, Path]

#: Tiers an injected outage may target without making the run
#: un-drivable: the host tier must stay alive (a dead host refuses
#: submission outright) and the terminal tier must never die permanently
#: (nothing downstream to route around to).
SAFE_TRANSIENT_TIERS = ("ssd", "pfs")
SAFE_PERMANENT_TIERS = ("ssd",)


@dataclass
class IncidentSchedule:
    """Every fault one run will experience, on the simulated clock.

    Its :class:`~repro.faults.RecordFault`\\ s hit process 0's record
    after the cadence: drawn when recorded, pinned to the checkpoints and
    in-frame offsets the journal's ``record_fault`` receipts name when
    replayed.
    """

    tier_faults: List[TierFaultSpec] = field(default_factory=list)
    crashes: List[CrashSpec] = field(default_factory=list)
    record_faults: List[RecordFault] = field(default_factory=list)

    def summary(self) -> Dict[str, int]:
        return {
            "tier_faults": len(self.tier_faults),
            "crashes": len(self.crashes),
            "record_faults": len(self.record_faults),
        }


# ----------------------------------------------------------------------
# Workload bytes: stateless in (seed, rank, step)
# ----------------------------------------------------------------------
def workload_states(config: RunConfig) -> List[List[np.ndarray]]:
    """``states[step][rank]``: the exact buffer each rank checkpoints.

    Synthetic: a seeded base buffer per rank with one seeded block
    rewritten per step — each state is a pure function of ``(seed, rank,
    step)``, so recording and replay regenerate identical bytes.
    ORANGES: rank *r* runs the named graph workload seeded ``seed + r``
    and checkpoints its GDV buffer at ``steps`` evenly spaced points.
    """
    if config.workload == "synthetic":
        bases = [
            np.random.default_rng([config.seed, r]).integers(
                0, 256, config.data_len, dtype=np.uint8
            )
            for r in range(config.num_processes)
        ]
        states: List[List[np.ndarray]] = []
        for step in range(config.steps):
            row = []
            for r in range(config.num_processes):
                buf = bases[r].copy()
                if step > 0:
                    rng = np.random.default_rng([config.seed, r, step])
                    block = min(config.block_bytes, max(1, buf.size // 4))
                    at = int(rng.integers(0, max(1, buf.size - block)))
                    buf[at : at + block] = rng.integers(
                        0, 256, block, dtype=np.uint8
                    )
                row.append(buf)
            states.append(row)
        return states

    from ..oranges import OrangesApp

    per_rank: List[List[np.ndarray]] = []
    for r in range(config.num_processes):
        app = OrangesApp(
            config.workload, num_vertices=config.num_vertices, seed=config.seed + r
        )
        engine = app.fresh_engine()
        per_rank.append(
            [
                snap.reshape(-1).view(np.uint8).copy()
                for snap in engine.checkpoint_stream(config.steps)
            ]
        )
    sizes = {snaps[0].size for snaps in per_rank}
    if len(sizes) != 1:
        raise ReplayError(
            f"ORANGES ranks produced unequal buffer sizes {sorted(sizes)}; "
            f"a node runtime needs homogeneous processes"
        )
    return [
        [per_rank[r][step] for r in range(config.num_processes)]
        for step in range(config.steps)
    ]


# ----------------------------------------------------------------------
# Outcomes and divergences
# ----------------------------------------------------------------------
def _rank_key(value: Any) -> int:
    return int(value) if value is not None else -1


@dataclass
class RunOutcome:
    """The equivalence components of one run, extracted from its journal.

    All fields are derived from *journal records only*, so the outcome of
    a recorded run (parsed from disk, surviving a JSON round trip) and of
    an in-memory replay compare exactly.  Wall-clock times and on-disk
    paths never participate.
    """

    run_id: Optional[str]
    horizon_seconds: float
    #: Sorted ``(node, rank, ckpt_id, produced_at, payload_sha256)`` for
    #: every checkpoint durable by the horizon.
    durable: List[Tuple[str, int, int, float, str]]
    #: Sorted ``(node, rank, target_ckpt, state_sha256)`` from the final
    #: per-rank restores (``target_ckpt == -1``: nothing was durable).
    final_states: List[Tuple[str, int, int, str]]
    #: Sorted ``(rule, severity, node, rank)`` graded health findings.
    findings: List[Tuple[str, str, str, int]]
    #: Per-type event counts (``run_config`` / ``replay_divergence``
    #: excluded — they describe the harness, not the run).
    event_counts: Dict[str, int]

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]]) -> "RunOutcome":
        from ..telemetry.events import journal_run_ids

        run_ids = journal_run_ids(records)
        horizon: Optional[float] = None
        for record in records:
            if record.get("type") == events.RUN_CONFIG and "horizon" in record:
                horizon = float(record["horizon"])
                break
        if horizon is None:
            horizon = max(
                (float(r["sim_time"]) for r in records if r.get("sim_time") is not None),
                default=0.0,
            )

        durable = sorted(
            (
                str(r.get("node", "")),
                _rank_key(r.get("rank")),
                int(r.get("ckpt_id", -1)),
                float(r.get("produced_at", 0.0)),
                str(r.get("payload_sha256")),
            )
            for r in records
            if r.get("type") == events.CHECKPOINT_COMMITTED
            and float(r.get("persisted_at", float("inf"))) <= horizon
        )
        final_states = sorted(
            (
                str(r.get("node", "")),
                _rank_key(r.get("rank")),
                int(r.get("target_ckpt", -1)),
                str(r.get("state_sha256")),
            )
            for r in records
            if r.get("type") == events.RESTORE and r.get("path") == "final"
        )
        graded = [r for r in records if r.get("type") != events.REPLAY_DIVERGENCE]
        health = evaluate_health(graded)
        findings = sorted(
            (f.rule, f.severity, str(f.node or ""), _rank_key(f.rank))
            for f in health.findings
        )
        counts = Counter(
            str(r.get("type"))
            for r in records
            if r.get("type")
            not in (events.RUN_CONFIG, events.REPLAY_DIVERGENCE)
        )
        return cls(
            run_id=run_ids[0] if len(run_ids) == 1 else None,
            horizon_seconds=horizon,
            durable=durable,
            final_states=final_states,
            findings=findings,
            event_counts=dict(sorted(counts.items())),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "horizon_seconds": self.horizon_seconds,
            "durable_checkpoints": len(self.durable),
            "final_states": [list(t) for t in self.final_states],
            "findings": [list(t) for t in self.findings],
            "event_counts": self.event_counts,
        }


@dataclass(frozen=True)
class Divergence:
    """One equivalence component that differs between two runs."""

    kind: str  # "durable_set" | "final_state" | "health_findings" | "event_counts"
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "detail": self.detail}


def _multiset_diff(a: Sequence, b: Sequence) -> Tuple[List, List]:
    ca, cb = Counter(a), Counter(b)
    only_a = sorted((ca - cb).elements())
    only_b = sorted((cb - ca).elements())
    return only_a, only_b


def compare_outcomes(original: RunOutcome, replay: RunOutcome) -> List[Divergence]:
    """Diff two outcomes; an empty list means the runs are equivalent."""
    divergences: List[Divergence] = []
    if original.durable != replay.durable:
        only_o, only_r = _multiset_diff(original.durable, replay.durable)
        sample = (only_o + only_r)[:3]
        divergences.append(
            Divergence(
                "durable_set",
                f"{len(only_o)} durable checkpoint(s) only in recording, "
                f"{len(only_r)} only in replay; e.g. {sample}",
            )
        )
    if original.final_states != replay.final_states:
        only_o, only_r = _multiset_diff(original.final_states, replay.final_states)
        divergences.append(
            Divergence(
                "final_state",
                f"restored-state digests differ: recording={only_o[:3]} "
                f"replay={only_r[:3]}",
            )
        )
    if original.findings != replay.findings:
        only_o, only_r = _multiset_diff(original.findings, replay.findings)
        divergences.append(
            Divergence(
                "health_findings",
                f"findings only in recording: {only_o[:5]}; "
                f"only in replay: {only_r[:5]}",
            )
        )
    if original.event_counts != replay.event_counts:
        keys = sorted(
            set(original.event_counts) | set(replay.event_counts)
        )
        diffs = {
            k: (original.event_counts.get(k, 0), replay.event_counts.get(k, 0))
            for k in keys
            if original.event_counts.get(k, 0) != replay.event_counts.get(k, 0)
        }
        divergences.append(
            Divergence(
                "event_counts",
                f"per-type event counts differ (recording, replay): {diffs}",
            )
        )
    return divergences


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
@dataclass
class DriveResult:
    """Everything one driven run produced."""

    records: List[Dict[str, Any]]
    outcome: RunOutcome
    #: The exact journal records emitted *by the injections themselves*
    #: (tier outage / crash / record fault receipts) — the fuzzer asserts
    #: each of these appears in some health finding's evidence.
    injected: List[Dict[str, Any]]
    golden_ok: bool
    golden_failures: List[str]
    record_leg: Optional[Dict[str, Any]]
    journal_path: Optional[Path]


def drive_run(
    config: RunConfig,
    schedule: IncidentSchedule,
    journal_path: Optional[PathLike] = None,
    run_id: Optional[str] = None,
    workdir: Optional[PathLike] = None,
    on_step=None,
) -> DriveResult:
    """Drive one node through *config*'s cadence under *schedule*.

    The run journals everything (to *journal_path*, or in memory), checks
    every restore against the independently regenerated workload bytes
    (``golden_ok``), and returns the journal plus its condensed
    :class:`RunOutcome`.  *workdir* is required when the schedule carries
    record faults (the stored record to corrupt has to live somewhere).

    *on_step*, when given, is called as ``on_step(step, now)`` after each
    cadence round's checkpoints land.  It exists for live-monitoring
    harnesses that need to observe the journal *mid-run* (e.g. block the
    driving thread until a monitor has polled); it must not mutate run
    state — the driven run stays a pure function of ``(config,
    schedule)``.
    """
    from ..core.provenance import materialize_index, resolve_source
    from ..runtime.node import NodeRuntime, restore_newest

    if schedule.record_faults and workdir is None:
        raise ReplayError("record faults need a workdir to corrupt a record in")
    states = workload_states(config)
    data_len = int(states[0][0].size)

    golden_failures: List[str] = []
    injected: List[Dict[str, Any]] = []
    record_leg: Optional[Dict[str, Any]] = None

    with events.journal_to(
        journal_path, node=config.node_name, run_id=run_id
    ) as journal:
        events.emit(
            events.RUN_CONFIG,
            sim_time=0.0,
            config=config.to_payload(),
            horizon=config.horizon_seconds,
        )
        # With record faults scheduled the run records incrementally:
        # every durable checkpoint is appended to the on-disk record the
        # moment its flush completes (RecordWriter, O(1) per append),
        # instead of rewriting the whole chain at the end of the run.
        record_root = (
            Path(workdir) / "records" if schedule.record_faults else None
        )
        if record_root is not None and record_root.exists():
            # The record is an output of *this* run; a reused workdir
            # must not leave the writer adopting a stale (possibly
            # already-corrupted) record from a previous run.
            shutil.rmtree(record_root)
        node = NodeRuntime(
            data_len=data_len,
            chunk_size=config.chunk_size,
            method=config.method,
            num_processes=config.num_processes,
            name=config.node_name,
            record_root=record_root,
            heartbeat_interval=config.period_seconds,
        )
        mark = len(journal)
        FaultPlan.apply_tier_faults(node.pipeline.tiers, schedule.tier_faults)
        injected.extend(journal.records()[mark:])

        #: Golden states per rank since its engine's chain (re)started;
        #: index i is the truth for that chain's checkpoint id i.
        snapshots: List[List[np.ndarray]] = [
            [] for _ in range(config.num_processes)
        ]
        alive = set(range(config.num_processes))

        def apply_crash(spec: CrashSpec) -> None:
            p = spec.process % config.num_processes
            if p not in alive:
                return
            at = float(spec.at)
            crash_mark = len(journal)
            if spec.restart:
                report = node.crash_restart(p, at)
                if report.restored_ckpt_id is not None:
                    if report.restored_ckpt_id >= len(snapshots[p]):
                        golden_failures.append(
                            f"p{p} restored ckpt {report.restored_ckpt_id} "
                            f"beyond golden chain of {len(snapshots[p])}"
                        )
                    elif not np.array_equal(
                        report.restored_state,
                        snapshots[p][report.restored_ckpt_id],
                    ):
                        golden_failures.append(
                            f"p{p} restart at t={at:g} restored bytes differ "
                            f"from golden checkpoint {report.restored_ckpt_id}"
                        )
                    snapshots[p] = [report.restored_state.copy()]
                else:
                    snapshots[p] = []
            else:
                # Dropped recovery: the crash happens, nobody restarts it.
                node.crash(p, at)
                alive.discard(p)
            for rec in journal.records()[crash_mark:]:
                if rec["type"] == events.CRASH:
                    injected.append(rec)

        pending = sorted(schedule.crashes, key=lambda c: (c.at, c.process))
        for step in range(config.steps):
            now = step * config.period_seconds
            while pending and pending[0].at <= now:
                apply_crash(pending.pop(0))
            node.checkpoint_all(states[step], now, processes=sorted(alive))
            for p in alive:
                snapshots[p].append(states[step][p].copy())
            if on_step is not None:
                on_step(step, now)
        horizon = config.horizon_seconds
        while pending and pending[0].at <= horizon:
            apply_crash(pending.pop(0))

        # ---- record-corruption leg (process 0's stored chain) --------
        if schedule.record_faults:
            if not node.persisted[0]:
                record_leg = {"applied": 0, "outcome": "no_record"}
            else:
                # The record was written append-by-append during the
                # cadence; the fault leg corrupts it in place.
                record_dir = node.record_path(0)
                fault_mark = len(journal)
                receipts = apply_record_faults(record_dir, schedule.record_faults)
                injected.extend(journal.records()[fault_mark:])
                detected, outcome, restorable = grade_record_damage(
                    record_dir, snapshots[0]
                )
                if outcome == "silent_wrong":
                    golden_failures.append(
                        "record-fault leg restored wrong bytes undetected"
                    )
                record_leg = {
                    "applied": len(receipts),
                    "detected": detected,
                    "outcome": outcome,
                    "restorable": restorable,
                }

        # ---- final restore per rank: prove durable bytes -------------
        # From each rank's record, as a restart would: its newest durable
        # checkpoint the record restores.  Nothing durable (or nothing
        # restorable) restores the empty state (target -1).
        for p in range(config.num_processes):
            store = node.checkpointers[p].record.writer.store
            entry, state, _ = restore_newest(
                node.durable_chain(p, horizon),
                lambda k: materialize_index(*resolve_source(store, k)[:2]),
            )
            target = -1
            if entry is None:
                state = np.zeros(0, dtype=np.uint8)
            else:
                target = entry.ckpt_id
                if target < len(snapshots[p]) and not np.array_equal(
                    state, snapshots[p][target]
                ):
                    golden_failures.append(
                        f"final restore of p{p} checkpoint {target} "
                        f"differs from golden workload bytes"
                    )
            events.emit(
                events.RESTORE,
                sim_time=horizon,
                node=node.name,
                rank=p,
                path="final",
                target_ckpt=target,
                state_bytes=int(state.nbytes),
                state_sha256=hashlib.sha256(state.tobytes()).hexdigest(),
            )
        records = journal.records()

    return DriveResult(
        records=records,
        outcome=RunOutcome.from_records(records),
        injected=injected,
        golden_ok=not golden_failures,
        golden_failures=golden_failures,
        record_leg=record_leg,
        journal_path=Path(journal_path) if journal_path is not None else None,
    )
