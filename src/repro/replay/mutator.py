"""Seedable incident mutations for the fuzzing campaign.

An :class:`IncidentMutator` perturbs an :class:`~repro.replay.driver.
IncidentSchedule` with one composable operator per call — reorder two
incidents within causal limits, amplify an outage, compound a fresh
outage with a crash, drop a recovery, shift a crash, or inject a stored-
record corruption.  Mutations respect the invariants that keep a run
drivable and gradable: outages stay on tiers the hierarchy survives,
crash times stay inside ``[0, horizon]``, and no process accumulates
more crashes than the crash-loop rule's evidence window holds (so every
injected crash provably appears in a finding's evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

import numpy as np

from ..faults.plan import (
    RECORD_FAULT_KINDS,
    CrashSpec,
    RecordFault,
    TierFaultSpec,
)
from .driver import SAFE_PERMANENT_TIERS, SAFE_TRANSIENT_TIERS, IncidentSchedule
from .timeline import RunConfig

#: Crash-loop findings cap their evidence at 10 events; each restarting
#: crash contributes a crash *and* a restart record, so 4 crashes per
#: process is the most that still guarantees every one is in evidence.
MAX_CRASHES_PER_PROCESS = 4

_SALT_MUTATOR = 0xF422


@dataclass(frozen=True)
class MutationRecord:
    """What one mutation did, for the campaign report."""

    operator: str
    detail: Dict[str, Any]


def _copy(schedule: IncidentSchedule) -> IncidentSchedule:
    return IncidentSchedule(
        tier_faults=list(schedule.tier_faults),
        crashes=list(schedule.crashes),
        record_faults=list(schedule.record_faults),
    )


class IncidentMutator:
    """Draws one seeded mutation per :meth:`mutate` call."""

    OPERATORS = (
        "reorder_incidents",
        "amplify_outage",
        "compound_fault",
        "drop_recovery",
        "shift_crash",
        "inject_corruption",
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng([self.seed, _SALT_MUTATOR])

    # -- operators (each returns (schedule, detail) or None if n/a) ----
    def _reorder_incidents(self, schedule, config):
        if len(schedule.tier_faults) >= 2:
            i, j = sorted(
                self._rng.choice(len(schedule.tier_faults), size=2, replace=False)
            )
            faults = list(schedule.tier_faults)
            a, b = faults[i], faults[j]
            faults[i] = replace(a, start=b.start)
            faults[j] = replace(b, start=a.start)
            out = _copy(schedule)
            out.tier_faults = faults
            return out, {"swapped": "tier_faults", "indices": [int(i), int(j)]}
        # Two crashes of *different* processes may swap times without
        # violating causality (no cross-process restore dependency).
        pairs = [
            (i, j)
            for i in range(len(schedule.crashes))
            for j in range(i + 1, len(schedule.crashes))
            if schedule.crashes[i].process != schedule.crashes[j].process
        ]
        if not pairs:
            return None
        i, j = pairs[int(self._rng.integers(0, len(pairs)))]
        crashes = list(schedule.crashes)
        a, b = crashes[i], crashes[j]
        crashes[i] = replace(a, at=b.at)
        crashes[j] = replace(b, at=a.at)
        out = _copy(schedule)
        out.crashes = crashes
        return out, {"swapped": "crashes", "indices": [int(i), int(j)]}

    def _amplify_outage(self, schedule, config):
        candidates = [
            i
            for i, f in enumerate(schedule.tier_faults)
            if f.kind == "transient"
        ]
        if not candidates:
            return None
        i = candidates[int(self._rng.integers(0, len(candidates)))]
        factor = float(self._rng.uniform(4.0, 12.0))
        fault = schedule.tier_faults[i]
        out = _copy(schedule)
        out.tier_faults[i] = replace(
            fault, duration=max(fault.duration, 0.1) * factor
        )
        return out, {"index": int(i), "tier": fault.tier, "factor": round(factor, 2)}

    def _compound_fault(self, schedule, config):
        horizon = config.horizon_seconds
        tier = str(
            SAFE_TRANSIENT_TIERS[
                int(self._rng.integers(0, len(SAFE_TRANSIENT_TIERS)))
            ]
        )
        permanent = bool(
            tier in SAFE_PERMANENT_TIERS and self._rng.random() < 0.25
        )
        start = float(self._rng.uniform(0.0, horizon * 0.8))
        outage = TierFaultSpec(
            tier=tier,
            kind="permanent" if permanent else "transient",
            start=start,
            duration=0.0 if permanent else float(self._rng.uniform(0.5, 3.0)),
        )
        out = _copy(schedule)
        out.tier_faults.append(outage)
        detail: Dict[str, Any] = {"tier": tier, "kind": outage.kind}
        process = self._pick_crashable_process(schedule, config)
        if process is not None:
            at = float(self._rng.uniform(start, min(horizon, start + horizon / 2)))
            out.crashes.append(CrashSpec(process=process, at=at))
            detail["crash_process"] = process
        return out, detail

    def _drop_recovery(self, schedule, config):
        candidates = [i for i, c in enumerate(schedule.crashes) if c.restart]
        if not candidates:
            return None
        i = candidates[int(self._rng.integers(0, len(candidates)))]
        out = _copy(schedule)
        out.crashes[i] = replace(out.crashes[i], restart=False)
        return out, {"index": int(i), "process": out.crashes[i].process}

    def _shift_crash(self, schedule, config):
        if not schedule.crashes:
            return None
        i = int(self._rng.integers(0, len(schedule.crashes)))
        horizon = config.horizon_seconds
        delta = float(self._rng.normal(0.0, config.period_seconds))
        crash = schedule.crashes[i]
        at = float(np.clip(crash.at + delta, 0.0, horizon))
        out = _copy(schedule)
        out.crashes[i] = replace(crash, at=at)
        return out, {"index": int(i), "from": round(crash.at, 4), "to": round(at, 4)}

    def _inject_corruption(self, schedule, config):
        kind = RECORD_FAULT_KINDS[
            int(self._rng.integers(0, len(RECORD_FAULT_KINDS)))
        ]
        fault = RecordFault(
            kind=kind,
            ckpt_index=int(self._rng.integers(0, max(1, config.steps))),
            offset_frac=float(self._rng.random()),
            bit=int(self._rng.integers(0, 8)),
        )
        out = _copy(schedule)
        out.record_faults.append(fault)
        return out, {"kind": kind, "ckpt_index": fault.ckpt_index}

    # ------------------------------------------------------------------
    def _pick_crashable_process(self, schedule, config):
        counts = {p: 0 for p in range(config.num_processes)}
        for crash in schedule.crashes:
            counts[crash.process % config.num_processes] = (
                counts.get(crash.process % config.num_processes, 0) + 1
            )
        open_procs = [
            p for p, n in sorted(counts.items()) if n < MAX_CRASHES_PER_PROCESS
        ]
        if not open_procs:
            return None
        return int(open_procs[int(self._rng.integers(0, len(open_procs)))])

    def mutate(
        self, schedule: IncidentSchedule, config: RunConfig
    ) -> Tuple[IncidentSchedule, MutationRecord]:
        """Apply one seeded operator; inapplicable draws fall through to
        the next operator so a mutation always happens."""
        order = list(self._rng.permutation(len(self.OPERATORS)))
        for pick in order:
            name = self.OPERATORS[int(pick)]
            result = getattr(self, f"_{name}")(schedule, config)
            if result is not None:
                mutated, detail = result
                return mutated, MutationRecord(operator=name, detail=detail)
        # Unreachable in practice: compound_fault and inject_corruption
        # always apply.  Kept as a hard failure rather than silence.
        raise RuntimeError("no mutation operator applied")
