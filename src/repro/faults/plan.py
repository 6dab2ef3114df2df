"""Seedable fault schedules and the record-corruption campaign runner.

A :class:`FaultPlan` turns one integer seed into a deterministic set of
faults across all three failure domains the runtime models:

* **record faults** — bit flips, truncations, and lost extents of the
  checkpoint frames in a record's ``record.pack``
  (:func:`apply_record_faults`), graded by :func:`grade_record_damage`;
* **tier faults** — transient and permanent drain outages of storage
  tiers (applied to :class:`~repro.runtime.storage.StorageTier`);
* **crashes** — process failures at chosen simulated times (driven
  through :meth:`~repro.runtime.node.NodeRuntime.crash_restart`).

Each planning method derives its randomness from ``(seed, domain salt,
per-domain call index)`` so plans are independent of the order the
methods are called in — the same seed always yields the same campaign —
while *repeated* calls to the same planner draw fresh, still-reproducible
faults instead of replaying the first batch (regression-tested under
call-order permutation in ``tests/faults/test_plan.py``).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import FaultError, ReproError
from .injectors import (
    AppliedFault,
    delete_frame,
    flip_bit,
    record_frames,
    truncate_frame,
)

PathLike = Union[str, Path]

RECORD_FAULT_KINDS = ("bitflip", "truncate", "delete")
TIER_FAULT_KINDS = ("transient", "permanent")

# Domain salts keep the per-domain RNG streams independent of call order.
_SALT_RECORD = 0x5EC0
_SALT_TIER = 0x71E5
_SALT_CRASH = 0xC5A5


@dataclass(frozen=True)
class RecordFault:
    """One corruption of a stored checkpoint frame: drawn (by chain
    position and fractional offset) or pinned (the checkpoint and in-frame
    offset of a journal's ``record_fault`` receipt).  An unknown *kind*
    is refused here, before any injector sees it."""

    kind: str  # one of RECORD_FAULT_KINDS
    ckpt_index: int = 0
    #: Fractional position inside the frame; resolved to a byte offset
    #: (bitflip) or a kept length (truncate) against the bytes of it the
    #: pack holds.
    offset_frac: float = 0.0
    bit: int = 0
    #: Exact checkpoint whose frame is hit; ``None`` resolves by
    #: ``ckpt_index``.
    ckpt: Optional[int] = None
    #: Exact in-frame byte offset / kept length; ``None`` uses
    #: ``offset_frac``.
    offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in RECORD_FAULT_KINDS:
            raise FaultError(f"unknown record fault kind {self.kind!r}")


@dataclass(frozen=True)
class TierFaultSpec:
    """One planned storage-tier outage on the simulated clock.  An
    unknown *kind* is refused here, before any tier sees it."""

    tier: str
    kind: str  # one of TIER_FAULT_KINDS
    start: float
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TIER_FAULT_KINDS:
            raise FaultError(f"unknown tier fault kind {self.kind!r}")


@dataclass(frozen=True)
class CrashSpec:
    """One planned process crash at a simulated time.

    ``restart=False`` models a *dropped recovery*: the process crashes
    and never comes back (no restart event) — the replay driver keeps it
    dead for the rest of the run.  Planned crashes always restart; the
    flag exists for the incident mutator's drop-recovery operator.
    """

    process: int
    at: float
    restart: bool = True


class FaultPlan:
    """Deterministic fault schedule derived from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        #: Receipts of every fault this plan has applied, in order.
        self.applied: List[AppliedFault] = []
        #: Per-domain draw counters: the k-th call to a planner salts its
        #: stream with k, so repeated calls draw fresh faults while call
        #: order across domains stays irrelevant.
        self._draws: Dict[int, int] = {}

    def _rng(self, salt: int) -> np.random.Generator:
        call = self._draws.get(salt, 0)
        self._draws[salt] = call + 1
        # The first draw of each domain keeps the historical (seed, salt)
        # stream so existing seeded campaigns reproduce byte-for-byte.
        key = [self.seed, salt] if call == 0 else [self.seed, salt, call]
        return np.random.default_rng(key)

    # ------------------------------------------------------------------
    # Record (on-disk) faults
    # ------------------------------------------------------------------
    def plan_record_faults(
        self,
        num_checkpoints: int,
        n_faults: int = 1,
        kinds: Sequence[str] = RECORD_FAULT_KINDS,
    ) -> List[RecordFault]:
        """Draw *n_faults* frame corruptions over a chain of
        *num_checkpoints* checkpoints."""
        if num_checkpoints <= 0:
            raise FaultError("cannot plan faults for an empty record")
        for kind in kinds:
            if kind not in RECORD_FAULT_KINDS:
                raise FaultError(f"unknown record fault kind {kind!r}")
        rng = self._rng(_SALT_RECORD)
        faults = []
        for _ in range(n_faults):
            faults.append(
                RecordFault(
                    kind=str(rng.choice(list(kinds))),
                    ckpt_index=int(rng.integers(0, num_checkpoints)),
                    offset_frac=float(rng.random()),
                    bit=int(rng.integers(0, 8)),
                )
            )
        return faults

    def apply_record_faults(
        self, record_dir: PathLike, faults: Sequence[RecordFault]
    ) -> List[AppliedFault]:
        """:func:`apply_record_faults`, keeping the receipts in :attr:`applied`."""
        receipts = apply_record_faults(record_dir, faults)
        self.applied.extend(receipts)
        return receipts

    # ------------------------------------------------------------------
    # Storage-tier faults
    # ------------------------------------------------------------------
    def plan_tier_faults(
        self,
        tier_names: Sequence[str],
        horizon_seconds: float,
        n_transient: int = 1,
        n_permanent: int = 0,
        transient_duration: float = 1.0,
    ) -> List[TierFaultSpec]:
        """Draw tier outages inside ``[0, horizon_seconds)``."""
        if not tier_names:
            raise FaultError("cannot plan tier faults without tiers")
        if horizon_seconds <= 0:
            raise FaultError("fault horizon must be positive")
        rng = self._rng(_SALT_TIER)
        specs = []
        for _ in range(n_transient):
            specs.append(
                TierFaultSpec(
                    tier=str(rng.choice(list(tier_names))),
                    kind="transient",
                    start=float(rng.random() * horizon_seconds),
                    duration=transient_duration,
                )
            )
        for _ in range(n_permanent):
            specs.append(
                TierFaultSpec(
                    tier=str(rng.choice(list(tier_names))),
                    kind="permanent",
                    start=float(rng.random() * horizon_seconds),
                )
            )
        return specs

    @staticmethod
    def apply_tier_faults(tiers: Sequence, specs: Sequence[TierFaultSpec]) -> None:
        """Install planned outages on matching
        :class:`~repro.runtime.storage.StorageTier` objects."""
        by_name = {t.name: t for t in tiers}
        for spec in specs:
            tier = by_name.get(spec.tier)
            if tier is None:
                raise FaultError(f"no tier named {spec.tier!r} to fault")
            if spec.kind == "transient":
                tier.fail_transient(spec.start, spec.duration)
            else:  # "permanent": TierFaultSpec refuses every other kind
                tier.fail_permanent(spec.start)

    # ------------------------------------------------------------------
    # Process crashes
    # ------------------------------------------------------------------
    def plan_crashes(
        self,
        num_processes: int,
        horizon_seconds: float,
        n_crashes: int = 1,
    ) -> List[CrashSpec]:
        """Draw crash times for a node of *num_processes* processes."""
        if num_processes <= 0:
            raise FaultError("cannot plan crashes without processes")
        if horizon_seconds <= 0:
            raise FaultError("crash horizon must be positive")
        rng = self._rng(_SALT_CRASH)
        return [
            CrashSpec(
                process=int(rng.integers(0, num_processes)),
                at=float(rng.random() * horizon_seconds),
            )
            for _ in range(n_crashes)
        ]


def apply_record_faults(
    record_dir: PathLike, faults: Sequence[RecordFault]
) -> List[AppliedFault]:
    """Inflict record faults on a record directory, in order.

    Each fault hits its pinned checkpoint's frame, or else frame
    ``ckpt_index`` modulo the frames the pack still holds bytes of; at its
    pinned in-frame offset, or else at ``offset_frac`` of those bytes.
    Only the frames the record log seals are targets.  Application stops
    at the first fault that has become impossible (the pack cut before
    every frame, or before the pinned one): only applied faults return
    receipts and journal ``record_fault`` events, so a replay re-applies
    exactly the same prefix.  A pinned checkpoint the record log does not
    hold raises :class:`~repro.errors.FaultError`.
    """
    receipts = []
    for fault in faults:
        try:
            frames = record_frames(record_dir)
        except FaultError:
            break
        if fault.ckpt is None:
            held = [frame for frame in frames if frame.held]
            target = held[fault.ckpt_index % len(held)]
        elif 0 <= fault.ckpt < len(frames):
            target = frames[fault.ckpt]
        else:
            raise FaultError(
                f"record fault targets checkpoint {fault.ckpt}, which "
                f"{record_dir} does not hold"
            )
        offset = (
            fault.offset
            if fault.offset is not None
            else min(int(fault.offset_frac * target.held), max(target.held - 1, 0))
        )
        try:
            if fault.kind == "bitflip":
                receipts.append(flip_bit(record_dir, target.ckpt, offset, fault.bit))
            elif fault.kind == "truncate":
                receipts.append(truncate_frame(record_dir, target.ckpt, offset))
            else:  # "delete": RecordFault refuses every other kind
                receipts.append(delete_frame(record_dir, target.ckpt))
        except FaultError:
            break
    return receipts


def grade_record_damage(
    record_dir: PathLike, golden_states: Sequence[np.ndarray]
) -> Tuple[bool, str, int]:
    """Grade what a (possibly damaged) record still restores.

    The record is scanned (`verify_record`), and every checkpoint *k* of
    *golden_states* (the truth for each checkpoint of the chain) is
    restored the way ``repro restore`` does it (`restore_record_indexed`);
    a :class:`~repro.errors.ReproError` marks *k* unrestorable.  The
    checkpoints that restore are the *restorable set*: a checkpoint
    restores iff its keyframe span and the frames its row names verify,
    so damage to one frame spares every checkpoint whose row does not
    name it.  Returns ``(detected, label, restorable)``, *restorable*
    being the size of that set:

    * ``recovered``     — the scan flagged the damage and every restored
      checkpoint is bit-identical;
    * ``detected``      — flagged, but a restored checkpoint diverges;
    * ``harmless``      — undetected, and every checkpoint restores
      bit-identically (provably no damage to content);
    * ``silent_wrong``  — undetected AND a checkpoint is wrong or does
      not restore: the failure mode this subsystem exists to eliminate.
    """
    from ..core.provenance import restore_record_indexed
    from ..core.store import verify_record

    detected = not verify_record(record_dir).ok
    restorable = 0
    restored_ok = True
    for k, golden in enumerate(golden_states):
        try:
            state, _ = restore_record_indexed(record_dir, k)
        except ReproError:
            continue
        restorable += 1
        restored_ok = restored_ok and np.array_equal(state, golden)
    if detected:
        return True, "recovered" if restored_ok else "detected", restorable
    if restorable == len(golden_states) and restored_ok:
        return False, "harmless", restorable
    return False, "silent_wrong", restorable


def run_record_campaign(
    record_dir: PathLike,
    golden_states: Sequence[np.ndarray],
    workdir: PathLike,
    trials: int = 30,
    kinds: Sequence[str] = RECORD_FAULT_KINDS,
    seed: int = 0,
) -> Dict[str, dict]:
    """Corrupt copies of a record *trials* times and grade the defences.

    For each trial a fresh copy of *record_dir* receives one seeded
    fault and is graded by :func:`grade_record_damage`.  Per fault kind
    the counters tally the labels: ``detected`` counts every trial the
    scan flagged (``recovered`` plus ``detected`` labels), ``recovered``,
    ``harmless`` and ``silent_wrong`` count their own label, and
    ``restorable`` sums the checkpoints each damaged copy still restored.

    Returns ``{kind: counters}`` plus a ``"total"`` roll-up; everything
    is plain ints/floats so the result is JSON-serialisable.
    """

    def _bucket() -> dict:
        return {
            "trials": 0,
            "detected": 0,
            "recovered": 0,
            "harmless": 0,
            "silent_wrong": 0,
            "restorable": 0,
        }

    results: Dict[str, dict] = {kind: _bucket() for kind in kinds}
    results["total"] = _bucket()

    base = Path(workdir)
    base.mkdir(parents=True, exist_ok=True)
    for trial in range(trials):
        plan = FaultPlan(seed * 1_000_003 + trial)
        faults = plan.plan_record_faults(len(golden_states), n_faults=1, kinds=kinds)
        trial_dir = base / f"trial-{trial:04d}"
        if trial_dir.exists():
            shutil.rmtree(trial_dir)
        shutil.copytree(record_dir, trial_dir)
        plan.apply_record_faults(trial_dir, faults)
        detected, label, restorable = grade_record_damage(trial_dir, golden_states)

        for bucket in (results[faults[0].kind], results["total"]):
            bucket["trials"] += 1
            bucket["detected"] += int(detected)
            bucket["restorable"] += restorable
            if label != "detected":
                bucket[label] += 1

    for bucket in results.values():
        n = bucket["trials"]
        bucket["detection_rate"] = bucket["detected"] / n if n else 0.0
        bucket["recovery_rate"] = bucket["recovered"] / n if n else 0.0
    return results
