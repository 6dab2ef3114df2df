"""Record a seeded incident run: the journal the replayer consumes.

:func:`make_schedule` draws an :class:`~repro.replay.driver.
IncidentSchedule` from the existing seeded :class:`~repro.faults.
FaultPlan` machinery (tier outages restricted to tiers the hierarchy can
survive), and :func:`record_run` drives it while journaling everything —
including the ``run_config`` event that makes the journal replayable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from ..faults.plan import FaultPlan
from .driver import (
    SAFE_PERMANENT_TIERS,
    SAFE_TRANSIENT_TIERS,
    DriveResult,
    IncidentSchedule,
    drive_run,
)
from .timeline import RunConfig

PathLike = Union[str, Path]


def make_schedule(
    config: RunConfig,
    faults_seed: int = 0,
    n_transient: int = 1,
    n_permanent: int = 0,
    n_crashes: int = 1,
    n_record_faults: int = 0,
    transient_duration: float = 1.0,
) -> IncidentSchedule:
    """Draw a deterministic incident schedule for *config* from one seed.

    Outages are drawn only on tiers the hierarchy survives: transient on
    the middle/terminal drains, permanent only on the middle tier (the
    route-around path).  Crashes land anywhere in the run's horizon.
    """
    plan = FaultPlan(faults_seed)
    horizon = config.horizon_seconds
    tier_faults = []
    if n_transient:
        tier_faults.extend(
            plan.plan_tier_faults(
                SAFE_TRANSIENT_TIERS,
                horizon,
                n_transient=n_transient,
                n_permanent=0,
                transient_duration=transient_duration,
            )
        )
    if n_permanent:
        tier_faults.extend(
            plan.plan_tier_faults(
                SAFE_PERMANENT_TIERS,
                horizon,
                n_transient=0,
                n_permanent=n_permanent,
            )
        )
    crashes = (
        plan.plan_crashes(config.num_processes, horizon, n_crashes=n_crashes)
        if n_crashes
        else []
    )
    record_faults = (
        plan.plan_record_faults(config.steps, n_faults=n_record_faults)
        if n_record_faults
        else []
    )
    return IncidentSchedule(
        tier_faults=tier_faults, crashes=crashes, record_faults=record_faults
    )


def record_run(
    config: RunConfig,
    schedule: IncidentSchedule,
    journal_path: Optional[PathLike] = None,
    run_id: Optional[str] = None,
    workdir: Optional[PathLike] = None,
) -> DriveResult:
    """Drive *schedule* under *config*, journaling a replayable record.

    ``run_id`` defaults to a deterministic name derived from the config
    seed, so per-rank shards of the same recording agree and different
    recordings never silently merge.
    """
    if run_id is None:
        run_id = f"record-{config.workload}-{config.seed}"
    return drive_run(
        config,
        schedule,
        journal_path=journal_path,
        run_id=run_id,
        workdir=workdir,
    )
