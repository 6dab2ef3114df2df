"""Journal-driven incident replay and fuzzing.

A recorded event journal (:mod:`repro.telemetry.events`) is not just an
audit trail — it is a complete description of *what happened* to a run:
the workload configuration, every injected tier outage, crash, and
record corruption, and every durable checkpoint with its payload digest.
This package closes the loop:

* :mod:`~repro.replay.timeline`  — parse a journal into a typed,
  merge-ordered :class:`IncidentTimeline` anchored on its ``run_config``
  event;
* :mod:`~repro.replay.driver`    — the deterministic run driver shared
  by recording and replay: drive a :class:`~repro.runtime.NodeRuntime`
  through a checkpoint cadence under an :class:`IncidentSchedule` and
  summarise the journal into a comparable :class:`RunOutcome`, through
  the fault campaign's own record-fault injector and grader
  (:mod:`repro.faults`) and ``NodeRuntime``'s one crash;
* :mod:`~repro.replay.recorder`  — record a fresh seeded incident run
  (:func:`record_run` / :func:`make_schedule`);
* :mod:`~repro.replay.replayer`  — :class:`JournalReplayer`: rebuild the
  schedule *from the journal* (not from the seed), re-drive the run, and
  assert equivalence — same durable-checkpoint set, bit-identical
  restored bytes, same graded health findings — emitting
  ``replay_divergence`` events for anything that differs;
* :mod:`~repro.replay.mutator`   — seedable composable incident
  mutations (reorder, amplify, compound, drop-recovery, shift-crash);
* :mod:`~repro.replay.fuzz`      — :func:`run_fuzz_campaign`: mutate,
  drive, and grade N incident streams, proving every injected failure is
  flagged by a health rule with the injection event in its evidence and
  that zero silent-wrong outcomes survive.

CLI: ``repro replay <journal>`` and ``repro fuzz --trials N --seed S``.
"""

from .timeline import Incident, IncidentTimeline, RunConfig, build_timeline
from .driver import (
    Divergence,
    DriveResult,
    IncidentSchedule,
    RunOutcome,
    compare_outcomes,
    drive_run,
    workload_states,
)
from .recorder import make_schedule, record_run
from .replayer import JournalReplayer, ReplayResult, schedule_from_timeline
from .mutator import IncidentMutator, MutationRecord
from .fuzz import FuzzReport, run_fuzz_campaign

__all__ = [
    "Divergence",
    "DriveResult",
    "FuzzReport",
    "Incident",
    "IncidentMutator",
    "IncidentSchedule",
    "IncidentTimeline",
    "JournalReplayer",
    "MutationRecord",
    "ReplayResult",
    "RunConfig",
    "RunOutcome",
    "build_timeline",
    "compare_outcomes",
    "drive_run",
    "make_schedule",
    "record_run",
    "run_fuzz_campaign",
    "schedule_from_timeline",
    "workload_states",
]
