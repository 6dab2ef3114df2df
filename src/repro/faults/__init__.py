"""Deterministic fault injection for the checkpointing system.

The paper's premise is that checkpoints let applications survive
failures; this package supplies the failures.  Everything is seeded and
deterministic so a fault campaign is replayable bit-for-bit:

* :mod:`~repro.faults.injectors` — primitive corruptions of one
  checkpoint's frame in a record's ``record.pack`` (a bit flip, a cut
  inside it, its extent zero-filled).
* :mod:`~repro.faults.plan` — :class:`FaultPlan`, a seedable schedule of
  record corruptions, storage-tier outages, and process crashes; the one
  record-fault injector (:func:`apply_record_faults`) and the one grader
  of a damaged record (:func:`grade_record_damage`), shared by the
  campaign runner used by ``benchmarks/bench_faults.py`` and the
  incident driver of :mod:`repro.replay`.

The taxonomy, detection guarantees, and recovery semantics are
documented in ``docs/FAULT_MODEL.md``.
"""

from .injectors import (
    AppliedFault,
    FrameExtent,
    delete_frame,
    flip_bit,
    record_frames,
    truncate_frame,
)
from .plan import (
    CrashSpec,
    FaultPlan,
    RecordFault,
    TierFaultSpec,
    apply_record_faults,
    grade_record_damage,
    run_record_campaign,
)

__all__ = [
    "AppliedFault",
    "FrameExtent",
    "delete_frame",
    "flip_bit",
    "record_frames",
    "truncate_frame",
    "CrashSpec",
    "FaultPlan",
    "RecordFault",
    "TierFaultSpec",
    "apply_record_faults",
    "grade_record_damage",
    "run_record_campaign",
]
