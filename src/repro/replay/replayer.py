"""Re-drive a recorded journal and assert equivalence.

:class:`JournalReplayer` rebuilds the incident schedule *from the
journal itself* — outage events, crash/restart pairs, record-fault
receipts — never from the seed that originally drew it.  A replay
therefore proves the journal is a faithful, sufficient description of
the run: if any knob the journal does not capture mattered, the replay
diverges and says so, as ``replay_divergence`` events the health engine
grades critical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import telemetry
from ..errors import FaultError, ReplayError
from ..telemetry import events
from ..telemetry.events import read_journal
from ..faults.plan import CrashSpec, RecordFault, TierFaultSpec
from ..runtime.node import TIER_NAMES
from .driver import (
    Divergence,
    IncidentSchedule,
    RunOutcome,
    compare_outcomes,
    drive_run,
)
from .timeline import Incident, IncidentTimeline, build_timeline

PathLike = Union[str, Path]


def schedule_from_timeline(timeline: IncidentTimeline) -> IncidentSchedule:
    """Reconstruct the incident schedule a recorded run experienced.

    * ``tier_outage`` events become :class:`TierFaultSpec`\\ s verbatim; a
      receipt naming a tier the node does not have, or a kind
      :class:`TierFaultSpec` refuses, raises :class:`ReplayError`.
    * ``crash`` events become :class:`CrashSpec`\\ s; each is paired with
      a ``restart`` event at the same ``(rank, sim_time)`` when one
      exists — a crash with no matching restart replays as a dropped
      recovery (``restart=False``).  A restart with no preceding crash
      means the journal is structurally inconsistent.
    * ``record_fault`` receipts become exact, name-addressed
      :class:`~repro.faults.RecordFault`\\ s pinned to the same frame,
      byte offset and bit; a receipt that cannot be pinned (an unknown
      kind, a non-integer offset or bit) raises :class:`ReplayError`.
    """
    tier_faults = [
        _tier_fault(i) for i in timeline.incidents_of(events.TIER_OUTAGE)
    ]

    restarts = Counter(
        (i.rank, i.sim_time) for i in timeline.incidents_of(events.RESTART)
    )
    crashes: List[CrashSpec] = []
    for incident in timeline.incidents_of(events.CRASH):
        key = (incident.rank, incident.sim_time)
        if restarts.get(key, 0) > 0:
            restarts[key] -= 1
            restart = True
        else:
            restart = False
        if incident.rank is None:
            raise ReplayError(
                f"crash event without a rank at t={incident.sim_time:g} "
                f"cannot be replayed"
            )
        crashes.append(
            CrashSpec(process=int(incident.rank), at=incident.sim_time, restart=restart)
        )
    orphans = sorted(k for k, v in restarts.items() if v > 0)
    if orphans:
        raise ReplayError(
            f"journal holds restart events with no matching crash: {orphans}"
        )

    record_faults = [
        _pinned_record_fault(i) for i in timeline.incidents_of(events.RECORD_FAULT)
    ]
    return IncidentSchedule(
        tier_faults=tier_faults, crashes=crashes, record_faults=record_faults
    )


def _tier_fault(incident: Incident) -> TierFaultSpec:
    """The outage a ``tier_outage`` receipt replays as.  A receipt naming
    a tier the node does not have, or that :class:`TierFaultSpec` refuses
    (an unknown kind), cannot be replayed."""
    receipt = incident.record
    where = f"tier_outage receipt at t={incident.sim_time:g}"
    tier = str(receipt.get("tier", ""))
    if tier not in TIER_NAMES:
        raise ReplayError(
            f"{where} names tier {tier!r}, not one of the node's {list(TIER_NAMES)}"
        )
    try:
        return TierFaultSpec(
            tier=tier,
            kind=str(receipt.get("kind", "transient")),
            start=incident.sim_time,
            duration=float(receipt.get("duration", 0.0) or 0.0),
        )
    except FaultError as exc:
        raise ReplayError(f"{where} cannot be replayed: {exc}") from exc


def _pinned_record_fault(incident: Incident) -> RecordFault:
    """The pinned fault a ``record_fault`` receipt replays as.  A receipt
    whose offset or bit is not an integer, or that :class:`RecordFault`
    refuses (an unknown kind), cannot be replayed."""
    receipt = incident.record
    where = f"record_fault receipt at t={incident.sim_time:g}"
    offset, bit = receipt.get("detail", 0), receipt.get("bit", 0) or 0
    if not isinstance(offset, int) or not isinstance(bit, int):
        raise ReplayError(
            f"{where} pins offset {offset!r} and bit {bit!r}: not integers"
        )
    try:
        return RecordFault(
            kind=str(receipt.get("kind", "bitflip")),
            frame=Path(str(receipt.get("path", ""))).name,
            offset=offset,
            bit=bit,
        )
    except FaultError as exc:
        raise ReplayError(f"{where} cannot be replayed: {exc}") from exc


@dataclass
class ReplayResult:
    """Outcome of replaying one recorded journal."""

    equivalent: bool
    divergences: List[Divergence]
    original: RunOutcome
    replay: RunOutcome
    run_id: Optional[str]
    replay_run_id: str
    golden_ok: bool
    #: Damaged journal lines skipped while loading the recording.
    skipped_lines: int = 0
    #: The replay run's full journal (replay_divergence events included).
    replay_records: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "equivalent": self.equivalent,
            "run_id": self.run_id,
            "replay_run_id": self.replay_run_id,
            "golden_ok": self.golden_ok,
            "skipped_lines": self.skipped_lines,
            "divergences": [d.as_dict() for d in self.divergences],
            "original": self.original.as_dict(),
            "replay": self.replay.as_dict(),
        }


class JournalReplayer:
    """Parse one recorded journal and re-drive it deterministically.

    *source* is a journal path (loaded leniently — a journal truncated
    by the crash it documents still replays, with ``skipped_lines``
    reported) or an in-memory record list.
    """

    def __init__(self, source: Union[PathLike, Sequence[Dict[str, Any]]]) -> None:
        if isinstance(source, (str, Path)):
            loaded = read_journal(source)
            self.records: List[Dict[str, Any]] = list(loaded)
            self.skipped_lines = loaded.skipped_lines
        else:
            self.records = list(source)
            self.skipped_lines = 0
        self.timeline = build_timeline(self.records)

    def replay(
        self,
        workdir: Optional[PathLike] = None,
        journal_path: Optional[PathLike] = None,
    ) -> ReplayResult:
        """Re-drive the recorded run and compare outcomes.

        Divergences are returned *and* emitted as ``replay_divergence``
        events into the replay journal, so the health engine grades a
        broken replay critical without any out-of-band plumbing.
        """
        timeline = self.timeline
        schedule = schedule_from_timeline(timeline)
        original = RunOutcome.from_records(timeline.records)
        replay_run_id = f"{timeline.run_id or 'run'}-replay"
        with telemetry.span(
            "replay.run",
            run_id=timeline.run_id,
            incidents=len(timeline.incidents),
        ):
            drive = drive_run(
                timeline.config,
                schedule,
                journal_path=journal_path,
                run_id=replay_run_id,
                workdir=workdir,
            )
        divergences = compare_outcomes(original, drive.outcome)
        replay_records = list(drive.records)
        if divergences:
            # journal_to appends when the path already holds the replay
            # journal, so divergence records land in the same stream.
            with events.journal_to(
                journal_path, node=timeline.config.node_name, run_id=replay_run_id
            ) as journal:
                for divergence in divergences:
                    events.emit(
                        events.REPLAY_DIVERGENCE,
                        sim_time=timeline.horizon_seconds,
                        replay_of=timeline.run_id,
                        kind=divergence.kind,
                        detail=divergence.detail,
                    )
                replay_records.extend(journal.records())
        return ReplayResult(
            equivalent=not divergences,
            divergences=divergences,
            original=original,
            replay=drive.outcome,
            run_id=timeline.run_id,
            replay_run_id=replay_run_id,
            golden_ok=drive.golden_ok,
            skipped_lines=self.skipped_lines,
            replay_records=replay_records,
        )
