"""Typed incident timelines parsed from recorded event journals.

A journal is replayable when it carries exactly one run's records (one
``run_id``, or legacy records with none) and a ``run_config`` event that
names the workload and cadence the run was driven with.
:func:`build_timeline` validates both and returns an
:class:`IncidentTimeline`: the merge-ordered records, the parsed
:class:`RunConfig`, and the incident events (everything that is not
normal checkpoint progress) as typed :class:`Incident` views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ReplayError
from ..telemetry import events
from ..telemetry.events import journal_run_ids, merge_key

#: Event types that describe *incidents* — things done to the run —
#: rather than the run's own progress records.
INCIDENT_TYPES = frozenset(
    {
        events.TIER_OUTAGE,
        events.CRASH,
        events.RESTART,
        events.RECORD_FAULT,
    }
)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to re-derive a run's workload and cadence.

    ``workload="synthetic"`` is a seeded random buffer per rank with one
    seeded block mutation per cadence step — stateless in ``(seed, rank,
    step)`` so a replay regenerates the exact bytes without replaying
    the producer.  Any other value names an ORANGES graph workload
    (:data:`repro.graphs.GRAPH_GENERATORS`); rank *r* runs the graph
    seeded with ``seed + r`` and checkpoints its GDV buffer at
    ``steps`` evenly spaced points.
    """

    workload: str = "synthetic"
    data_len: int = 16384
    chunk_size: int = 64
    method: str = "tree"
    num_processes: int = 2
    steps: int = 5
    period_seconds: float = 10.0
    seed: int = 0
    node_name: str = "node0"
    #: ORANGES graph size (ignored for the synthetic workload).
    num_vertices: int = 128
    #: Synthetic workload: bytes mutated per step (ignored for ORANGES).
    block_bytes: int = 512

    @property
    def horizon_seconds(self) -> float:
        """End of the simulated run: the last cadence slot's close."""
        return self.steps * self.period_seconds

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict for the ``run_config`` journal event."""
        return {
            "workload": self.workload,
            "data_len": int(self.data_len),
            "chunk_size": int(self.chunk_size),
            "method": self.method,
            "num_processes": int(self.num_processes),
            "steps": int(self.steps),
            "period_seconds": float(self.period_seconds),
            "seed": int(self.seed),
            "node_name": self.node_name,
            "num_vertices": int(self.num_vertices),
            "block_bytes": int(self.block_bytes),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RunConfig":
        """Rebuild a config from a ``run_config`` event payload."""
        if not isinstance(payload, dict):
            raise ReplayError(f"run_config payload is not a mapping: {payload!r}")
        try:
            return cls(
                workload=str(payload["workload"]),
                data_len=int(payload["data_len"]),
                chunk_size=int(payload["chunk_size"]),
                method=str(payload["method"]),
                num_processes=int(payload["num_processes"]),
                steps=int(payload["steps"]),
                period_seconds=float(payload["period_seconds"]),
                seed=int(payload["seed"]),
                node_name=str(payload["node_name"]),
                num_vertices=int(payload.get("num_vertices", 128)),
                block_bytes=int(payload.get("block_bytes", 512)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayError(f"run_config payload is incomplete: {exc}") from exc


@dataclass(frozen=True)
class Incident:
    """One incident event in merged order, with its raw record."""

    type: str
    sim_time: float
    node: Optional[str]
    rank: Optional[int]
    seq: int
    record: Dict[str, Any] = field(hash=False)

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Incident":
        return cls(
            type=str(record.get("type")),
            sim_time=float(record.get("sim_time") or 0.0),
            node=record.get("node"),
            rank=record.get("rank"),
            seq=int(record.get("seq", 0)),
            record=record,
        )


@dataclass
class IncidentTimeline:
    """A replayable journal: config + merge-ordered records + incidents."""

    config: RunConfig
    run_id: Optional[str]
    horizon_seconds: float
    #: Every record, in canonical merged order.
    records: List[Dict[str, Any]]
    #: The incident subset (typed), in the same order.
    incidents: List[Incident]

    def incidents_of(self, *types: str) -> List[Incident]:
        wanted = set(types)
        return [i for i in self.incidents if i.type in wanted]


def build_timeline(records: Iterable[Dict[str, Any]]) -> IncidentTimeline:
    """Parse raw journal records into a validated :class:`IncidentTimeline`.

    Raises :class:`~repro.errors.ReplayError` when the records mix two or
    more run ids (conflated journals must never be replayed as one run),
    when no ``run_config`` event is present, or when several
    ``run_config`` events disagree.
    """
    ordered = sorted(records, key=merge_key)
    if not ordered:
        raise ReplayError("cannot replay an empty journal")
    run_ids = journal_run_ids(ordered)
    if len(run_ids) > 1:
        raise ReplayError(
            f"journal mixes records from {len(run_ids)} different runs: "
            f"{run_ids} — merge refused, split per run before replaying"
        )
    configs = [r for r in ordered if r.get("type") == events.RUN_CONFIG]
    if not configs:
        raise ReplayError(
            "journal has no run_config event: the workload cannot be "
            "re-derived (recorded with an older runtime, or truncated "
            "before the first record)"
        )
    payloads = [c.get("config") for c in configs]
    if any(p != payloads[0] for p in payloads[1:]):
        raise ReplayError(
            f"journal holds {len(configs)} conflicting run_config events"
        )
    config = RunConfig.from_payload(payloads[0])
    horizon = float(configs[0].get("horizon", config.horizon_seconds))
    incidents = [
        Incident.from_record(r) for r in ordered if r.get("type") in INCIDENT_TYPES
    ]
    return IncidentTimeline(
        config=config,
        run_id=run_ids[0] if run_ids else None,
        horizon_seconds=horizon,
        records=ordered,
        incidents=incidents,
    )
