"""The live monitor: one object that tails, grades, and renders.

:class:`LiveMonitor` ingests a run in flight — a
:class:`~repro.telemetry.live.tail.JournalFollower` over on-disk
journals and/or the in-process event bus
(:func:`repro.telemetry.events.subscribe`) — and grades it with the
same call that grades a finished one:
:func:`repro.telemetry.health.evaluate_health` over everything ingested
so far, re-run only when a poll consumed something.  Live and post-hoc
verdicts are therefore equal by construction, for every prefix of a
journal.  The result renders three ways:

* :meth:`report` — the graded :class:`~repro.telemetry.health.HealthReport`
  (same rules, same exit-code convention as ``repro health``);
* :meth:`snapshot` — the JSON blob the ``/slo`` endpoint serves;
* :meth:`prometheus` — a text exposition page combining the process's
  metric registry with live per-rank families, format-validated by
  :func:`repro.telemetry.export.validate_prometheus_text` in the tests.

Every surface calls :meth:`poll` first (refresh-on-read), so a scrape is
never staler than the journal it follows.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .. import events as events_mod
from ..aggregate import STATE_RANK, FleetRollup, LivenessVerdict, build_rollup
from ..export import (
    PromFamily,
    registry_families,
    render_prometheus,
)
from ..health import HealthReport, evaluate_health
from .tail import JournalFollower, PathLike


class LiveMonitor:
    """Follow a run in flight and grade it continuously.

    Parameters
    ----------
    path:
        Journal file or directory to tail (``None`` = no disk source).
    bus:
        Subscribe to the in-process event bus so records emitted in this
        process reach the monitor with no disk round-trip.  Remember to
        :meth:`close` (or use the monitor as a context manager) to
        unsubscribe.
    """

    def __init__(self, path: Optional[PathLike] = None, bus: bool = False) -> None:
        self.follower = JournalFollower(path) if path is not None else None
        self._lock = threading.Lock()
        self._bus_queue: Deque[Dict[str, Any]] = deque()
        self._subscription = None
        if bus:
            self._subscription = events_mod.subscribe(self._bus_queue.append)
        #: Everything ingested so far plus the follower's damage
        #: accounting — the one input every surface is derived from.
        self.journal = events_mod.LoadedJournal()
        #: ``(ingest state, rollup, report)`` of the latest grading.
        self._graded: Optional[Tuple[Any, FleetRollup, HealthReport]] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "LiveMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._subscription is not None:
            events_mod.unsubscribe(self._subscription)
            self._subscription = None

    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Ingest everything new (disk + bus); returns records consumed."""
        with self._lock:
            batch: List[Dict[str, Any]] = []
            if self.follower is not None:
                batch.extend(self.follower.poll())
                self.journal.skipped_lines = self.follower.skipped_lines
                self.journal.problems = self.follower.problems
            while self._bus_queue:
                batch.append(self._bus_queue.popleft())
            self.journal.extend(batch)
            return len(batch)

    @property
    def records_seen(self) -> int:
        return len(self.journal)

    # ------------------------------------------------------------------
    def graded(self, refresh: bool = True) -> Tuple[FleetRollup, HealthReport]:
        """The rollup of everything ingested and its health report.

        Grading is the post-hoc engine run on the records so far; it is
        repeated only when the ingest state moved since the last call,
        so an idle scrape costs a poll and returns the previous objects.
        """
        if refresh:
            self.poll()
        with self._lock:
            state = (
                len(self.journal),
                self.journal.skipped_lines,
                events_mod.subscriber_errors,
            )
            if self._graded is None or self._graded[0] != state:
                rollup = build_rollup(self.journal)
                self._graded = (state, rollup, evaluate_health(rollup))
            return self._graded[1], self._graded[2]

    def report(self, refresh: bool = True) -> HealthReport:
        """Graded findings over everything ingested, worst first."""
        return self.graded(refresh)[1]

    def verdicts(self) -> Dict[Any, LivenessVerdict]:
        return self.graded(refresh=False)[0].liveness

    def snapshot(self, refresh: bool = True) -> Dict[str, Any]:
        """The ``/slo`` JSON payload: status, per-rank table, SLI window."""
        rollup, report = self.graded(refresh)
        return {
            "status": report.status,
            "records_seen": len(rollup.events),
            "ranks": [v.as_dict() for v in rollup.liveness.values()],
            "slo": rollup.slis,
            "findings": [f.as_dict() for f in report.findings],
        }

    def rank_table(self, refresh: bool = True) -> str:
        """Fixed-width per-rank liveness/latency table (watch mode)."""
        rollup, _ = self.graded(refresh)
        slo = rollup.slis
        lines = [
            f"{'rank':<14s} {'state':<8s} {'beats':>5s} {'ckpts':>5s} "
            f"{'last beat':>12s} {'misses':>6s}  reason"
        ]
        for verdict in rollup.liveness.values():
            where = verdict.node
            if verdict.rank is not None:
                where += f"/r{verdict.rank}"
            last = (
                "-"
                if verdict.last_heartbeat is None
                else f"t={verdict.last_heartbeat:.4g}"
            )
            state = verdict.state + ("*" if verdict.straggler else "")
            lines.append(
                f"{where:<14s} {state:<8s} {verdict.heartbeats:>5d} "
                f"{verdict.checkpoints:>5d} {last:>12s} "
                f"{verdict.misses:>6d}  {verdict.reason}"
            )
        commit = slo["commit_latency"]
        flush = slo["flush_latency"]

        def _fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.3g}s"

        lines.append(
            f"window[{slo['window']}]: commit p50={_fmt(commit['p50'])} "
            f"p99={_fmt(commit['p99'])}  flush p50={_fmt(flush['p50'])} "
            f"p99={_fmt(flush['p99'])}  backlog={slo['backlog_depth']}"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def prometheus(self, refresh: bool = True) -> str:
        """Exposition page: registry instruments + live monitor families."""
        rollup, report = self.graded(refresh)
        slo = rollup.slis

        state_family = PromFamily(
            "repro_live_rank_state",
            "gauge",
            "Liveness state per rank (0 ok, 1 lagging, 2 hung)",
        )
        beat_family = PromFamily(
            "repro_live_last_heartbeat_sim_seconds",
            "gauge",
            "Simulated time of each rank's latest heartbeat",
        )
        beats_family = PromFamily(
            "repro_live_heartbeats_total",
            "counter",
            "Heartbeats observed per rank",
        )
        for verdict in rollup.liveness.values():
            labels = {
                "node": verdict.node,
                "rank": "" if verdict.rank is None else str(verdict.rank),
            }
            state_family.add("", labels, STATE_RANK[verdict.state])
            if verdict.last_heartbeat is not None:
                beat_family.add("", labels, verdict.last_heartbeat)
            beats_family.add("", labels, verdict.heartbeats)

        quantile_family = PromFamily(
            "repro_live_latency_sim_seconds",
            "gauge",
            "Rolling-window checkpoint latency quantiles (simulated)",
        )
        for phase in ("commit_latency", "flush_latency"):
            stats = slo[phase]
            for q in ("p50", "p99"):
                if stats[q] is not None:
                    quantile_family.add(
                        "",
                        {"phase": phase, "quantile": q},
                        stats[q],
                    )

        scalar_families = [
            PromFamily(
                "repro_live_backlog_depth",
                "gauge",
                "Checkpoints produced but not yet durable",
            ).add("", None, slo["backlog_depth"]),
            PromFamily(
                "repro_live_records_ingested_total",
                "counter",
                "Journal records consumed by the live monitor",
            ).add("", None, len(rollup.events)),
            PromFamily(
                "repro_live_status",
                "gauge",
                "Worst live grade (0 ok, 1 warn, 2 critical)",
            ).add("", None, report.exit_code),
        ]
        # Latest attribution summary per record name, by scope.
        attr_records: Dict[str, Dict[str, Any]] = {}
        attr_census_rows: Dict[str, Dict[str, Any]] = {}
        attr_census: Dict[str, Any] = {}
        for row in rollup.events_of(events_mod.ATTRIBUTION_SUMMARY):
            scope = row.get("scope")
            if scope == "record":
                attr_records[str(row.get("record", "?"))] = row
            elif scope == "census_record":
                attr_census_rows[str(row.get("record", "?"))] = row
            elif scope == "census":
                attr_census = row
        attr_class = PromFamily(
            "repro_attr_class_bytes",
            "gauge",
            "Attributed logical bytes per record and byte class",
        )
        attr_depth = PromFamily(
            "repro_attr_lineage_depth_max",
            "gauge",
            "Deepest restore-gather hop distance per record",
        )
        attr_sharing = PromFamily(
            "repro_attr_sharing_factor",
            "gauge",
            "Logical chunk references per unique payload cell",
        )
        for name, row in attr_records.items():
            for cls in ("first", "shift", "fixed", "zero", "metadata"):
                value = row.get(f"{cls}_bytes")
                if value is not None:
                    attr_class.add("", {"record": name, "class": cls}, value)
            if row.get("max_lineage_depth") is not None:
                attr_depth.add("", {"record": name}, row["max_lineage_depth"])
            if row.get("sharing_factor") is not None:
                attr_sharing.add("", {"record": name}, row["sharing_factor"])

        attr_xdup = PromFamily(
            "repro_attr_cross_duplicate_share",
            "gauge",
            "Share of a record's unique chunk bytes other records also hold",
        )
        for name, row in attr_census_rows.items():
            if row.get("cross_duplicate_share") is not None:
                attr_xdup.add(
                    "", {"record": name}, row["cross_duplicate_share"]
                )
        attr_families = [attr_class, attr_depth, attr_sharing, attr_xdup]
        attr_records_total = PromFamily(
            "repro_attr_records_seen_total",
            "counter",
            "Records with an attribution summary observed",
        ).add("", None, len(attr_records))
        attr_families.append(attr_records_total)
        if attr_census.get("pool_forecast_ratio") is not None:
            attr_families.append(
                PromFamily(
                    "repro_attr_pool_forecast_ratio",
                    "gauge",
                    "Attainable fleet dedup with one shared chunk pool",
                ).add("", None, attr_census["pool_forecast_ratio"])
            )

        return render_prometheus(
            registry_families()
            + [state_family, beat_family, beats_family, quantile_family]
            + scalar_families
            + attr_families
        )
