"""Dual-clock telemetry: tracing spans, metrics, and trace export.

The checkpoint/restore/flush pipeline reports two kinds of time (see
``docs/OBSERVABILITY.md``): wall-clock seconds of the NumPy data path and
simulated GPU seconds from the :mod:`repro.gpusim` cost model.  This
package records both per named region:

>>> from repro import telemetry
>>> telemetry.enable()
>>> with telemetry.span("tree.serialize", space=engine.space) as s:
...     s.set(bytes=diff.serialized_size)          # doctest: +SKIP

Spans nest (per thread), carry attributes, and capture a
:class:`~repro.kokkos.KernelCounts` delta from their execution space; the
exporters price those deltas into simulated seconds and write Chrome
``trace_event`` JSON (Perfetto-loadable, both clocks as separate tracks)
or Prometheus-style metric dumps.

Collection is off by default (``REPRO_TELEMETRY=1`` or
:func:`enable` turns it on); disabled instrumentation is a flag check
and never retains records, and it never alters checkpoint bytes either
way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator

from ._state import STATE
from . import events
from .aggregate import FleetRollup, RankRollup, build_rollup, merge_journals
from .events import (
    EventJournal,
    LoadedJournal,
    journal_run_ids,
    journal_to,
    read_journal,
    write_journal,
)
from .export import (
    metrics_to_json,
    metrics_to_prometheus,
    phase_summary,
    span_sim_seconds,
    to_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    default_registry,
    gauge,
    histogram,
)
from .attribution import (
    ChunkCensus,
    RecordAttribution,
    attribute_record,
    chunk_size_sweep,
)
from .health import Finding, HealthReport, default_rules, evaluate_health
from .report import render_report, write_report
from .tracer import InstantRecord, SpanRecord, Tracer, get_tracer, instant, span


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return STATE.enabled


def enable(reset: bool = True) -> None:
    """Turn collection on (optionally clearing previously collected data)."""
    if reset:
        reset_telemetry()
    STATE.enabled = True


def disable() -> None:
    """Turn collection off; already-collected data stays readable."""
    STATE.enabled = False


def reset_telemetry() -> None:
    """Clear the default tracer and zero the default metrics registry."""
    get_tracer().reset()
    default_registry().reset()


@contextmanager
def capture(model=None) -> Iterator[Dict[str, Any]]:
    """Collect telemetry for one block, leaving global state untouched.

    Enables collection (clearing previous data), yields a dict, and fills
    it with :func:`phase_summary` output when the block exits; the prior
    enabled/disabled state and a clean tracer/registry are restored either
    way.  This is how the bench harness embeds a per-phase summary into
    ``BENCH_*.json`` without leaking collection into the enclosing test
    process.
    """
    was_enabled = STATE.enabled
    enable(reset=True)
    out: Dict[str, Any] = {}
    try:
        yield out
    finally:
        try:
            out.update(phase_summary(model=model))
        finally:
            reset_telemetry()
            STATE.enabled = was_enabled


__all__ = [
    "ChunkCensus",
    "Counter",
    "EventJournal",
    "Finding",
    "FleetRollup",
    "Gauge",
    "HealthReport",
    "Histogram",
    "InstantRecord",
    "LoadedJournal",
    "MetricsRegistry",
    "RankRollup",
    "RecordAttribution",
    "SpanRecord",
    "Tracer",
    "attribute_record",
    "build_rollup",
    "chunk_size_sweep",
    "capture",
    "counter",
    "default_registry",
    "default_rules",
    "disable",
    "enable",
    "enabled",
    "evaluate_health",
    "events",
    "gauge",
    "get_tracer",
    "histogram",
    "instant",
    "journal_run_ids",
    "journal_to",
    "merge_journals",
    "metrics_to_json",
    "metrics_to_prometheus",
    "phase_summary",
    "read_journal",
    "render_report",
    "reset_telemetry",
    "span",
    "span_sim_seconds",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_journal",
]
