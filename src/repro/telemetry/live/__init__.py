"""Real-time monitoring plane over the journal/metrics machinery.

The post-hoc surfaces (``repro health``, the HTML report) grade a run
after it finishes; this package watches one *in flight* — and grades it
with the same engine, :func:`repro.telemetry.health.evaluate_health`,
over the records ingested so far.  It owns ingestion and rendering, not
grading:

* :mod:`~repro.telemetry.live.tail` — cursor-based journal tailing
  (:class:`JournalFollower`, :func:`follow_journal`), torn-line safe,
  multi-file merge in canonical order;
* :mod:`~repro.telemetry.live.monitor` — :class:`LiveMonitor`: follower
  and/or event bus in, health report / JSON / Prometheus text out;
* :mod:`~repro.telemetry.live.server` — :class:`MonitorServer`, the
  stdlib HTTP surface (``/metrics``, ``/healthz``, ``/slo``).

The per-rank liveness verdicts and window SLIs it renders are views of
the rollup (:mod:`repro.telemetry.aggregate`), re-exported here.

Kept out of ``repro.telemetry``'s eager imports deliberately: the
telemetry package is imported by every instrumented hot-path module, and
the monitoring plane is only needed by whoever runs the monitor.
"""

from ..aggregate import HUNG, LAGGING, OK, LivenessVerdict
from .monitor import LiveMonitor
from .server import MonitorServer
from .tail import JournalFollower, follow_journal

__all__ = [
    "OK",
    "LAGGING",
    "HUNG",
    "LivenessVerdict",
    "LiveMonitor",
    "MonitorServer",
    "JournalFollower",
    "follow_journal",
]
