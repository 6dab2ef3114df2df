"""Dual-clock tracing spans.

A span measures one named region on two clocks at once:

* **wall clock** — ``time.perf_counter`` around the block, optionally fed
  into a :class:`~repro.utils.timing.PhaseTimer` so existing phase
  accounting keeps working unchanged, and
* **simulated clock** — a :class:`~repro.kokkos.KernelCounts` delta taken
  from the span's execution space via ``progress_snapshot()``.  Counts are
  monotonic and fusion-aware, so a span opened inside a fused kernel block
  still attributes exactly the device work its body performed, and ledger
  ``clear()`` calls between checkpoints cannot corrupt span attribution.

Spans nest per thread (thread-local stacks record parent/child edges) and
carry free-form attributes (``span.set(bytes=..., method=...)``).  When
telemetry is disabled, :meth:`Tracer.span` returns a shared no-op handle
(or a timer-only handle when a ``PhaseTimer`` sink was passed), so
instrumented call sites stay cheap in production runs.

Pricing count deltas into simulated seconds is deliberately *not* done
here — the exporters do it with a :class:`~repro.gpusim.KernelCostModel`,
keeping this module free of gpusim imports.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ._state import STATE


@dataclass
class SpanRecord:
    """One completed span.

    ``start`` is seconds since the tracer's epoch on the wall clock;
    ``counts`` is the device-work delta (``None`` when the span had no
    metered space).  ``parent`` is the index of the enclosing span in the
    tracer's span list, or ``-1`` for a root.
    """

    index: int
    parent: int
    name: str
    tid: int
    thread_name: str
    start: float
    wall_seconds: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    space: Optional[str] = None
    counts: Any = None


@dataclass
class InstantRecord:
    """A zero-duration event (retry fired, tier routed around)."""

    name: str
    tid: int
    thread_name: str
    ts: float
    attrs: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared do-nothing handle returned when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _TimerOnlySpan:
    """Disabled-mode handle that still feeds a PhaseTimer.

    Engines route their wall-clock phase accounting through spans; when
    telemetry is off that accounting must keep working, just without any
    record being retained.
    """

    __slots__ = ("_timer", "_name", "_t0")

    def __init__(self, timer, name: str) -> None:
        self._timer = timer
        self._name = name

    def __enter__(self) -> "_TimerOnlySpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._timer.add(self._name, time.perf_counter() - self._t0)
        return False

    def set(self, **attrs: Any) -> "_TimerOnlySpan":
        return self


class _Span:
    """Live span handle; builds a :class:`SpanRecord` on exit."""

    __slots__ = (
        "_tracer",
        "_name",
        "_space",
        "_timer",
        "_attrs",
        "_index",
        "_parent",
        "_t0",
        "_snap0",
    )

    def __init__(self, tracer: "Tracer", name: str, space, timer, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._space = space
        self._timer = timer
        self._attrs = dict(attrs) if attrs else {}

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes; chainable, usable before or inside the block."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        # Reserve the record slot at entry so children observed while this
        # span is still open already know their parent's index.
        with tracer._lock:
            self._index = len(tracer._spans)
            tracer._spans.append(None)
        self._parent = stack[-1]._index if stack else -1
        stack.append(self)
        space = self._space
        self._snap0 = (
            space.progress_snapshot()
            if space is not None and getattr(space, "metered", False)
            else None
        )
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._t0
        counts = None
        if self._snap0 is not None:
            counts = self._space.progress_snapshot() - self._snap0
        if self._timer is not None:
            self._timer.add(self._name, wall)
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit safety net
            try:
                stack.remove(self)
            except ValueError:
                pass
        thread = threading.current_thread()
        record = SpanRecord(
            index=self._index,
            parent=self._parent,
            name=self._name,
            tid=thread.ident or 0,
            thread_name=thread.name,
            start=self._t0 - tracer.epoch,
            wall_seconds=wall,
            attrs=self._attrs,
            space=getattr(self._space, "name", None) if self._space is not None else None,
            counts=counts,
        )
        with tracer._lock:
            tracer._spans[self._index] = record
        return False


class Tracer:
    """Collects spans and instant events for one process.

    Thread-safe: record storage is lock-protected and the open-span stack
    is thread-local, so spans on different threads nest independently.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._spans: List[Optional[SpanRecord]] = []
        self.instants: List[InstantRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, space=None, timer=None, **attrs: Any):
        """Open a dual-clock span (use as a context manager).

        Parameters
        ----------
        name:
            Span label, conventionally dotted (``"tree.serialize"``).
        space:
            Execution space whose metered progress the span attributes as
            simulated work; unmetered spaces (``HostSpace``) record no
            counts.
        timer:
            Optional :class:`~repro.utils.timing.PhaseTimer` that receives
            the wall duration under *name* — even when telemetry is
            disabled.
        attrs:
            Initial span attributes; extend later with ``.set(...)``.
        """
        if not STATE.enabled:
            return _NULL_SPAN if timer is None else _TimerOnlySpan(timer, name)
        return _Span(self, name, space, timer, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration event at the current wall time."""
        if not STATE.enabled:
            return
        ts = time.perf_counter() - self.epoch
        thread = threading.current_thread()
        record = InstantRecord(
            name=name,
            tid=thread.ident or 0,
            thread_name=thread.name,
            ts=ts,
            attrs=dict(attrs),
        )
        with self._lock:
            self.instants.append(record)

    def spans(self) -> List[SpanRecord]:
        """Completed spans in slot order (open spans are skipped)."""
        with self._lock:
            return [r for r in self._spans if r is not None]

    def reset(self) -> None:
        """Drop all collected records and restart the epoch."""
        with self._lock:
            self._spans.clear()
            self.instants.clear()
            self.epoch = time.perf_counter()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer all built-in instrumentation uses."""
    return _TRACER


def span(name: str, space=None, timer=None, **attrs: Any):
    """Open a span on the default tracer (see :meth:`Tracer.span`)."""
    return _TRACER.span(name, space=space, timer=timer, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record an instant event on the default tracer."""
    _TRACER.instant(name, **attrs)
