"""Asynchronous multi-level flush pipeline (the VeloC-style runtime, §2.3).

After the on-GPU de-duplication produces a consolidated diff in host
memory, the application resumes immediately; a background runtime drains
the diff down the hierarchy (host → SSD → PFS).  The application only
*blocks* when the host staging buffer cannot admit a new diff — the
failure mode the paper warns about at high checkpoint frequency with
full-size checkpoints (§1).

The pipeline is a small discrete-event simulation: each tier's drain link
is FIFO; an object occupies a tier from its arrival until it has fully
drained into the next one.  All times are simulated seconds on the same
clock as the GPU cost model, so a bench can run an entire checkpoint
cadence and report end-to-end I/O overhead.

Degradation under injected faults (see ``docs/FAULT_MODEL.md``):

* A **transient** drain outage on a tier makes attempts fail; the
  pipeline retries with exponential backoff on the simulated clock and
  records the retries and the accumulated wait in the
  :class:`FlushReport`.
* A **permanently** failed *middle* tier is routed around: the object is
  written through from the upstream tier directly into the next live
  tier (host→PFS write-through when the SSD dies), at the upstream
  tier's drain bandwidth.  A dead terminal tier — or a dead host — is
  unrecoverable and raises :class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import StorageError
from ..utils.validation import non_negative_int, positive_float
from .. import telemetry
from ..telemetry import events
from .storage import StorageTier, default_hierarchy

_RETRIES = telemetry.counter(
    "flush.retries", "Drain attempts that hit a transient tier outage"
)
_ROUTE_AROUNDS = telemetry.counter(
    "flush.route_arounds", "Dead middle tiers skipped by write-through"
)
_BLOCKED = telemetry.histogram(
    "flush.blocked_seconds", "Application stall per submission (simulated)"
)


@dataclass
class FlushReport:
    """Timeline of one checkpoint object through the hierarchy."""

    key: str
    nbytes: int
    #: When the application handed the object to the runtime.
    submitted_at: float
    #: Seconds the application was blocked waiting for host space.
    blocked_seconds: float
    #: Arrival time at each tier, tier name → simulated seconds.
    arrived: Dict[str, float] = field(default_factory=dict)
    #: Drain attempts that hit a transient tier outage and backed off.
    retries: int = 0
    #: Simulated seconds spent backing off before successful drains.
    retry_wait_seconds: float = 0.0
    #: Permanently failed tiers this object was routed around.
    skipped_tiers: List[str] = field(default_factory=list)

    @property
    def persisted_at(self) -> float:
        """When the object reached the terminal tier."""
        return max(self.arrived.values())

    @property
    def end_to_end_seconds(self) -> float:
        """Submission → durably persisted."""
        return self.persisted_at - self.submitted_at

    @property
    def degraded(self) -> bool:
        """Whether any fault shaped this object's path or timing."""
        return self.retries > 0 or bool(self.skipped_tiers)


class AsyncFlushPipeline:
    """FIFO multi-tier flusher with blocking host admission.

    Parameters
    ----------
    tiers:
        Ordered hierarchy, fastest first; defaults to
        :func:`~repro.runtime.storage.default_hierarchy`.
    retry_base_seconds / max_retries:
        Exponential-backoff schedule for transient drain outages: the
        k-th retry waits ``retry_base_seconds * 2**(k-1)`` simulated
        seconds; after *max_retries* failed attempts on one link the
        flush gives up with :class:`StorageError`.
    """

    def __init__(
        self,
        tiers: Optional[Sequence[StorageTier]] = None,
        retry_base_seconds: float = 0.25,
        max_retries: int = 16,
    ) -> None:
        self.tiers: List[StorageTier] = (
            list(tiers) if tiers is not None else default_hierarchy()
        )
        if len(self.tiers) < 2:
            raise StorageError("a flush hierarchy needs at least two tiers")
        positive_float(retry_base_seconds, "retry_base_seconds")
        self.retry_base_seconds = retry_base_seconds
        self.max_retries = max_retries
        self.reports: List[FlushReport] = []
        #: Pending evictions: (free_time, tier_index, key, nbytes).
        self._departures: List[tuple] = []

    # ------------------------------------------------------------------
    def _drain_departures(self, now: float) -> None:
        """Apply all evictions that completed by *now*."""
        remaining = []
        for free_time, tier_idx, key, nbytes in self._departures:
            if free_time <= now:
                self.tiers[tier_idx].remove(key)
            else:
                remaining.append((free_time, tier_idx, key, nbytes))
        self._departures = remaining

    def _earliest_host_space(self, nbytes: int) -> float:
        """Earliest simulated time the host tier can admit *nbytes*."""
        host = self.tiers[0]
        if host.fits(nbytes):
            return 0.0
        # Replay pending departures from the host tier in time order.
        freed = 0
        for free_time, tier_idx, _key, obj_bytes in sorted(self._departures):
            if tier_idx != 0:
                continue
            freed += obj_bytes
            if host.free_bytes + freed >= nbytes:
                return free_time
        raise StorageError(
            f"checkpoint of {nbytes} bytes can never fit the host tier "
            f"({self.tiers[0].capacity_bytes} bytes)"
        )

    def _next_live_tier(self, src_idx: int, at: float, report: FlushReport) -> int:
        """First non-dead tier index after *src_idx*; records skips.

        Raises :class:`StorageError` when every downstream tier —
        including the terminal one — is dead, because then the object can
        never become durable.
        """
        for idx in range(src_idx + 1, len(self.tiers)):
            tier = self.tiers[idx]
            if not tier.is_dead(at):
                return idx
            if tier.name not in report.skipped_tiers:
                report.skipped_tiers.append(tier.name)
                _ROUTE_AROUNDS.inc()
                telemetry.instant(
                    "flush.route_around", key=report.key, tier=tier.name, sim_at=at
                )
                events.emit(
                    events.FLUSH_ROUTE_AROUND,
                    sim_time=at,
                    key=report.key,
                    tier=tier.name,
                )
        raise StorageError(
            f"no live tier downstream of {self.tiers[src_idx].name} at "
            f"t={at:g}: checkpoint {report.key!r} cannot be persisted"
        )

    def _backoff_through_outage(
        self, src: StorageTier, start: float, report: FlushReport
    ) -> float:
        """Retry a faulted drain link until it comes back; returns the
        time the transfer can actually start."""
        attempt = 0
        while True:
            blocked_until = src.drain_blocked_until(start)
            if blocked_until is None:
                return start
            if blocked_until == float("inf"):
                raise StorageError(
                    f"tier {src.name} failed permanently at t={start:g} with "
                    f"checkpoint {report.key!r} still resident"
                )
            attempt += 1
            if attempt > self.max_retries:
                raise StorageError(
                    f"drain from tier {src.name} still failing after "
                    f"{self.max_retries} retries (checkpoint {report.key!r})"
                )
            wait = self.retry_base_seconds * 2 ** (attempt - 1)
            report.retries += 1
            report.retry_wait_seconds += wait
            _RETRIES.inc()
            telemetry.instant(
                "flush.retry",
                key=report.key,
                tier=src.name,
                attempt=attempt,
                wait_seconds=wait,
            )
            events.emit(
                events.FLUSH_RETRY,
                sim_time=start,
                key=report.key,
                tier=src.name,
                attempt=attempt,
                wait_seconds=wait,
            )
            start += wait

    # ------------------------------------------------------------------
    def submit(self, key: str, nbytes: int, now: float) -> FlushReport:
        """Hand one checkpoint object to the runtime at time *now*.

        Returns the object's full flush timeline; ``blocked_seconds`` is
        how long the *application* had to wait for host admission (zero in
        the healthy regime).
        """
        non_negative_int(nbytes, "nbytes")
        if now < 0:
            raise StorageError(f"submission time must be non-negative, got {now}")
        with telemetry.span("flush.submit", key=key, bytes=nbytes, sim_now=now) as span:
            report = self._submit(key, nbytes, now, span)
        _BLOCKED.observe(report.blocked_seconds)
        return report

    def _submit(self, key: str, nbytes: int, now: float, span) -> FlushReport:
        self._drain_departures(now)

        if self.tiers[0].is_dead(now):
            raise StorageError(
                f"host tier is failed at t={now:g}: cannot stage {key!r}"
            )
        admit_time = now
        if not self.tiers[0].fits(nbytes):
            admit_time = max(now, self._earliest_host_space(nbytes))
            self._drain_departures(admit_time)
        blocked = admit_time - now
        self.tiers[0].put(key, nbytes, admit_time)

        report = FlushReport(
            key=key, nbytes=nbytes, submitted_at=now, blocked_seconds=blocked
        )
        report.arrived[self.tiers[0].name] = admit_time

        # Drain down the chain: each link is FIFO and busy-until tracked;
        # transient outages back off, dead middle tiers are skipped.
        arrival = admit_time
        src_idx = 0
        terminal = len(self.tiers) - 1
        while src_idx < terminal:
            src = self.tiers[src_idx]
            start = max(arrival, src.link_busy_until)
            start = self._backoff_through_outage(src, start, report)
            finish = start + src.transfer_seconds(nbytes)
            dst_idx = self._next_live_tier(src_idx, finish, report)
            dst = self.tiers[dst_idx]
            src.link_busy_until = finish
            dst.put(key, nbytes, finish)
            # Source copy is released once fully drained.
            self._departures.append((finish, src_idx, key, nbytes))
            report.arrived[dst.name] = finish
            arrival = finish
            src_idx = dst_idx

        span.set(
            blocked_seconds=report.blocked_seconds,
            retries=report.retries,
            sim_persisted_at=report.persisted_at,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    @property
    def total_blocked_seconds(self) -> float:
        """Application-visible blocking across all submissions."""
        return sum(r.blocked_seconds for r in self.reports)

    @property
    def last_persisted_at(self) -> float:
        """When the final object reached the terminal tier."""
        return max((r.persisted_at for r in self.reports), default=0.0)

    @property
    def total_retries(self) -> int:
        """Drain retries across all submissions (fault-campaign metric)."""
        return sum(r.retries for r in self.reports)

    def peak_usage(self) -> Dict[str, int]:
        """High-water occupancy per tier."""
        return {t.name: t.peak_used for t in self.tiers}
