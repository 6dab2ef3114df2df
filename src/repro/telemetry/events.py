"""Structured event journal: the fleet-level "what happened" stream.

Spans and metrics (PR 4) answer *how long* and *how much*; the journal
answers *what happened*: an append-only stream of schema-versioned JSON
records — checkpoint committed, flush retry, tier outage, record fault,
crash/restart, restore, rebase — each tagged with the node/rank that
emitted it and both clocks (wall time and the simulated timeline).
Journals from N ranks merge order-independently (see
:mod:`repro.telemetry.aggregate`), feed the health engine
(:mod:`repro.telemetry.health`), and render as an HTML run report
(:mod:`repro.telemetry.report`).

Journaling is **off by default** and independent of the span/metric
switch: nothing is recorded until a journal is installed with
:func:`install` / :func:`journal_to` (or ``REPRO_JOURNAL=<path>`` in the
environment).  When no journal is installed, :func:`emit` is a single
``None`` check, and checkpoint bytes are identical either way (golden
tests in ``tests/telemetry/test_events.py``).

Record envelope (schema version 2)::

    {"schema": 2, "seq": 3, "type": "checkpoint_committed",
     "run_id": "fleet-0", "node": "node0", "rank": 1,
     "wall_time": 1754..., "sim_time": 0.82,
     ...event-specific fields...}

``seq`` is a per-journal monotonic counter; ``(node, rank, seq)`` orders
records from one emitter even when ``sim_time`` ties or is absent.
``run_id`` (new in schema v2) names the run the record belongs to, so
journals from *different* runs can no longer be silently conflated by a
merge: :func:`repro.telemetry.aggregate.merge_journals` and the replay
subsystem (:mod:`repro.replay`) both refuse mixed ``run_id`` streams.
A ``run_id`` of ``None`` merges compatibly with anything.  Schema v1
records (no ``run_id`` field) are a retired format: :func:`read_journal`
refuses them by name, like any other unsupported schema.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from ..errors import StorageError

#: Journal record schema version; bump on incompatible envelope changes.
#: v2 added the ``run_id`` envelope field; it is the only one read.
SCHEMA_VERSION = 2

# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
CHECKPOINT_COMMITTED = "checkpoint_committed"
FLUSH_RETRY = "flush_retry"
FLUSH_ROUTE_AROUND = "flush_route_around"
TIER_OUTAGE = "tier_outage"
RECORD_FAULT = "record_fault"
CRASH = "crash"
RESTART = "restart"
RESTORE = "restore"
REBASE = "rebase"
RECORD_APPENDED = "record_appended"
RUN_CONFIG = "run_config"
REPLAY_DIVERGENCE = "replay_divergence"
HEARTBEAT = "heartbeat"
ATTRIBUTION_SUMMARY = "attribution_summary"

EVENT_TYPES = frozenset(
    {
        CHECKPOINT_COMMITTED,
        FLUSH_RETRY,
        FLUSH_ROUTE_AROUND,
        TIER_OUTAGE,
        RECORD_FAULT,
        CRASH,
        RESTART,
        RESTORE,
        REBASE,
        RECORD_APPENDED,
        RUN_CONFIG,
        REPLAY_DIVERGENCE,
        HEARTBEAT,
        ATTRIBUTION_SUMMARY,
    }
)

#: Event types that record something going *wrong* (as opposed to normal
#: progress like a committed checkpoint or a completed restore).  The
#: health engine guarantees every one of these maps to at least one rule
#: — see :data:`repro.telemetry.health.RULE_COVERAGE` and the coverage
#: test in ``tests/telemetry/test_health.py``.
FAILURE_EVENT_TYPES = frozenset(
    {
        FLUSH_RETRY,
        FLUSH_ROUTE_AROUND,
        TIER_OUTAGE,
        RECORD_FAULT,
        CRASH,
        REPLAY_DIVERGENCE,
    }
)

#: Envelope keys; payload fields may not collide with them.
_ENVELOPE = frozenset(
    {"schema", "seq", "type", "run_id", "node", "rank", "wall_time", "sim_time"}
)


class EventJournal:
    """Append-only journal of structured events from one emitter.

    Parameters
    ----------
    path:
        Optional JSONL file to stream records into (appended, flushed per
        record so a crashed process leaves a readable prefix).  ``None``
        keeps records in memory only.
    node / rank:
        Identity stamped on every record unless overridden per ``emit``.
    run_id:
        Optional run identity stamped on every record (schema v2).  Leave
        ``None`` for ad-hoc journals; recorded runs meant for replay or
        cross-run merging should set a stable, deterministic id.
    retain:
        Keep every emitted record in memory (the default).  ``False``
        builds and returns records without retaining them — the envelope
        for pure pass-through sinks like the in-process event bus, which
        must not grow without bound over a long-lived run.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        node: str = "node0",
        rank: Optional[int] = None,
        run_id: Optional[str] = None,
        retain: bool = True,
    ) -> None:
        self.node = node
        self.rank = rank
        self.run_id = run_id
        self.retain = retain
        self.path = Path(path) if path is not None else None
        self._records: List[Dict[str, Any]] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._fh = open(self.path, "a") if self.path is not None else None

    def emit(
        self,
        type: str,
        sim_time: Optional[float] = None,
        node: Optional[str] = None,
        rank: Optional[int] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Append one event; returns the record dict."""
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}")
        clash = _ENVELOPE.intersection(fields)
        if clash:
            raise ValueError(f"payload fields shadow the envelope: {sorted(clash)}")
        record: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "type": type,
            "run_id": self.run_id,
            "node": node if node is not None else self.node,
            "rank": rank if rank is not None else self.rank,
            "wall_time": time.time(),
            "sim_time": None if sim_time is None else float(sim_time),
        }
        record.update(fields)
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            if self.retain:
                self._records.append(record)
            if self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._fh.flush()
        return record

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of everything emitted so far."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def write(self, path: Union[str, Path]) -> Path:
        """Dump the in-memory records as a JSONL file."""
        return write_journal(path, self.records())

    def close(self) -> None:
        """Close the streaming file handle (records stay readable)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.path) if self.path else "memory"
        return f"<EventJournal {self.node}/{self.rank} {len(self)} events → {where}>"


# ----------------------------------------------------------------------
# Module-level sink (what the instrumented call sites talk to)
# ----------------------------------------------------------------------
_ACTIVE: Optional[EventJournal] = None

# In-process event bus: subscribers see every record that flows through
# the module-level :func:`emit` — with or without a journal installed —
# so a live aggregator (``repro.telemetry.live``) can consume the event
# stream without touching disk.  A failing subscriber never breaks the
# emitting pipeline: its exception is counted and the record still
# reaches the journal and the other subscribers.
_SUBSCRIBERS: List[Any] = []
#: Records emitted while no journal is installed still need an envelope
#: (seq, node identity) for the bus; this non-retaining journal builds it.
_BUS_FALLBACK: Optional[EventJournal] = None
#: Subscriber callbacks that raised, counted so monitoring failures are
#: visible without ever propagating into the checkpoint pipeline.
subscriber_errors: int = 0


def subscribe(callback) -> Any:
    """Register *callback* to receive every emitted record; returns it."""
    _SUBSCRIBERS.append(callback)
    return callback


def unsubscribe(callback) -> None:
    """Remove a previously subscribed callback (no-op if absent)."""
    try:
        _SUBSCRIBERS.remove(callback)
    except ValueError:
        pass


def _notify(record: Dict[str, Any]) -> None:
    global subscriber_errors
    for callback in list(_SUBSCRIBERS):
        try:
            callback(record)
        except Exception:
            subscriber_errors += 1


def reset_bus() -> None:
    """Drop every subscriber and zero the bus state (test isolation)."""
    global _BUS_FALLBACK, subscriber_errors
    _SUBSCRIBERS.clear()
    _BUS_FALLBACK = None
    subscriber_errors = 0


def active_journal() -> Optional[EventJournal]:
    """The currently installed journal, or ``None`` (journaling off)."""
    return _ACTIVE


def install(journal: EventJournal) -> EventJournal:
    """Make *journal* the process-wide event sink."""
    global _ACTIVE
    _ACTIVE = journal
    return journal


def uninstall() -> Optional[EventJournal]:
    """Stop journaling; returns the journal that was active."""
    global _ACTIVE
    prev, _ACTIVE = _ACTIVE, None
    return prev


def emit(type: str, **kwargs: Any) -> Optional[Dict[str, Any]]:
    """Emit to the installed journal and the event bus.

    A no-op ``None`` when journaling is off *and* nobody is subscribed —
    the disabled cost stays two reads and a branch.  With subscribers but
    no journal, the record is built (non-retained) and delivered to the
    bus only, so a live aggregator can ride along without any disk I/O.
    """
    global _BUS_FALLBACK
    journal = _ACTIVE
    if journal is None and not _SUBSCRIBERS:
        return None
    if journal is None:
        if _BUS_FALLBACK is None:
            _BUS_FALLBACK = EventJournal(
                node=os.environ.get("REPRO_NODE", "node0"), retain=False
            )
        journal = _BUS_FALLBACK
    record = journal.emit(type, **kwargs)
    if _SUBSCRIBERS:
        _notify(record)
    return record


@contextmanager
def journal_to(
    path: Optional[Union[str, Path]] = None,
    node: str = "node0",
    rank: Optional[int] = None,
    run_id: Optional[str] = None,
) -> Iterator[EventJournal]:
    """Install a fresh journal for one block, restoring the prior sink.

    >>> with journal_to("run.jsonl", node="node3") as journal:
    ...     ...                       # instrumented code emits here
    >>> len(journal.records())        # doctest: +SKIP
    """
    global _ACTIVE
    journal = EventJournal(path, node=node, rank=rank, run_id=run_id)
    prev = _ACTIVE
    _ACTIVE = journal
    try:
        yield journal
    finally:
        _ACTIVE = prev
        journal.close()


# ----------------------------------------------------------------------
# Persistence and ordering
# ----------------------------------------------------------------------
def write_journal(path: Union[str, Path], records: Iterable[Dict[str, Any]]) -> Path:
    """Write an iterable of event records as a JSONL journal file."""
    out = Path(path)
    with open(out, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return out


class JournalCursor:
    """Resume point of an incremental journal read.

    ``offset`` is the byte position of the first unconsumed byte;
    ``lineno`` the 1-based line number that byte starts.  Cursors are
    immutable value objects: each :func:`read_journal` call returns a new
    one on ``LoadedJournal.cursor``, and feeding it back via ``since=``
    parses only what was appended after it — tailing never re-parses the
    prefix.
    """

    __slots__ = ("offset", "lineno")

    def __init__(self, offset: int = 0, lineno: int = 1) -> None:
        self.offset = int(offset)
        self.lineno = int(lineno)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JournalCursor)
            and self.offset == other.offset
            and self.lineno == other.lineno
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JournalCursor(offset={self.offset}, lineno={self.lineno})"


class LoadedJournal(List[Dict[str, Any]]):
    """A journal's records plus what had to be skipped to load them.

    Behaves exactly like the record list :func:`read_journal` has always
    returned, with damage accounting attached: ``skipped_lines`` counts
    truncated/garbled/unreadable JSONL lines that were dropped, and
    ``problems`` describes the first few.  A journal cut off mid-record
    by the very crash it documents must still load — the replayer depends
    on it.  ``cursor`` marks where this load stopped; pass it back as
    ``read_journal(..., since=cursor)`` to consume only newer records.
    """

    def __init__(self, records=(), path: Optional[Path] = None) -> None:
        super().__init__(records)
        self.path = path
        self.skipped_lines: int = 0
        self.problems: List[str] = []
        self.cursor: JournalCursor = JournalCursor()


def read_journal(
    path: Union[str, Path],
    strict: bool = False,
    since: Optional[JournalCursor] = None,
) -> LoadedJournal:
    """Load one JSONL journal, validating the envelope of every record.

    By default damaged lines — truncated JSON (a crash mid-write),
    garbled bytes, records with no event type, or any schema but
    :data:`SCHEMA_VERSION` (the retired schema 1 included) — are
    *skipped and counted* on the returned
    :class:`LoadedJournal` (``skipped_lines`` / ``problems``) instead of
    aborting the load mid-file.  ``strict=True`` restores the raising
    behaviour for tests and for pipelines that must not tolerate damage.

    ``since`` switches to **incremental** mode: reading starts at the
    cursor (nothing before it is re-parsed) and a torn trailing line —
    bytes not yet closed by a newline, i.e. a record the emitter is
    mid-``write`` — is *held back* instead of parsed: the returned
    ``cursor`` stops in front of it, so the next poll consumes the line
    intact once the writer finishes it.  Start tailing from
    ``JournalCursor()``.  A file that shrank below the cursor (rotated
    or truncated underneath the tailer) restarts from the beginning and
    is counted as a problem.  Whole-file loads (``since=None``) keep the
    historical behaviour — the final line parses even without a trailing
    newline — and return a cursor at end-of-file.
    """
    source = Path(path)
    if not source.exists():
        raise StorageError(f"no journal at {source}")
    records = LoadedJournal(path=source)
    incremental = since is not None
    start = since if since is not None else JournalCursor()

    def _skip(lineno: int, why: str, exc: Optional[Exception] = None) -> None:
        if strict:
            message = f"{source}:{lineno}: {why}"
            raise StorageError(message) from exc
        records.skipped_lines += 1
        if len(records.problems) < 8:
            records.problems.append(f"line {lineno}: {why}")

    data = source.read_bytes()
    if start.offset > len(data):
        _skip(
            start.lineno,
            f"journal shrank below cursor offset {start.offset} "
            f"(rotated or truncated); restarting from the beginning",
        )
        start = JournalCursor()
    chunk = data[start.offset :]
    if incremental and chunk and not chunk.endswith(b"\n"):
        # Hold back the torn trailing line: everything up to and
        # including the last newline is consumable now, the tail is the
        # next poll's problem (by then the writer has flushed the rest).
        chunk = chunk[: chunk.rfind(b"\n") + 1]
    lines = chunk.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # a trailing newline terminates a line, not starts one
    for i, line in enumerate(lines):
        lineno = start.lineno + i
        text = line.decode("utf-8", errors="replace")
        if not text.strip():
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            _skip(lineno, f"malformed journal line: {exc}", exc)
            continue
        if not isinstance(record, dict) or "type" not in record:
            _skip(lineno, "journal record has no event type")
            continue
        version = record.get("schema")
        if not isinstance(version, int) or version != SCHEMA_VERSION:
            _skip(lineno, f"unsupported journal schema {version!r}")
            continue
        records.append(record)
    records.cursor = JournalCursor(
        offset=start.offset + len(chunk) if incremental else len(data),
        lineno=start.lineno + len(lines),
    )
    return records


def journal_run_ids(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Distinct non-``None`` ``run_id`` values in *records*, sorted.

    Records from ad-hoc journals carry no run identity and are
    compatible with any run; only *conflicting* ids —
    two or more distinct non-``None`` values — indicate journals from
    different runs being conflated.
    """
    ids = {r.get("run_id") for r in records}
    ids.discard(None)
    return sorted(ids)


def merge_key(record: Dict[str, Any]):
    """Total order over journal records, independent of arrival order.

    Records sort by simulated time first (events without one sort ahead,
    in emitter order), then by emitter identity ``(node, rank, seq)``.  A
    canonical JSON dump breaks any remaining tie, so merging the same
    record multisets in any order yields the same sequence.
    """
    sim = record.get("sim_time")
    rank = record.get("rank")
    return (
        0 if sim is None else 1,
        float(sim) if sim is not None else 0.0,
        str(record.get("node", "")),
        int(rank) if rank is not None else -1,
        int(record.get("seq", 0)),
        json.dumps(record, sort_keys=True, default=str),
    )


# Opt-in streaming journal from the environment: REPRO_JOURNAL=<path>
# (node identity via REPRO_NODE).  Mirrors REPRO_TELEMETRY's spirit —
# nothing happens unless explicitly requested.
_env_path = os.environ.get("REPRO_JOURNAL", "")
if _env_path:
    install(EventJournal(_env_path, node=os.environ.get("REPRO_NODE", "node0")))
del _env_path
