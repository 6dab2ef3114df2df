"""Streaming journal ingestion: cursor-based tailing of live JSONL files.

A running fleet appends one JSONL journal per emitter (or one shared
file).  :class:`JournalFollower` tails a file — or every ``*.jsonl``
under a directory, discovering new files as ranks come up — keeping one
:class:`~repro.telemetry.events.JournalCursor` per file so no poll ever
re-parses the prefix, and merges each poll's new records into canonical
:func:`~repro.telemetry.events.merge_key` order.  A torn trailing line
(the emitter is mid-``write``) is held back by the cursor machinery and
consumed intact on a later poll, so a tailer racing a writer never sees
half a record.

:func:`follow_journal` wraps a follower in a generator that sleeps
between polls — the loop behind ``repro monitor``'s watch mode.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ...errors import StorageError
from ..events import JournalCursor, merge_key, read_journal

PathLike = Union[str, Path]


class JournalFollower:
    """Incrementally tail one journal file or a directory of them.

    Every :meth:`poll` returns only the records appended since the last
    poll, merged across files into canonical order.  Damage accounting
    (skipped lines, their reasons) accumulates on the follower so the
    ``journal_ingest`` health rule can grade it.  Files of different
    runs are delivered like any others — the rule reads the ``run_id``\\ s
    off the records and grades the conflation critical.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._cursors: Dict[Path, JournalCursor] = {}
        self.skipped_lines: int = 0
        self.problems: List[str] = []
        self.records_seen: int = 0
        self.polls: int = 0

    # ------------------------------------------------------------------
    def files(self) -> List[Path]:
        """The journal files currently followed, sorted for determinism."""
        if self.path.is_dir():
            return sorted(p for p in self.path.rglob("*.jsonl") if p.is_file())
        return [self.path] if self.path.exists() else []

    def poll(self) -> List[Dict[str, Any]]:
        """Consume everything appended since the last poll, merged.

        A file that vanishes mid-follow (rotation) is forgotten — if it
        reappears it is re-read from the start.  Never raises on damaged
        content; parse problems accumulate on the follower.
        """
        self.polls += 1
        batch: List[Dict[str, Any]] = []
        live = set(self.files())
        for gone in [p for p in self._cursors if p not in live]:
            del self._cursors[gone]
        for path in sorted(live):
            cursor = self._cursors.get(path, JournalCursor())
            try:
                loaded = read_journal(path, since=cursor)
            except StorageError:
                continue  # deleted between listing and reading
            self._cursors[path] = loaded.cursor
            self.skipped_lines += loaded.skipped_lines
            for problem in loaded.problems:
                if len(self.problems) < 16:
                    self.problems.append(f"{path.name}: {problem}")
            batch.extend(loaded)
        self.records_seen += len(batch)
        batch.sort(key=merge_key)
        return batch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<JournalFollower {self.path} files={len(self._cursors)} "
            f"records={self.records_seen}>"
        )


def follow_journal(
    path: PathLike,
    poll_interval: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
    follower: Optional[JournalFollower] = None,
) -> Iterator[List[Dict[str, Any]]]:
    """Generator of record batches from a live journal file or directory.

    Yields one (possibly empty) canonically ordered batch per poll and
    sleeps *poll_interval* seconds between polls.  *stop* is checked
    before every poll — pass ``event.is_set`` of a ``threading.Event``
    (or any zero-arg callable) to end the follow loop cleanly.
    """
    follower = follower if follower is not None else JournalFollower(path)
    while stop is None or not stop():
        yield follower.poll()
        if stop is not None and stop():
            return
        time.sleep(poll_interval)
