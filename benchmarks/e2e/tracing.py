"""Benchmark-side spans: wrap the program's layer boundaries from outside.

Nothing is added inside ``src/``: the wrappers are attribute patches
installed for the traced pass and removed afterwards.  Every call of a
wrapped function records one span (name, start, end, parent) tagged with
the harness's current context (workload, round, step, what the operation
is for).  A layer's *self* time is its span's duration minus its child
spans, so the self times under one root add up to that root exactly.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name).  ``hash_chunks`` is
#: patched where ``dedup_tree`` bound it; the store functions are looked up
#: at call time by their callers, so patching the module attribute is enough.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.runtime.node", "NodeRuntime", "checkpoint_all", "runtime.node.checkpoint_all"),
    ("repro.core.base", "DedupEngine", "checkpoint", "core.dedup_tree.checkpoint"),
    ("repro.core.dedup_tree", None, "hash_chunks", "hashing.hash_chunks"),
    ("repro.kokkos.unordered_map", "DigestMap", "insert_or_lookup",
     "kokkos.digest_map.insert_or_lookup"),
    ("repro.kokkos.unordered_map", "DigestMap", "lookup", "kokkos.digest_map.lookup"),
    ("repro.gpusim.perfmodel", "KernelCostModel", "price", "gpusim.price"),
    ("repro.runtime.async_flush", "AsyncFlushPipeline", "submit", "runtime.flush.submit"),
    ("repro.core.store", "RecordWriter", "append", "core.store.append"),
    ("repro.core.store", "RecordWriter", "__init__", "core.store.reopen"),
    ("repro.core.diff", "CheckpointDiff", "to_bytes", "core.diff.to_bytes"),
    ("repro.core.provenance", "ProvenanceBuilder", "append",
     "core.provenance.builder_append"),
    ("repro.core.provenance", None, "restore_record_indexed",
     "core.provenance.restore_record_indexed"),
    ("repro.core.store", None, "load_provenance", "core.provenance.load_provenance"),
    ("repro.core.store", None, "load_record_frames", "core.store.load_record_frames"),
    ("repro.core.provenance", None, "materialize_index",
     "core.provenance.materialize_index"),
    ("repro.core.store", None, "verify_record", "core.store.verify_record"),
)

COMMIT_ROOT = "runtime.node.checkpoint_all"
RESTORE_ROOT = "core.provenance.restore_record_indexed"


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`, -1 for a root.
    parent: int
    #: The harness context the span ran under (shared by a root's subtree).
    context: Dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Operation:
    """One root span with its subtree folded per layer."""

    name: str
    context: Dict[str, Any]
    duration: float
    #: Layer name -> inclusive seconds (calls of a layer never nest in itself).
    inclusive: Dict[str, float] = field(default_factory=dict)
    #: Layer name -> self seconds; sums to :attr:`duration`.
    self_time: Dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Collects spans in memory; optionally keeps wrapped calls' results."""

    def __init__(
        self,
        targets: Tuple[Tuple[str, Optional[str], str, str], ...] = TARGETS,
        keep_results_of: Tuple[str, ...] = (),
    ) -> None:
        self.targets = targets
        self.spans: List[Span] = []
        self.context: Dict[str, Any] = {}
        #: Span name -> return values, for the names asked for.
        self.results: Dict[str, List[Any]] = {name: [] for name in keep_results_of}
        self._open: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._open
        kept = self.results.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.context)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target; idempotence is the caller's business."""
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        for module_name, class_name, attr, span_name in self.targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(span_name, original))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Put every original back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------
    def operations(self) -> List[Operation]:
        """Fold every root span's subtree into per-layer times."""
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        root_of = list(range(len(spans)))
        for i, span in enumerate(spans):
            if span.parent >= 0:
                child_seconds[span.parent] += span.duration
                root_of[i] = root_of[span.parent]
        ops: Dict[int, Operation] = {}
        for i, span in enumerate(spans):
            if span.parent < 0:
                ops[i] = Operation(span.name, span.context, span.duration)
        for i, span in enumerate(spans):
            op = ops[root_of[i]]
            op.inclusive[span.name] = op.inclusive.get(span.name, 0.0) + span.duration
            op.self_time[span.name] = (
                op.self_time.get(span.name, 0.0) + span.duration - child_seconds[i]
            )
        return list(ops.values())

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome ``trace_event`` JSON: one process per workload, one
        thread per round, complete (``X``) events in microseconds."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        pids: Dict[str, int] = {}
        events = []
        for span in self.spans:
            ctx = span.context
            workload = str(ctx.get("workload", "?"))
            pid = pids.setdefault(workload, len(pids) + 1)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": int(ctx.get("round", 0)),
                    "args": {k: v for k, v in ctx.items() if k != "workload"},
                }
            )
        for workload, pid in pids.items():
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": workload}}
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
