"""Rounds and passes: drive the system through its public calls and time it.

A *round* replays one workload's whole trace on a fresh ``NodeRuntime``
and a fresh record directory: checkpoint 0, then every later checkpoint
timed around ``checkpoint_all``; a reader restores the newest checkpoint
three times beside the open writer; the round ends with four cold restores
of the newest checkpoint, ``verify_record``, a ``RecordWriter`` reopen and
two mid-chain restores.  Every restore is compared bit-for-bit with the
trace outside the timer.  Single thread, one client, closed loop.

Passes are rounds under different conditions (``timing``: nothing on;
``traced``: benchmark-side spans; ``spans_on`` / ``journal_on``: the
program's own telemetry, commits only), interleaved round-robin across
workloads so each workload samples the whole run.  ``cold_start`` is not a
round but a fresh subprocess, scheduled the same way so that its few
samples are spread over the run instead of sharing one moment.
"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core import provenance, store
from repro.core.restore import Restorer
from repro.core.selective import selective_restore
from repro.kokkos.execution import DeviceSpace
from repro.runtime import NodeRuntime, fleet_restore
from repro.telemetry import events

from tracing import SpanRecorder
from workloads import Trace, TraceCursor, WorkloadSpec

#: Simulated seconds between checkpoints (only the flush simulation sees it).
CADENCE_S = 10.0
LATEST_RESTORES = 4
ROUND_PASSES = ("timing", "traced", "spans_on", "journal_on")
COLD_START = "cold_start"
PASSES = ROUND_PASSES + (COLD_START,)
HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

clock = time.perf_counter


@dataclass
class Tally:
    """Operations attempted and failed (raised, or restored wrong bytes)."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class RoundResult:
    #: ``NodeRuntime(...)`` construction + checkpoint 0.
    setup_s: float = 0.0
    #: ``checkpoint_all`` of steps 1..N-1.
    commit_s: List[float] = field(default_factory=list)
    #: Restores of the newest checkpoint beside the open writer.
    read_s: List[float] = field(default_factory=list)
    latest_s: List[float] = field(default_factory=list)
    mid_s: List[float] = field(default_factory=list)
    verify_s: float = 0.0
    reopen_s: float = 0.0
    #: The other restore paths, timed in the traced pass only.
    other_restores_s: Dict[str, float] = field(default_factory=dict)
    fleet_sim_s: float = 0.0
    #: Manifest chain digest: identical bytes on disk <=> identical digest.
    chain_digest: str = ""
    #: Engine ``PhaseTimer`` totals of steps >= 1, seconds.
    phase_s: Dict[str, float] = field(default_factory=dict)
    started: float = 0.0
    ended: float = 0.0
    #: Set for metered rounds (the accounting pass).
    node: Any = None
    latest_report: Any = None
    latest_space: Any = None


def run_round(
    spec: WorkloadSpec,
    cursor: TraceCursor,
    record_root: Path,
    tally: Tally,
    *,
    set_context: Callable[..., None] = lambda **ctx: None,
    after_commit: Optional[Callable[[int, NodeRuntime], None]] = None,
    commits_only: bool = False,
    other_restores: bool = False,
    metered: bool = False,
) -> RoundResult:
    """One round of *spec*; raises whatever the program raises."""
    result = RoundResult(started=clock())
    last = spec.checkpoints - 1
    buf = cursor.goto(0)
    record_dir = record_root / "p0"

    def restore(upto: Optional[int], expect: np.ndarray) -> float:
        space = DeviceSpace(0) if metered else None
        tally.attempted += 1
        t0 = clock()
        out, report = provenance.restore_record_indexed(
            record_dir, upto=upto, space=space
        )
        elapsed = clock() - t0
        tally.check(np.array_equal(out, expect), f"{spec.name}: restore({upto}) differs")
        result.latest_report, result.latest_space = report, space
        return elapsed

    gc.collect()
    gc.disable()
    try:
        set_context(step=0, op="setup")
        tally.attempted += 1
        t0 = clock()
        node = NodeRuntime(
            data_len=spec.data_len,
            chunk_size=spec.chunk_size,
            num_processes=1,
            record_root=record_root,
        )
        node.checkpoint_all([buf], now=0.0)
        result.setup_s = clock() - t0
        engine_timer = node.engines[0].timer
        phases_at_0 = engine_timer.as_dict()
        if after_commit is not None:
            after_commit(0, node)

        reads = () if commits_only else spec.read_steps
        for step in range(1, last + 1):
            buf = cursor.goto(step)
            set_context(step=step, op="commit")
            tally.attempted += 1
            t0 = clock()
            node.checkpoint_all([buf], now=step * CADENCE_S)
            result.commit_s.append(clock() - t0)
            if after_commit is not None:
                after_commit(step, node)
            if step in reads:
                set_context(step=step, op="read")
                result.read_s.append(restore(None, buf))
        result.phase_s = {
            name: total - phases_at_0.get(name, 0.0)
            for name, total in engine_timer.as_dict().items()
        }
        result.chain_digest = store.record_manifest(record_dir)["chain_digest"]
        result.node = node if metered else None
        if commits_only:
            return result

        mids = spec.mid_targets
        # The newest checkpoint last, so a metered round keeps its report.
        for target in mids:
            set_context(step=target, op="mid")
            result.mid_s.append(restore(target, cursor.goto(target)))
        buf = cursor.goto(last)
        for _ in range(LATEST_RESTORES):
            set_context(step=last, op="latest")
            result.latest_s.append(restore(None, buf))

        set_context(step=last, op="verify")
        tally.attempted += 1
        t0 = clock()
        verdict = store.verify_record(record_dir)
        result.verify_s = clock() - t0
        tally.check(verdict.ok, f"{spec.name}: verify_record not ok")

        set_context(step=last, op="reopen")
        tally.attempted += 1
        t0 = clock()
        writer = store.RecordWriter(record_dir, method="tree")
        result.reopen_s = clock() - t0
        tally.check(writer.count == spec.checkpoints, f"{spec.name}: reopen count")
        writer.close()

        if other_restores:
            set_context(step=last, op="other_restores")
            for name, fn in (
                ("replay", lambda: Restorer().restore(store.load_record(record_dir))),
                ("selective", lambda: selective_restore(store.load_record(record_dir))),
                ("sharded4", lambda: fleet_restore.restore_record_sharded(record_dir, 4)),
            ):
                tally.attempted += 1
                t0 = clock()
                out = fn()
                result.other_restores_s[name] = clock() - t0
                if name == "sharded4":
                    out, report = out
                    result.fleet_sim_s = report.critical_path_seconds
                tally.check(np.array_equal(out, buf), f"{spec.name}: {name} restore differs")
        return result
    finally:
        gc.enable()
        result.ended = clock()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def scaled_rounds(rounds: Dict[str, int], seconds: float, nominal: float) -> Dict[str, int]:
    """Round counts for a *seconds* budget (proportional, at least 2)."""
    return {k: max(2, round(n * seconds / nominal)) for k, n in rounds.items()}


def schedule(names: Sequence[str], rounds: Dict[str, int]) -> Iterator[Tuple[str, str, int]]:
    """(pass, workload, round index) in execution order.

    One cycle per timing round; within a cycle every workload runs once
    per due pass (w1, w2, w3, w4, w1 ...).  The other passes are spread
    evenly over the cycles, so pass ``P``'s round ``k`` sits beside timing
    round :func:`reference_round` — its like-for-like untraced reference.
    """
    cycles = rounds["timing"]
    if any(n > cycles for n in rounds.values()):
        raise ValueError(f"no pass may have more rounds than timing: {rounds}")
    done = dict.fromkeys(rounds, 0)
    for cycle in range(cycles):
        for kind in (k for k in PASSES if k in rounds):
            k, n = done[kind], rounds[kind]
            if k < n and reference_round(k, n, cycles) == cycle:
                for name in names:
                    yield kind, name, k
                done[kind] += 1


def reference_round(k: int, count: int, cycles: int) -> int:
    """The timing round that ran in the same cycle as round *k* of a pass
    with *count* rounds."""
    return (k * cycles) // count


@dataclass
class WorkloadRun:
    spec: WorkloadSpec
    trace: Trace
    trace_gen_s: float
    rounds: Dict[str, List[RoundResult]] = field(
        default_factory=lambda: {kind: [] for kind in ROUND_PASSES}
    )
    cold_start_s: List[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)


def cold_start(record_root: Path) -> float:
    """Wall seconds of a fresh subprocess that imports the program and
    takes, appends and restores one small checkpoint (``coldstart.py``)."""
    t0 = clock()
    # No timeout: with one, wait() polls and quantises the time to 50 ms.
    subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), str(SRC), str(record_root)], check=True
    )
    return clock() - t0


def run_passes(
    runs: Dict[str, WorkloadRun],
    rounds: Dict[str, int],
    workdir: Path,
    recorder: Optional[SpanRecorder],
) -> None:
    """Execute the interleaved schedule, filling ``runs[*].rounds``.

    A round that raises is counted as one failed operation, reported, and
    dropped; the schedule goes on so one bad round does not hide the rest.
    """
    cursors = {name: TraceCursor(run.trace) for name, run in runs.items()}
    for kind, name, index in schedule(list(runs), rounds):
        run = runs[name]
        tally = run.tally
        root = workdir / f"{name}-{kind}-{index}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        try:
            if kind == COLD_START:
                run.cold_start_s.append(cold_start(root))
                continue
            if kind == "traced":
                if recorder is None:
                    raise RuntimeError("traced rounds need a span recorder")

                def set_context(**ctx):
                    recorder.context = {"workload": name, "round": index, **ctx}

                with recorder:
                    result = run_round(
                        run.spec, cursors[name], root, tally,
                        set_context=set_context, other_restores=True,
                    )
            elif kind == "spans_on":
                # What REPRO_TELEMETRY=1 switches on, for this round only.
                with telemetry.capture():
                    result = run_round(
                        run.spec, cursors[name], root, tally, commits_only=True
                    )
            elif kind == "journal_on":
                with events.journal_to(root / "journal.jsonl"):
                    result = run_round(
                        run.spec, cursors[name], root, tally, commits_only=True
                    )
            else:
                result = run_round(run.spec, cursors[name], root, tally)
        except Exception:  # the benchmark must report, not die, on a bad round
            tally.failed += 1
            print(f"FAILED: {name} {kind} round {index} raised", file=sys.stderr)
            traceback.print_exc()
            continue
        finally:
            shutil.rmtree(root, ignore_errors=True)
        run.rounds[kind].append(result)
