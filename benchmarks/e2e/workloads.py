"""The four benchmark workloads: deterministic checkpoint traces.

A trace is a base buffer (checkpoint 0) plus, per later checkpoint, a
short list of edit ops that turn state ``i-1`` into state ``i``.  The
program under test only ever sees the buffers; the seed never reaches it.
Holding ops instead of snapshots keeps the harness at two buffers per
workload (base + working copy), so ``peak_rss_mb`` is about the system.

Sizes are what fits the driver's cap (16 rounds of >= 100 timed steps in
a ~20 s window on 2 shared vCPUs): buffers were shrunk from the 4 MiB of
the first prototype before rounds or steps were (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

#: ``("w", offset, bytes)`` overwrites a run; ``("x", a, b, length)``
#: swaps two equal-length, non-overlapping runs.
Op = Tuple


@dataclass
class Trace:
    """Checkpoint 0 plus the edit ops of every later checkpoint."""

    base: np.ndarray
    steps: List[List[Op]]

    @property
    def checkpoints(self) -> int:
        return len(self.steps) + 1


class TraceCursor:
    """Replays a trace into one working buffer, forward or from the start."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.buf = trace.base.copy()
        self.step = 0

    def goto(self, step: int) -> np.ndarray:
        """Make :attr:`buf` the state of checkpoint *step* and return it."""
        if not 0 <= step < self.trace.checkpoints:
            raise ValueError(f"step {step} outside trace of {self.trace.checkpoints}")
        if step < self.step:
            self.buf[:] = self.trace.base
            self.step = 0
        buf = self.buf
        while self.step < step:
            for op in self.trace.steps[self.step]:
                if op[0] == "w":
                    _, off, data = op
                    buf[off : off + data.shape[0]] = data
                else:
                    _, a, b, n = op
                    tmp = buf[a : a + n].copy()
                    buf[a : a + n] = buf[b : b + n]
                    buf[b : b + n] = tmp
            self.step += 1
        return buf


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: One line for BENCHMARK.json: what the workload stresses.
    why: str
    data_len: int
    chunk_size: int
    #: Checkpoints per round, checkpoint 0 included (timed steps = this - 1).
    checkpoints: int
    build: Callable[["WorkloadSpec", int], Trace]

    def trace(self, seed: int) -> Trace:
        """The workload's checkpoint trace for *seed*."""
        return self.build(self, seed)

    @property
    def read_steps(self) -> Tuple[int, int, int]:
        """Steps after which a reader restores while the writer is open."""
        last = self.checkpoints - 1
        return (last // 4, last // 2, 3 * last // 4)

    @property
    def mid_targets(self) -> Tuple[int, int]:
        """Mid-chain checkpoints restored from the closed record."""
        last = self.checkpoints - 1
        return (last // 3, 2 * last // 3)


#: Where each step writes is fixed per workload; the seed only chooses the
#: bytes.  Which chunks change, move or survive decides every byte and
#: simulated-time metric, so with positions fixed those metrics are the same
#: for every seed and can carry tight bounds, while timings still see
#: fresh data on every run.
_STRUCTURE_SEED = 2023


def _random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 256, n, dtype=np.uint8)


def _build_oranges(spec: WorkloadSpec, seed: int) -> Trace:
    """The paper's application: the GDV buffer of one fixed ORANGES run,
    followed by a 128-byte application header (progress counter, RNG
    state) that changes on every checkpoint and carries the seed."""
    from repro.oranges import OrangesApp

    header = 128
    gdv_len = spec.data_len - header
    app = OrangesApp("message_race", gdv_len // (73 * 4), seed=_STRUCTURE_SEED)
    if app.gdv_bytes != gdv_len:
        raise ValueError(f"GDV is {app.gdv_bytes} B, spec says {gdv_len}")
    rng = np.random.default_rng(seed)
    base = None
    prev = None
    steps: List[List[Op]] = []
    for snapshot in app.fresh_engine().checkpoint_stream(spec.checkpoints):
        cur = snapshot.reshape(-1).view(np.uint8)
        if base is None:
            base = np.concatenate([cur, _random_bytes(rng, header)])
        else:
            ops: List[Op] = [("w", gdv_len, _random_bytes(rng, header))]
            changed = np.flatnonzero(cur != prev)
            if changed.size:
                lo, hi = int(changed[0]), int(changed[-1]) + 1
                ops.append(("w", lo, cur[lo:hi].copy()))
            steps.append(ops)
        prev = cur.copy()
    return Trace(base, steps)


def _build_dense_churn(spec: WorkloadSpec, seed: int) -> Trace:
    """Every step overwrites 25 % of the buffer in 2 KiB runs."""
    where_rng = np.random.default_rng(_STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    run = 2048
    slots = spec.data_len // run
    steps = []
    for _ in range(spec.checkpoints - 1):
        where = np.sort(where_rng.choice(slots, slots // 4, replace=False))
        steps.append([("w", int(s) * run, _random_bytes(rng, run)) for s in where])
    return Trace(_random_bytes(rng, spec.data_len), steps)


def _build_shift_shuffle(spec: WorkloadSpec, seed: int) -> Trace:
    """Every step swaps ~19 % of the buffer as 16 KiB blocks + 4 KiB fresh."""
    where_rng = np.random.default_rng(_STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    block, fresh = 16384, 4096
    blocks = spec.data_len // block
    pairs = max(1, (3 * blocks) // 32)
    steps = []
    for _ in range(spec.checkpoints - 1):
        picked = where_rng.choice(blocks, 2 * pairs, replace=False)
        ops: List[Op] = [
            ("x", int(a) * block, int(b) * block, block)
            for a, b in zip(picked[:pairs], picked[pairs:])
        ]
        where = int(where_rng.integers(0, spec.data_len // fresh))
        ops.append(("w", where * fresh, _random_bytes(rng, fresh)))
        steps.append(ops)
    return Trace(_random_bytes(rng, spec.data_len), steps)


def _build_hifreq_reads(spec: WorkloadSpec, seed: int) -> Trace:
    """Many small checkpoints: each rewrites one 8 KiB run."""
    where_rng = np.random.default_rng(_STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    run = 8192
    steps = []
    for _ in range(spec.checkpoints - 1):
        where = int(where_rng.integers(0, spec.data_len // run))
        steps.append([("w", where * run, _random_bytes(rng, run))])
    return Trace(_random_bytes(rng, spec.data_len), steps)


WORKLOADS: Dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            name="oranges_sparse",
            why=(
                "The paper's ORANGES GDV buffer (2048 vertices, 584 KiB, 128 B chunks, "
                "101 ckpts, ~1 % changes per step): per-commit fixed work and index "
                "decode dominate."
            ),
            data_len=2048 * 73 * 4 + 128,
            chunk_size=128,
            checkpoints=101,
            build=_build_oranges,
        ),
        WorkloadSpec(
            name="dense_churn",
            why=(
                "512 KiB random buffer, 256 B chunks, 101 ckpts, 25 % rewritten per step "
                "with fresh bytes: DigestMap inserts and growth, payload gather, frame "
                "encode and write dominate."
            ),
            data_len=512 << 10,
            chunk_size=256,
            checkpoints=101,
            build=_build_dense_churn,
        ),
        WorkloadSpec(
            name="shift_shuffle",
            why=(
                "512 KiB, 128 B chunks, 101 ckpts, 16 KiB blocks swapped each step: "
                "DigestMap lookup hits and the shift pass instead of inserts; moved "
                "bytes must dedup."
            ),
            data_len=512 << 10,
            chunk_size=128,
            checkpoints=101,
            build=_build_shift_shuffle,
        ),
        WorkloadSpec(
            name="hifreq_reads",
            why=(
                "1 MiB, 1 KiB chunks, 151 small ckpts with cold reads beside the open "
                "writer: append and chain-length costs (manifest, index decode) "
                "dominate, tree work is trivial."
            ),
            data_len=1 << 20,
            chunk_size=1024,
            checkpoints=151,
            build=_build_hifreq_reads,
        ),
    )
}
