"""Perf-regression smoke tests for the restore path.

Marker-gated (``-m perf``): loose floors that catch a catastrophic
regression (the vectorized applies falling back to per-chunk Python
loops, or the indexed path re-reading the whole record) without being
sensitive to machine speed.  Precise numbers live in
``benchmarks/bench_restore.py`` / ``BENCH_restore.json``.
"""

import time

import numpy as np
import pytest

from repro.core import Restorer, TreeDedup
from repro.core import restore_indexed, restore_record_indexed, save_record

pytestmark = pytest.mark.perf

MB = 1 << 20


def best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _hot_window_chain(num_checkpoints=20, nbytes=2 * MB, chunk_size=1024):
    rng = np.random.default_rng(5)
    tree = TreeDedup(nbytes, chunk_size)
    buf = rng.integers(0, 256, nbytes, dtype=np.uint8)
    diffs = [tree.checkpoint(buf)]
    window = nbytes // 4
    for _ in range(num_checkpoints - 1):
        buf[:window] = rng.integers(0, 256, window, dtype=np.uint8)
        diffs.append(tree.checkpoint(buf))
    return diffs, buf


def test_vectorized_replay_floor():
    """Replaying a 20-diff chain over a 2 MiB buffer must finish well
    under a second — a per-chunk Python loop is ~two orders slower."""
    diffs, final = _hot_window_chain()
    restorer = Restorer()
    assert np.array_equal(restorer.restore(diffs), final)
    secs = best_of(lambda: restorer.restore(diffs))
    assert secs < 1.0, f"chain replay took {secs * 1e3:.0f} ms"


def test_indexed_beats_replay_in_memory():
    diffs, final = _hot_window_chain()
    assert np.array_equal(restore_indexed(diffs)[0], final)
    replay_s = best_of(lambda: Restorer().restore(diffs))
    indexed_s = best_of(lambda: restore_indexed(diffs))
    # The fixed hot window leaves only 2 referenced checkpoints; a tie
    # here means the index is being recomputed or the gather degenerated.
    assert indexed_s < replay_s, (
        f"indexed {indexed_s * 1e3:.1f} ms not faster than "
        f"replay {replay_s * 1e3:.1f} ms"
    )


def test_indexed_cold_restart_reads_subset(tmp_path):
    diffs, final = _hot_window_chain()
    save_record(diffs, tmp_path)
    out, report = restore_record_indexed(tmp_path)
    assert np.array_equal(out, final)
    assert report.used_index
    assert report.frames_parsed < report.frames_total
    secs = best_of(lambda: restore_record_indexed(tmp_path))
    assert secs < 1.0, f"indexed cold restart took {secs * 1e3:.0f} ms"
