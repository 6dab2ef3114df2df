"""Perf-regression smoke tests for the restore path.

Marker-gated (``-m perf``): loose floors that catch a catastrophic
regression (the vectorized applies falling back to per-chunk Python
loops, or the indexed path re-reading the whole record) without being
sensitive to machine speed.  Precise numbers live in
``benchmarks/bench_restore.py`` / ``BENCH_restore.json``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Restorer, TreeDedup
from repro.core import restore_indexed, restore_record_indexed, save_record
from repro.core.chunking import ChunkSpec
from repro.core.serialize import group_by_source, place_chunks
from repro.hashing import native
from repro.core.checkpointer import IncrementalCheckpointer
from tests.conftest import numpy_path, ram_record

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
    record = ram_record(diffs)
    assert np.array_equal(restore_indexed(record)[0], final)
    replay_s = best_of(lambda: Restorer().restore(diffs))
    indexed_s = best_of(lambda: restore_indexed(record))
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


def _long_chain_unit(checkpoints):
    """The long-chain probe: 256 KiB in 128 B chunks, one random 2 KiB
    rewrite per step; the unit keeps its record in RAM."""
    rng = np.random.default_rng(7)
    n = 256 * 1024
    unit = IncrementalCheckpointer(n, 128, "tree")
    state = rng.integers(0, 256, n, dtype=np.uint8)
    for _ in range(checkpoints):
        at = int(rng.integers(0, n - 2048))
        state[at : at + 2048] = rng.integers(0, 256, 2048, dtype=np.uint8)
        unit.checkpoint(state)
    return unit, state


def test_a_unit_restores_its_ram_record_as_fast_as_a_cold_one(tmp_path):
    """A unit's own restore reads its RAM record the way a cold restore
    reads the same record from disk: one keyframe span, the named frames.
    Composing rows 0..k instead costs ~10x at 1,001 checkpoints."""
    unit, final = _long_chain_unit(1001)
    store = unit.record.writer.store
    for name in store.list():
        (tmp_path / name).write_bytes(store.pread(name))
    assert np.array_equal(unit.restore(), final)
    assert np.array_equal(restore_record_indexed(tmp_path)[0], final)
    ram_s = best_of(unit.restore)
    cold_s = best_of(lambda: restore_record_indexed(tmp_path))
    assert ram_s <= 1.25 * cold_s, (
        f"unit.restore() {ram_s * 1e3:.2f} ms vs cold "
        f"restore_record_indexed {cold_s * 1e3:.2f} ms"
    )


#: Floor on NumPy ``place_chunks`` time over the compiled call's, same
#: run, on ``bench_restore``'s 100-source 4 MiB gather.  Measured 1.4-1.7
#: on a 2-core x86-64 VM; a compiled call that fell back to per-source
#: Python work, or stopped being called, sits near 1.
NATIVE_GATHER_MIN_SPEEDUP = 1.2


def test_native_gather_beats_the_numpy_body(monkeypatch):
    if not native.native_available():
        pytest.skip("no C compiler / native kernel in this environment")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[2] / "benchmarks"))
    from bench_restore import GATHER_BYTES, GATHER_SOURCES, _gather_case

    rng = np.random.default_rng(0x6A7)
    state = rng.integers(0, 256, GATHER_BYTES, dtype=np.uint8)
    index, payloads = _gather_case(state, GATHER_SOURCES, rng)
    spec = ChunkSpec(index.data_len, index.chunk_size)
    order, refs, ends = group_by_source(index.src_ckpt)
    chunks = order.astype(np.int64)
    offs = index.src_off[chunks]
    sources = [payloads[t] for t in refs.tolist()]
    out = np.zeros(spec.data_len, dtype=np.uint8)

    def place():
        return place_chunks(out, spec, chunks, offs, sources, ends)

    place()
    assert np.array_equal(out, state)
    native_s = best_of(place, reps=15)
    with numpy_path():
        numpy_s = best_of(place, reps=15)
    assert np.array_equal(out, state)
    ratio = numpy_s / native_s
    assert ratio >= NATIVE_GATHER_MIN_SPEEDUP, (
        f"native place_chunks only {ratio:.2f}x the NumPy body "
        f"({native_s * 1e3:.2f} vs {numpy_s * 1e3:.2f} ms)"
    )
