"""Hot-path wall-clock benchmark: hashing, DigestMap, end-to-end Tree.

Measures the kernels the overhaul targets and writes
``BENCH_hotpath.json`` next to the repo root (or ``$REPRO_BENCH_OUT``):

* ``hash``      — ``hash_chunks`` on a 1 MiB buffer at 128 B chunks (GB/s),
* ``map``       — ``DigestMap.insert`` of 100k unique + 100k duplicate
                  digests in one batch (Mops/s): bound by table allocation
                  and cache misses,
* ``map_small`` — 100 batches of 512 rows (half fresh, half repeats) into
                  one warm table (µs/row): bound by per-call and per-round
                  overhead, which is the regime the end-to-end workloads
                  run (2-13 map calls of 16-512 rows per checkpoint),
* ``tree_e2e``  — Tree checkpoints/second on the Fig. 4 chunk-size sweep
                  (only ``tree.checkpoint`` is inside the stopwatch),
* ``tree_passes`` — ms per checkpoint with the three Tree passes compiled
                  and with the NumPy passes they mirror (hashing and the
                  map native on both sides), for a one-byte change, a
                  block swap and a 25 % rewrite at two tree sizes.

Each section also records the seed implementation's best-of timing
(measured on the same host at the seed commit, before the overhaul) and
the resulting speedup, so the acceptance floors (≥2x hash, ≥1.5x insert)
are auditable from the JSON alone.

Run directly (``python benchmarks/bench_hotpath.py``) or under pytest
(``pytest benchmarks/bench_hotpath.py``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from repro.core import TreeDedup, dedup_tree
from repro.hashing import hash_chunks
from repro.hashing.native import native_available
from repro.kokkos import DigestMap

MB = 1 << 20

#: Seed-implementation best-of wall times on the reference host (1 vCPU,
#: NumPy lockstep kernels, pre-overhaul commit).  Used to report speedups.
SEED_BASELINE = {
    "hash_chunks_1mib_128b_ms": 1.09,
    "map_insert_200k_ms": 236.0,
}

FIG4_CHUNK_SIZES = (32, 64, 128, 256)


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_hash() -> dict:
    data = np.random.default_rng(1).integers(0, 256, MB, dtype=np.uint8)
    hash_chunks(data, 128)  # warm-up: native build + allocator
    secs = _best_of(lambda: hash_chunks(data, 128))
    ms = secs * 1e3
    return {
        "buffer_bytes": MB,
        "chunk_size": 128,
        "best_ms": round(ms, 4),
        "gb_per_s": round(MB / secs / 1e9, 3),
        "native_kernel": native_available(),
        "seed_best_ms": SEED_BASELINE["hash_chunks_1mib_128b_ms"],
        "speedup_vs_seed": round(
            SEED_BASELINE["hash_chunks_1mib_128b_ms"] / ms, 2
        ),
    }


def bench_map() -> dict:
    rng = np.random.default_rng(0)
    uniq = rng.integers(1, 2**63, size=(100_000, 2), dtype=np.uint64)
    keys = np.concatenate([uniq, uniq])
    rng.shuffle(keys)
    vals = np.zeros((200_000, 2), dtype=np.int64)
    vals[:, 0] = np.arange(200_000)

    def run():
        m = DigestMap(capacity_hint=200_000)
        m.insert(keys, vals)

    secs = _best_of(run, reps=5)
    ms = secs * 1e3
    return {
        "rows": 200_000,
        "unique": 100_000,
        "best_ms": round(ms, 2),
        "mops_per_s": round(200_000 / secs / 1e6, 3),
        "seed_best_ms": SEED_BASELINE["map_insert_200k_ms"],
        "speedup_vs_seed": round(SEED_BASELINE["map_insert_200k_ms"] / ms, 2),
    }


def bench_map_small() -> dict:
    batches, rows, capacity, load = 100, 512, 1 << 17, 0.38
    rng = np.random.default_rng(2)
    warm = rng.integers(1, 2**63, size=(int(load * capacity), 2), dtype=np.uint64)
    warm_vals = np.zeros((warm.shape[0], 2), dtype=np.int64)
    stream = []
    for _ in range(batches):
        fresh = rng.integers(1, 2**63, size=(rows // 2, 2), dtype=np.uint64)
        repeats = warm[rng.integers(0, warm.shape[0], rows // 2)]
        keys = np.concatenate([fresh, repeats])
        rng.shuffle(keys)
        stream.append(keys)
    vals = np.zeros((rows, 2), dtype=np.int64)
    vals[:, 0] = np.arange(rows)

    best = float("inf")
    for _ in range(5):
        # Sized so the stream never grows the table: growth is the one-batch
        # ``map`` row's business, this one times steady small calls.
        m = DigestMap(capacity_hint=90_000)
        m.insert(warm, warm_vals)
        assert m.capacity == capacity
        t0 = time.perf_counter()
        for keys in stream:
            m.insert_or_lookup(keys, vals)
        best = min(best, time.perf_counter() - t0)
        assert m.capacity == capacity
    return {
        "batches": batches,
        "rows_per_batch": rows,
        "start_load_factor": load,
        "end_load_factor": round(m.load_factor, 3),
        "native_kernel": native_available(),
        "best_ms": round(best * 1e3, 3),
        "us_per_row": round(best / (batches * rows) * 1e6, 4),
        "mops_per_s": round(batches * rows / best / 1e6, 3),
    }


def _time_checkpoints(tree: TreeDedup, states: list) -> list:
    """Seconds per ``tree.checkpoint`` over prebuilt *states*, nothing else
    inside the stopwatch."""
    secs = []
    for state in states:
        t0 = time.perf_counter()
        tree.checkpoint(state)
        secs.append(time.perf_counter() - t0)
    return secs


def bench_tree_e2e(buffer_mb: int = 4, checkpoints: int = 6) -> list:
    """Checkpoints/second for Tree across the Fig. 4 chunk sizes.

    A synthetic trace with sparse in-place mutation between checkpoints —
    the regime the incremental engine is built for.
    """
    out = []
    nbytes = buffer_mb * MB
    for chunk_size in FIG4_CHUNK_SIZES:
        rng = np.random.default_rng(7)
        buf = rng.integers(0, 256, nbytes, dtype=np.uint8)
        states = [buf.copy()]
        for _ in range(checkpoints):
            buf[rng.integers(0, nbytes, 4000)] ^= 0xFF
            states.append(buf.copy())
        tree = TreeDedup(nbytes, chunk_size)
        tree.checkpoint(states[0])  # ckpt 0: full flush + map seeding
        secs = sum(_time_checkpoints(tree, states[1:]))
        out.append(
            {
                "chunk_size": chunk_size,
                "buffer_bytes": nbytes,
                "checkpoints": checkpoints,
                "ckpt_per_s": round(checkpoints / secs, 2),
                "ms_per_ckpt": round(secs / checkpoints * 1e3, 2),
            }
        )
    return out


#: (buffer bytes, chunk size): the end-to-end workloads' tree, and a 16x
#: larger one where the dense label scans would show if they mattered.
TREE_PASSES_GEOMETRIES = ((512 << 10, 128), (4 * MB, 64))


def _tree_passes_states(nbytes: int, edit: str, checkpoints: int) -> list:
    rng = np.random.default_rng(11)
    buf = rng.integers(0, 256, nbytes, dtype=np.uint8)
    states = [buf.copy()]
    block = 16384
    for _ in range(checkpoints):
        if edit == "one_byte":
            buf[int(rng.integers(0, nbytes))] ^= 0xFF
        elif edit == "block_swap":  # the e2e ``shift_shuffle`` step
            blocks = nbytes // block
            pairs = max(1, (3 * blocks) // 32)
            picked = rng.choice(blocks, 2 * pairs, replace=False) * block
            for a, b in zip(picked[:pairs], picked[pairs:]):
                moved = buf[a : a + block].copy()
                buf[a : a + block] = buf[b : b + block]
                buf[b : b + block] = moved
            at = int(rng.integers(0, nbytes // 4096)) * 4096
            buf[at : at + 4096] = rng.integers(0, 256, 4096, dtype=np.uint8)
        else:  # "dense_25": the e2e ``dense_churn`` step
            slots = nbytes // 2048
            for at in np.sort(rng.choice(slots, slots // 4, replace=False)) * 2048:
                buf[at : at + 2048] = rng.integers(0, 256, 2048, dtype=np.uint8)
        states.append(buf.copy())
    return states


def bench_tree_passes(checkpoints: int = 12) -> list:
    """The compiled Tree passes against the NumPy passes they mirror.

    Nothing but whether the shared object loaded selects between the two,
    so the NumPy side is timed by hiding the loader from ``dedup_tree``
    alone: hashing and ``DigestMap`` stay native on both sides and the
    ratio is the passes' own.  Median ms over *checkpoints* checkpoints.
    """
    numpy_passes = mock.patch.object(
        dedup_tree, "_native", SimpleNamespace(get_lib=lambda: None)
    )
    out = []
    for nbytes, chunk_size in TREE_PASSES_GEOMETRIES:
        for edit in ("one_byte", "block_swap", "dense_25"):
            states = _tree_passes_states(nbytes, edit, checkpoints)
            ms = {}
            for path, passes in (("native", nullcontext()), ("numpy", numpy_passes)):
                tree = TreeDedup(nbytes, chunk_size)
                tree.checkpoint(states[0])
                with passes:
                    secs = _time_checkpoints(tree, states[1:])
                ms[path] = float(np.median(secs)) * 1e3
            out.append(
                {
                    "case": f"{nbytes >> 10}k_{chunk_size}b_{edit}",
                    "buffer_bytes": nbytes,
                    "chunk_size": chunk_size,
                    "edit": edit,
                    "native_kernel": native_available(),
                    "ms_per_ckpt": round(ms["native"], 4),
                    "numpy_ms_per_ckpt": round(ms["numpy"], 4),
                    "speedup_vs_numpy": round(ms["numpy"] / ms["native"], 2),
                }
            )
    return out


def run(out_path: Path | None = None) -> dict:
    from repro import telemetry

    with telemetry.capture() as tel:
        report = {
            "bench": "hotpath",
            "hash": bench_hash(),
            "map": bench_map(),
            "map_small": bench_map_small(),
            "tree_e2e": bench_tree_e2e(),
            "tree_passes": bench_tree_passes(),
        }
    report["telemetry"] = tel
    if out_path is None:
        out_path = Path(
            os.environ.get(
                "REPRO_BENCH_OUT",
                Path(__file__).resolve().parent.parent / "BENCH_hotpath.json",
            )
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    report["out_path"] = str(out_path)
    return report


def test_bench_hotpath(capsys):
    report = run()
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2))
    assert report["hash"]["gb_per_s"] > 0
    assert report["map"]["mops_per_s"] > 0
    assert report["map_small"]["us_per_row"] > 0
    assert len(report["tree_e2e"]) == len(FIG4_CHUNK_SIZES)
    assert len(report["tree_passes"]) == 3 * len(TREE_PASSES_GEOMETRIES)
    assert all(row["ms_per_ckpt"] > 0 for row in report["tree_passes"])


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
