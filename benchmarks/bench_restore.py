"""Restore-path benchmark: chain replay vs provenance-indexed restart.

Builds synthetic checkpoint chains with *localized* mutation (a hot
window walks slowly through the buffer — the regime where most of the
final state still lives in early diffs), saves them to disk, and times a
cold restart both ways:

* ``replay``  — ``load_record`` (parse every frame) + ``Restorer``
                chain replay, the pre-overhaul restart path;
* ``indexed`` — ``restore_record_indexed``: read the provenance index,
                parse only the frames it names, one batched gather per
                referenced source payload.

Writes ``BENCH_restore.json`` next to the repo root (or
``$REPRO_BENCH_OUT``): all four methods at one chain length, plus a
Tree chain-length sweep (10/25/50) showing the replay cost growing with
the chain while the indexed cost tracks the *referenced* set.  Every
timed pair is asserted bit-identical first.

The ``gather`` block times :func:`~repro.core.provenance.materialize_index`
alone on one 4 MiB state of 128 B chunks, gathered once from 1 source
payload and once from 100 (each chunk's source drawn at random).  Its
``sources_100_over_1`` is a same-run ratio, so it holds on any host: a
gather that pays per source, not per byte, pushes it up.

Run directly (``python benchmarks/bench_restore.py``) or under pytest
(``pytest benchmarks/bench_restore.py``) — the pytest hook enforces the
acceptance floors: ≥5x speedup on the 50-checkpoint Tree chain, and the
gather ratio under ``GATHER_MAX_SOURCES_RATIO``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import Restorer, load_record, restore_record_indexed, save_record
from repro.core.checkpointer import ENGINES
from repro.core.provenance import ProvenanceIndex, materialize_index
from repro.core.store import load_provenance, record_index_bytes

MB = 1 << 20

BUFFER_BYTES = 4 * MB
CHUNK_SIZE = 1024
METHODS = ("full", "basic", "list", "tree")
TREE_SWEEP_LENGTHS = (10, 25, 50)
#: Acceptance floor for the 50-checkpoint Tree chain (ISSUE: ≥5x).
TREE50_MIN_SPEEDUP = 5.0

#: Fleet-restart strong-scaling sweep: large enough that per-rank
#: bandwidth terms dominate the fixed launch/DMA latencies (a 4 MB
#: buffer restores in ~200 us simulated — fan-out would only shave
#: latency it cannot remove).
FLEET_BUFFER_BYTES = 64 * MB
FLEET_CHUNK_SIZE = 4096
FLEET_CHAIN_LEN = 50
FLEET_RANKS = (1, 2, 4, 8, 16, 32, 64)
#: Acceptance floor (ISSUE 6): ≥6x at 16 ranks over single-GPU indexed.
FLEET16_MIN_SPEEDUP = 6.0

#: Gather-only case: one state, gathered from 1 and from 100 payloads.
GATHER_BYTES = 4 * MB
GATHER_CHUNK_SIZE = 128
GATHER_SOURCES = 100
GATHER_REPS = 15
#: Ceiling on ``gather.sources_100_over_1`` (also gated in
#: ``check_regression.py``): 100 sources may cost at most this much more
#: than 1 for the same bytes.
GATHER_MAX_SOURCES_RATIO = 2.5


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _build_chain(
    method: str,
    num_checkpoints: int,
    nbytes: int = BUFFER_BYTES,
    chunk_size: int = CHUNK_SIZE,
):
    """A chain that churns a fixed hot window every step.

    Each checkpoint fully rewrites the same hot quarter of the buffer, so
    every write before the last one is superseded: the final state lives
    in checkpoint 0 (the cold bulk) plus the last checkpoint (the hot
    window).  Replay must still parse and apply every intervening diff;
    the indexed path touches only the checkpoints the final state
    actually references.
    """
    rng = np.random.default_rng(0xC0FFEE ^ num_checkpoints)
    engine = ENGINES[method](nbytes, chunk_size)
    buf = rng.integers(0, 256, nbytes, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    window = nbytes // 4
    for _ in range(1, num_checkpoints):
        buf[:window] = rng.integers(0, 256, window, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
    return diffs, buf


def bench_one(method: str, num_checkpoints: int, directory: Path) -> dict:
    diffs, final = _build_chain(method, num_checkpoints)
    record_dir = directory / f"{method}-{num_checkpoints}"
    save_record(diffs, record_dir, method=method)
    del diffs  # cold restart: everything comes back from disk

    def replay():
        chain = load_record(record_dir)
        return Restorer().restore(chain)

    def indexed():
        out, _ = restore_record_indexed(record_dir)
        return out

    assert np.array_equal(replay(), final)
    assert np.array_equal(indexed(), final)

    replay_s = _best_of(replay)
    indexed_s = _best_of(indexed)
    _, report = restore_record_indexed(record_dir)
    return {
        "method": method,
        "chain_len": num_checkpoints,
        "buffer_bytes": BUFFER_BYTES,
        "replay_ms": round(replay_s * 1e3, 2),
        "indexed_ms": round(indexed_s * 1e3, 2),
        "speedup": round(replay_s / indexed_s, 2),
        "frames_parsed": report.frames_parsed,
        "frames_total": report.frames_total,
        "record_bytes": report.record_bytes,
        "frame_bytes_read": report.record_bytes_read - report.index_bytes,
        "index_bytes": report.index_bytes,
    }


def bench_fleet(directory: Path) -> dict:
    """Strong-scaling sweep: N ranks restoring one shared tree-50 record.

    Simulated seconds are the currency (wall time measures the host CPU
    doing all N ranks' gathers serially — meaningless for scaling); the
    baseline is the single-GPU indexed restore of the same record priced
    with the same shared PFS read, so the speedup isolates the fan-out +
    overlap contribution.  Every point's output is asserted bit-identical
    to the single-GPU restore before its numbers are recorded.
    """
    from repro.gpusim import KernelCostModel, thetagpu
    from repro.kokkos.execution import DeviceSpace
    from repro.runtime import restore_record_sharded

    cluster = thetagpu()
    diffs, final = _build_chain(
        "tree", FLEET_CHAIN_LEN, nbytes=FLEET_BUFFER_BYTES,
        chunk_size=FLEET_CHUNK_SIZE,
    )
    record_dir = directory / f"fleet-tree-{FLEET_CHAIN_LEN}"
    save_record(diffs, record_dir, method="tree")
    del diffs

    space = DeviceSpace(0)
    single, sreport = restore_record_indexed(record_dir, space=space)
    assert np.array_equal(single, final)
    single_cost = KernelCostModel(cluster.node.device).price_restore(
        space.ledger,
        int(single.nbytes),
        read_bytes=sreport.record_bytes_read,
        read_bandwidth=cluster.pfs_bandwidth,
    )

    points = []
    for ranks in FLEET_RANKS:
        t0 = time.perf_counter()
        out, report = restore_record_sharded(record_dir, ranks, cluster=cluster)
        wall = time.perf_counter() - t0
        assert np.array_equal(out, single), f"{ranks}-rank output diverged"
        speedup = single_cost.seconds / report.critical_path_seconds
        points.append(
            {
                "ranks": ranks,
                "windows": report.windows,
                "sim_seconds": report.critical_path_seconds,
                "read_seconds": report.cost.read_seconds,
                "gather_seconds": report.cost.gather_critical_seconds,
                "serial_seconds": report.cost.serial_seconds,
                "speedup": round(speedup, 2),
                "efficiency": round(speedup / ranks, 3),
                "wall_ms": round(wall * 1e3, 2),
            }
        )

    table = load_provenance(record_dir)
    index_bytes = record_index_bytes(record_dir)
    raw_bytes = table.raw_index_bytes
    return {
        "buffer_bytes": FLEET_BUFFER_BYTES,
        "chunk_size": FLEET_CHUNK_SIZE,
        "chain_len": FLEET_CHAIN_LEN,
        "cluster": "thetagpu",
        "single_sim_seconds": single_cost.seconds,
        "points": points,
        "rpix": {
            "index_bytes": index_bytes,
            "raw_bytes": raw_bytes,
            "compression_ratio": round(raw_bytes / index_bytes, 2),
            "bytes_per_chunk": round(
                index_bytes / (table.num_checkpoints * table.num_chunks), 3
            ),
        },
    }


def _gather_case(state: np.ndarray, num_sources: int, rng):
    """A row placing *state*'s chunks from *num_sources* payloads: each
    chunk's source drawn at random, each payload holding its chunks in
    chunk order."""
    cs = GATHER_CHUNK_SIZE
    rows = state.reshape(-1, cs)
    src_ckpt = rng.integers(0, num_sources, rows.shape[0]).astype(np.int32)
    src_off = np.empty(rows.shape[0], dtype=np.int64)
    payloads = {}
    for t in range(num_sources):
        chunks = np.flatnonzero(src_ckpt == t)
        src_off[chunks] = np.arange(chunks.shape[0], dtype=np.int64) * cs
        payloads[t] = rows[chunks].reshape(-1)
    index = ProvenanceIndex(
        ckpt_id=num_sources - 1,
        data_len=state.shape[0],
        chunk_size=cs,
        src_ckpt=src_ckpt,
        src_off=src_off,
    )
    return index, payloads


def bench_gather() -> dict:
    """``materialize_index`` alone, best of ``GATHER_REPS``: the same
    bytes from 1 source payload and from ``GATHER_SOURCES``."""
    rng = np.random.default_rng(0x6A7)
    state = rng.integers(0, 256, GATHER_BYTES, dtype=np.uint8)
    best = {}
    for sources in (1, GATHER_SOURCES):
        index, payloads = _gather_case(state, sources, rng)
        assert np.array_equal(materialize_index(index, payloads.__getitem__), state)
        best[sources] = _best_of(
            lambda: materialize_index(index, payloads.__getitem__), GATHER_REPS
        )
    return {
        "buffer_bytes": GATHER_BYTES,
        "chunk_size": GATHER_CHUNK_SIZE,
        "sources_1_ms": round(best[1] * 1e3, 3),
        f"sources_{GATHER_SOURCES}_ms": round(best[GATHER_SOURCES] * 1e3, 3),
        f"sources_{GATHER_SOURCES}_over_1": round(best[GATHER_SOURCES] / best[1], 3),
    }


def run(out_path: Path | None = None) -> dict:
    from repro import telemetry

    with telemetry.capture() as tel:
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            methods = [bench_one(m, 25, tmp_path) for m in METHODS]
            tree_sweep = [
                bench_one("tree", n, tmp_path) for n in TREE_SWEEP_LENGTHS
            ]
            fleet = bench_fleet(tmp_path)
        gather = bench_gather()
    report = {
        "bench": "restore",
        "tree50_min_speedup": TREE50_MIN_SPEEDUP,
        "fleet16_min_speedup": FLEET16_MIN_SPEEDUP,
        "gather_max_sources_ratio": GATHER_MAX_SOURCES_RATIO,
        "methods": methods,
        "tree_sweep": tree_sweep,
        "fleet": fleet,
        "gather": gather,
        "telemetry": tel,
    }
    if out_path is None:
        out_path = Path(
            os.environ.get(
                "REPRO_BENCH_OUT",
                Path(__file__).resolve().parent.parent / "BENCH_restore.json",
            )
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    report["out_path"] = str(out_path)
    return report


def test_bench_restore(capsys):
    report = run()
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2))
    tree50 = next(r for r in report["tree_sweep"] if r["chain_len"] == 50)
    assert tree50["speedup"] >= TREE50_MIN_SPEEDUP, (
        f"indexed restore only {tree50['speedup']}x faster than replay on "
        f"the 50-checkpoint tree chain (floor {TREE50_MIN_SPEEDUP}x)"
    )
    assert tree50["frames_parsed"] < tree50["frames_total"]
    for row in report["methods"]:
        assert row["indexed_ms"] > 0 and row["replay_ms"] > 0
    fleet = report["fleet"]
    fleet16 = next(p for p in fleet["points"] if p["ranks"] == 16)
    assert fleet16["speedup"] >= FLEET16_MIN_SPEEDUP, (
        f"16-rank fleet restore only {fleet16['speedup']}x faster than the "
        f"single-GPU indexed restore (floor {FLEET16_MIN_SPEEDUP}x)"
    )
    assert fleet["rpix"]["compression_ratio"] >= 4.0, (
        f"RPIX v2 only {fleet['rpix']['compression_ratio']}x vs raw "
        f"12 B/chunk"
    )
    ratio = report["gather"][f"sources_{GATHER_SOURCES}_over_1"]
    assert ratio <= GATHER_MAX_SOURCES_RATIO, (
        f"gathering one state from {GATHER_SOURCES} payloads costs {ratio}x "
        f"gathering it from 1 (ceiling {GATHER_MAX_SOURCES_RATIO}x)"
    )


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
