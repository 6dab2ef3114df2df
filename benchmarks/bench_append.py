"""Append-path benchmark: O(1) RecordWriter appends vs whole-chain rewrite.

Grows one on-disk record to 500 checkpoints through
:class:`~repro.core.store.RecordWriter` and proves the per-append cost
stays *flat* as the chain grows: the Nth append writes the new frame,
one RPIX v4 row-group and one 120-byte record-log entry — never the N-1
existing frames, index rows or log entries.  The pre-PR path
(``save_record`` rewriting the whole chain, measured here as a fresh
whole-chain save) is timed at chain lengths 10 and 500 for contrast:
that cost grows linearly with the chain.

Reported per the ISSUE's acceptance bar:

* ``tail_over_head_ratio`` — median wall ms of appends 490..500 over
  appends 5..15 (floor: ≤ 1.5x, i.e. append #500 costs what #10 did);
* ``bytes_tail_over_head_ratio`` — same windows over
  ``AppendReceipt.bytes_written`` (the log entry is a constant: only the
  frame and row-group of the checkpoint itself may move it);
* ``index_bytes_per_append_ratio`` — row-group bytes per append, tail
  over head (the index append is O(rows in this checkpoint), so flat);
* four-method byte-identity — N ``append()`` calls produce a directory
  bit-identical to one whole-chain ``save_record``;
* ``long_chain`` — a unit's heap, a writer reopened on its record (heap
  and wall ms) at 101 and 1,001 checkpoints of 256 KiB in 128 B chunks:
  the writer keeps one row and the first-store table, so the reopened
  writer's heap stays under ``MAX_REOPENED_WRITER_MIB`` at 1,001.

Writes ``BENCH_append.json`` next to the repo root (or
``$REPRO_BENCH_OUT``).  Run directly or under pytest — the pytest hook
enforces the floors.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import IncrementalCheckpointer
from repro.core import RecordWriter, save_record
from repro.core.checkpointer import ENGINES
from repro.telemetry import events

MB = 1 << 20

BUFFER_BYTES = 1 * MB
CHUNK_SIZE = 1024
HOT_WINDOW = 256 * 1024
CHAIN_LEN = 500
#: Median wall/bytes windows: appends 5..15 (head) vs 490..500 (tail).
HEAD_WINDOW = (5, 16)
TAIL_WINDOW = (CHAIN_LEN - 11, CHAIN_LEN - 1)
#: Acceptance ceiling (ISSUE 8): append #500 costs ≤1.5x append #10.
MAX_TAIL_OVER_HEAD = 1.5

IDENTITY_METHODS = ("full", "basic", "list", "tree")
IDENTITY_CHAIN_LEN = 12
IDENTITY_BUFFER = 64 * 1024
IDENTITY_CHUNK = 256

#: The long-chain probe: one random 2 KiB rewrite per step.
LONG_CHAIN_LENGTHS = (101, 1001)
LONG_CHAIN_BUFFER = 256 * 1024
LONG_CHAIN_CHUNK = 128
LONG_CHAIN_REWRITE = 2048
#: Ceiling on the heap of a writer reopened on the 1,001-checkpoint record.
MAX_REOPENED_WRITER_MIB = 2.0


def _scratch_dir() -> tempfile.TemporaryDirectory:
    """Record scratch space, on tmpfs when the host has one.

    The gate below asserts the *algorithmic* flatness of the append path
    (append #500 costs what #10 did).  On a disk-backed tempdir the
    kernel's dirty-page writeback throttling kicks in partway through
    the 500-append run and adds ~10 ms device stalls to late appends
    only — noise that would swamp the quantity under test.  tmpfs keeps
    every append on the same (memory) device; the fallback is the
    platform default.
    """
    shm = Path("/dev/shm")
    base = str(shm) if shm.is_dir() and os.access(shm, os.W_OK) else None
    return tempfile.TemporaryDirectory(dir=base)


def _mutate(buf: np.ndarray, rng: np.random.Generator) -> None:
    """Rewrite the hot window — each step supersedes the previous one."""
    buf[:HOT_WINDOW] = rng.integers(0, 256, HOT_WINDOW, dtype=np.uint8)


def _median(values, lo: int, hi: int) -> float:
    return float(statistics.median(values[lo:hi]))


def bench_append_curve(directory: Path) -> dict:
    """500 incremental appends, per-append wall ms and bytes written."""
    rng = np.random.default_rng(0xA99E17D)
    engine = ENGINES["tree"](BUFFER_BYTES, CHUNK_SIZE)
    buf = rng.integers(0, 256, BUFFER_BYTES, dtype=np.uint8)

    wall_ms, bytes_written, index_bytes = [], [], []
    with events.journal_to(None) as journal:
        with RecordWriter(directory / "grown", method="tree") as writer:
            for step in range(CHAIN_LEN):
                if step:
                    _mutate(buf, rng)
                diff = engine.checkpoint(buf)
                t0 = time.perf_counter()
                receipt = writer.append(diff)
                wall_ms.append((time.perf_counter() - t0) * 1e3)
                bytes_written.append(receipt.bytes_written)
                index_bytes.append(receipt.index_bytes)
        appended = [
            r for r in journal.records() if r["type"] == events.RECORD_APPENDED
        ]
    assert len(appended) == CHAIN_LEN

    lo, hi = HEAD_WINDOW
    tlo, thi = TAIL_WINDOW
    head_ms = _median(wall_ms, lo, hi)
    tail_ms = _median(wall_ms, tlo, thi)
    head_bytes = _median(bytes_written, lo, hi)
    tail_bytes = _median(bytes_written, tlo, thi)
    head_index = _median(index_bytes, lo, hi)
    tail_index = _median(index_bytes, tlo, thi)
    return {
        "chain_len": CHAIN_LEN,
        "buffer_bytes": BUFFER_BYTES,
        "chunk_size": CHUNK_SIZE,
        "hot_window_bytes": HOT_WINDOW,
        "head_ms": round(head_ms, 3),
        "tail_ms": round(tail_ms, 3),
        "tail_over_head_ratio": round(tail_ms / head_ms, 3),
        "head_bytes": int(head_bytes),
        "tail_bytes": int(tail_bytes),
        "bytes_tail_over_head_ratio": round(tail_bytes / head_bytes, 3),
        "head_index_bytes": int(head_index),
        "tail_index_bytes": int(tail_index),
        "index_bytes_per_append_ratio": round(tail_index / head_index, 3),
        "total_bytes_written": int(sum(bytes_written)),
        "journal_appends": len(appended),
        "journal_bytes_written": int(sum(r["bytes_written"] for r in appended)),
    }


def bench_whole_rewrite(directory: Path) -> dict:
    """The pre-PR append cost: one whole-chain save per growth step.

    Before the writer, appending checkpoint N meant ``save_record`` over
    the full N-checkpoint chain — every frame re-serialized and
    rewritten.  A fresh whole-chain save at lengths 10 and 500 measures
    exactly that cost; its linear growth is the contrast line for the
    flat per-append curve above.
    """
    rng = np.random.default_rng(0xA99E17D)
    engine = ENGINES["tree"](BUFFER_BYTES, CHUNK_SIZE)
    buf = rng.integers(0, 256, BUFFER_BYTES, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    for _ in range(1, CHAIN_LEN):
        _mutate(buf, rng)
        diffs.append(engine.checkpoint(buf))

    points = []
    for length in (10, CHAIN_LEN):
        target = directory / f"whole-{length}"
        t0 = time.perf_counter()
        save_record(diffs[:length], target, method="tree")
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        points.append({"chain_len": length, "save_ms": round(elapsed_ms, 2)})
    growth = points[-1]["save_ms"] / max(points[0]["save_ms"], 1e-9)
    return {"points": points, "growth_500_over_10": round(growth, 2)}


def bench_identity(directory: Path) -> dict:
    """N appends vs one whole-chain save: bit-identical directories."""
    results = []
    for method in IDENTITY_METHODS:
        rng = np.random.default_rng(0x1D ^ hash(method) & 0xFFFF)
        engine = ENGINES[method](IDENTITY_BUFFER, IDENTITY_CHUNK)
        buf = rng.integers(0, 256, IDENTITY_BUFFER, dtype=np.uint8)
        diffs = [engine.checkpoint(buf)]
        for k in range(1, IDENTITY_CHAIN_LEN):
            lo = (k * 131) % (IDENTITY_BUFFER - 4096)
            buf[lo : lo + 4096] = k % 256
            diffs.append(engine.checkpoint(buf))

        whole = directory / f"identity-{method}-whole"
        incremental = directory / f"identity-{method}-inc"
        save_record(diffs, whole, method=method)
        with RecordWriter(incremental, method=method) as writer:
            for diff in diffs:
                writer.append(diff)

        whole_files = {p.name: p.read_bytes() for p in sorted(whole.iterdir())}
        inc_files = {
            p.name: p.read_bytes() for p in sorted(incremental.iterdir())
        }
        results.append(
            {
                "method": method,
                "chain_len": IDENTITY_CHAIN_LEN,
                "files": len(whole_files),
                "identical": whole_files == inc_files,
            }
        )
    return {
        "methods": results,
        "all_identical": all(r["identical"] for r in results),
    }


def bench_long_chain(directory: Path) -> dict:
    """A unit's heap and a reopened writer's heap and reopen time as the
    chain grows (tracemalloc; the reopen time is the best of three,
    untraced)."""
    points = []
    for length in LONG_CHAIN_LENGTHS:
        target = directory / f"long-{length}"
        rng = np.random.default_rng(7)
        state = rng.integers(0, 256, LONG_CHAIN_BUFFER, dtype=np.uint8)
        tracemalloc.start()
        try:
            unit = IncrementalCheckpointer(
                LONG_CHAIN_BUFFER, LONG_CHAIN_CHUNK, "tree", record_dir=target
            )
            for step in range(length):
                if step:
                    lo = int(rng.integers(0, LONG_CHAIN_BUFFER - LONG_CHAIN_REWRITE))
                    state[lo : lo + LONG_CHAIN_REWRITE] = rng.integers(
                        0, 256, LONG_CHAIN_REWRITE, dtype=np.uint8
                    )
                unit.checkpoint(state)
            unit_heap = tracemalloc.get_traced_memory()[0]
            del unit
            tracemalloc.stop()
            tracemalloc.start()
            writer = RecordWriter(target, method="tree")
            writer_heap = tracemalloc.get_traced_memory()[0]
            del writer
        finally:
            tracemalloc.stop()
        reopen_ms = []
        for _ in range(3):
            t0 = time.perf_counter()
            RecordWriter(target, method="tree")
            reopen_ms.append((time.perf_counter() - t0) * 1e3)
        points.append(
            {
                "checkpoints": length,
                "unit_heap_mib": round(unit_heap / MB, 2),
                "reopened_writer_heap_mib": round(writer_heap / MB, 2),
                "reopen_ms": round(min(reopen_ms), 2),
            }
        )
    return {
        "buffer_bytes": LONG_CHAIN_BUFFER,
        "chunk_size": LONG_CHAIN_CHUNK,
        "rewrite_bytes": LONG_CHAIN_REWRITE,
        "points": points,
    }


def run(out_path: Path | None = None) -> dict:
    from repro import telemetry

    with _scratch_dir() as tmp:
        tmp_path = Path(tmp)
        with telemetry.capture() as tel:
            append = bench_append_curve(tmp_path)
            whole = bench_whole_rewrite(tmp_path)
            identity = bench_identity(tmp_path)
        # Outside the capture, which keeps every span it records: the
        # heaps are the unit's and the writer's own.
        long_chain = bench_long_chain(tmp_path)
    report = {
        "bench": "append",
        "max_tail_over_head": MAX_TAIL_OVER_HEAD,
        "append": append,
        "whole_rewrite": whole,
        "identity": identity,
        "long_chain": long_chain,
        "telemetry": tel,
    }
    if out_path is None:
        out_path = Path(
            os.environ.get(
                "REPRO_BENCH_OUT",
                Path(__file__).resolve().parent.parent / "BENCH_append.json",
            )
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    report["out_path"] = str(out_path)
    return report


def test_bench_append(capsys):
    report = run()
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2))
    append = report["append"]
    assert append["tail_over_head_ratio"] <= MAX_TAIL_OVER_HEAD, (
        f"append #{CHAIN_LEN} costs {append['tail_over_head_ratio']}x "
        f"append #10 in wall time (ceiling {MAX_TAIL_OVER_HEAD}x)"
    )
    assert append["bytes_tail_over_head_ratio"] <= MAX_TAIL_OVER_HEAD, (
        f"append #{CHAIN_LEN} writes {append['bytes_tail_over_head_ratio']}x "
        f"the bytes of append #10 (ceiling {MAX_TAIL_OVER_HEAD}x)"
    )
    assert append["index_bytes_per_append_ratio"] <= MAX_TAIL_OVER_HEAD, (
        "row-group bytes per append grew with the chain "
        f"({append['index_bytes_per_append_ratio']}x)"
    )
    assert report["identity"]["all_identical"], (
        "incremental appends diverged from the whole-chain save: "
        f"{report['identity']['methods']}"
    )
    # The contrast line: whole-chain rewriting grows with the chain.
    assert report["whole_rewrite"]["growth_500_over_10"] > MAX_TAIL_OVER_HEAD
    longest = report["long_chain"]["points"][-1]
    assert longest["reopened_writer_heap_mib"] <= MAX_REOPENED_WRITER_MIB, (
        f"a writer reopened on {longest['checkpoints']} checkpoints holds "
        f"{longest['reopened_writer_heap_mib']} MiB "
        f"(ceiling {MAX_REOPENED_WRITER_MIB} MiB)"
    )


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
