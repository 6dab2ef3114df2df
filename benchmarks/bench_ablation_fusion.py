"""Ablation — fused vs separate kernels (§2.1's fourth design principle).

The paper fuses hashing, map probing, label propagation and serialization
into a single kernel to avoid per-launch latency.  This bench runs the
Tree engine both ways and prices the difference: unfused launches one
kernel per pass per tree level, so its simulated time carries
O(levels) x launch-latency of pure overhead per checkpoint.

The restore side makes the same trade.  The provenance gather of an
ORANGES GDV chain's newest checkpoint is metered as one fused
``restore.gather`` launch over every source payload.  Its per-source
price — one launch per referenced source, each re-reading the index
slice — is derived from the same row: (sources - 1) more launches and
(sources - 1) more index-slice reads than the fused ledger.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro.bench.reporting import header
from repro.core import TreeDedup, restore_indexed
from repro.core.provenance import RAW_INDEX_BYTES_PER_CHUNK
from repro.core.store import save_record
from repro.gpusim import KernelCostModel, a100
from repro.kokkos import DeviceSpace
from repro.oranges import OrangesApp
from repro.record import MemoryStore
from repro.utils.rng import seeded_rng

try:
    from conftest import run_once
except ImportError:  # direct execution
    from benchmarks.conftest import run_once  # type: ignore


def commit_fusion(
    model: KernelCostModel, data_len: int, chunk_size: int, steps: int
) -> Dict[str, Tuple[float, float, float]]:
    """Per mode: (launches, kernel seconds, total seconds) per checkpoint."""
    rng = seeded_rng(7)
    base = rng.integers(0, 256, data_len, dtype=np.uint8)
    results = {}
    for fused in (True, False):
        engine = TreeDedup(data_len, chunk_size, fused=fused)
        engine.checkpoint(base)
        cur = base.copy()
        kernel_s = 0.0
        total_s = 0.0
        launches = 0
        for step in range(steps):
            cur = cur.copy()
            at = rng.integers(0, data_len - 4096)
            cur[at : at + 4096] = rng.integers(0, 256, 4096, dtype=np.uint8)
            engine.checkpoint(cur)
            cost = model.price(engine.space.ledger)
            kernel_s += cost.kernel_seconds
            total_s += cost.total_seconds
            launches += engine.space.ledger.total_launches
        mode = "fused" if fused else "unfused"
        results[mode] = (launches / steps, kernel_s / steps, total_s / steps)
    return results


def restore_fusion(
    model: KernelCostModel, vertices: int, chunk_size: int, checkpoints: int
) -> Dict[str, object]:
    """The newest checkpoint of an ORANGES GDV chain restored through the
    provenance gather, priced fused (as metered) and per source."""
    app = OrangesApp("message_race", num_vertices=vertices, seed=2023)
    engine = app.fresh_engine()
    tree = TreeDedup(engine.buffer_nbytes, chunk_size)
    diffs = [
        tree.checkpoint(snap.reshape(-1).view(np.uint8))
        for snap in engine.checkpoint_stream(checkpoints)
    ]
    space = DeviceSpace(0)
    state, restored = restore_indexed(save_record(diffs, MemoryStore()), space=space)
    sources = restored.frames_referenced
    fused = space.progress_snapshot()
    num_chunks = -(-state.size // chunk_size)
    per_source = dataclasses.replace(
        fused,
        launches=fused.launches + sources - 1,
        bytes_read=fused.bytes_read
        + (sources - 1) * num_chunks * RAW_INDEX_BYTES_PER_CHUNK,
    )
    return {
        "state_bytes": int(state.size),
        "sources": sources,
        "per_source": (per_source.launches, model.price_counts(per_source)),
        "fused": (fused.launches, model.price_counts(fused)),
    }


def report(
    data_len: int = 8 << 20,
    chunk_size: int = 128,
    steps: int = 5,
    vertices: int = 1024,
    checkpoints: int = 30,
) -> Tuple[str, Dict[str, float]]:
    """The two fusion tables and the speedups they print."""
    model = KernelCostModel(a100())
    lines = [
        header("Ablation — kernel fusion (Tree method, A100 model)"),
        f"{'mode':<10s}{'launches/ckpt':>15s}{'kernel time':>15s}{'total time':>15s}",
    ]
    commit = commit_fusion(model, data_len, chunk_size, steps)
    for mode, (launches, kernel_s, total_s) in commit.items():
        lines.append(
            f"{mode:<10s}{launches:>15.1f}{kernel_s * 1e6:>13.1f}us"
            f"{total_s * 1e6:>13.1f}us"
        )
    commit_speedup = commit["unfused"][2] / commit["fused"][2]
    lines.append(
        f"\nfusion speedup: {commit_speedup:.2f}x (per-checkpoint device time)"
    )

    restore = restore_fusion(model, vertices, chunk_size, checkpoints)
    lines += [
        "",
        f"restore of an ORANGES GDV row ({vertices} vertices, "
        f"{restore['state_bytes']} B, {chunk_size} B chunks, checkpoint "
        f"{checkpoints - 1}, {restore['sources']} sources)",
        f"{'mode':<12s}{'launches':>10s}{'gather':>13s}{'total':>13s}{'sim GB/s':>10s}",
    ]
    for mode in ("per_source", "fused"):
        launches, cost = restore[mode]
        lines.append(
            f"{mode.replace('_', '-'):<12s}{launches:>10d}"
            f"{cost.kernel_seconds * 1e6:>11.1f}us{cost.total_seconds * 1e6:>11.1f}us"
            f"{restore['state_bytes'] / cost.total_seconds / 1e9:>10.2f}"
        )
    restore_speedup = (
        restore["per_source"][1].total_seconds / restore["fused"][1].total_seconds
    )
    lines.append(
        f"\nrestore fusion speedup: {restore_speedup:.2f}x (simulated gather + H2D)"
    )
    speedups = {"commit": commit_speedup, "restore": restore_speedup}
    return "\n".join(lines), speedups


def run(*args, **kwargs) -> str:
    """The two fusion tables (``repro bench fusion`` prints them)."""
    return report(*args, **kwargs)[0]


def test_ablation_fusion(benchmark, capsys):
    table, speedups = run_once(benchmark, report)
    with capsys.disabled():
        print("\n" + table)
    assert speedups["commit"] > 1.0
    assert speedups["restore"] > 1.0  # fused restore cheaper than per source


if __name__ == "__main__":
    print(run())
