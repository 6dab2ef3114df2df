"""Cross-record dedup census benchmark: shared pool vs per-record dedup.

Builds a small multi-tenant fleet — ``N_TENANTS`` synthetic tenants
forked from one shared base buffer, each with a private region and its
own incremental edits — plus the fixed-seed ORANGES record, stores every
record to disk, and runs :class:`repro.telemetry.attribution.ChunkCensus`
over the directory.  This is the paper's dedup-ratio evaluation turned
attribution-first: instead of one aggregate number, the census prices
how much of each record's content already exists elsewhere and forecasts
the fleet-wide ratio a shared cross-tenant chunk pool would attain — the
acceptance number the checkpoint-as-a-service ROADMAP item is gated on.

Reported per the ISSUE's acceptance bar:

* ``census.pool_forecast_ratio`` — attainable fleet dedup with one
  shared pool (regression-gated in ``check_regression.py``);
* the shared-pool forecast must be ≥ the best intra-record ratio (the
  pool can only add sharing on this workload, never lose it);
* a per-record attribution of the ORANGES record whose byte classes sum
  exactly to its logical bytes (cross-checked here, golden-tested in
  ``tests/core/test_analysis.py``);
* a what-if chunk-size sweep over one tenant record pricing the
  dedup-vs-metadata tradeoff at 2–4 alternative chunk sizes.

Writes ``BENCH_census.json`` next to the repo root (or
``$REPRO_BENCH_OUT``).  Run directly or under pytest — the pytest hook
enforces the floors.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.checkpointer import ENGINES
from repro.core.store import save_record
from repro.oranges import OrangesApp
from repro.telemetry import events
from repro.telemetry.attribution import (
    ChunkCensus,
    attribute_record,
    chunk_size_sweep,
)

KB = 1 << 10

N_TENANTS = 4
TENANT_BUFFER = 256 * KB
#: One chunk size fleet-wide so tenant and ORANGES chunks can cross-match.
CHUNK_SIZE = 64
CHECKPOINTS = 5
#: The shared base is a random tile repeated across the buffer — real
#: checkpoint state is self-redundant (that is the paper's premise), and
#: the tiling gives every tenant both intra-record *and* cross-tenant
#: sharing to price.
TILE_BYTES = 16 * KB
#: Per-tenant private region (distinct content per tenant, fixed seed).
PRIVATE_BYTES = 24 * KB
#: Bytes each post-seed checkpoint rewrites.
EDIT_BYTES = 2 * KB

ORANGES_GRAPH = "unstructured_mesh"
ORANGES_VERTICES = 512
ORANGES_SEED = 2

#: Alternative chunk sizes the what-if sweep prices (64 is the baseline).
SWEEP_SIZES = (32, 64, 128, 256)


def build_tenant_records(directory: Path) -> list:
    """N tenants forked from one shared base, stored as tree records."""
    rng = np.random.default_rng(0xCE9505)
    tile = rng.integers(0, 256, TILE_BYTES, dtype=np.uint8)
    base = np.tile(tile, TENANT_BUFFER // TILE_BYTES)
    paths = []
    for tenant in range(N_TENANTS):
        trng = np.random.default_rng(0x7E9A97 + tenant)
        buf = base.copy()
        lo = tenant * PRIVATE_BYTES
        buf[lo : lo + PRIVATE_BYTES] = trng.integers(
            0, 256, PRIVATE_BYTES, dtype=np.uint8
        )
        engine = ENGINES["tree"](TENANT_BUFFER, CHUNK_SIZE)
        diffs = []
        for step in range(CHECKPOINTS):
            if step:
                at = int(trng.integers(0, TENANT_BUFFER - EDIT_BYTES))
                buf[at : at + EDIT_BYTES] = trng.integers(
                    0, 256, EDIT_BYTES, dtype=np.uint8
                )
            diffs.append(engine.checkpoint(buf))
        target = directory / f"tenant{tenant}"
        save_record(diffs, target, method="tree")
        paths.append(target)
    return paths


def build_oranges_record(directory: Path) -> Path:
    """The golden fixed-seed ORANGES trace as a stored record."""
    app = OrangesApp(
        ORANGES_GRAPH, num_vertices=ORANGES_VERTICES, seed=ORANGES_SEED
    )
    engine = app.fresh_engine()
    dedup = ENGINES["tree"](engine.buffer_nbytes, CHUNK_SIZE)
    diffs = []
    for snap in engine.checkpoint_stream(CHECKPOINTS):
        flat = np.ascontiguousarray(snap.reshape(-1).view(np.uint8))
        diffs.append(dedup.checkpoint(flat))
    target = directory / "oranges"
    save_record(diffs, target, method="tree")
    return target


def run(out_path: Path | None = None) -> dict:
    from repro import telemetry

    with telemetry.capture() as tel:
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            tenant_paths = build_tenant_records(tmp_path)
            oranges_path = build_oranges_record(tmp_path)

            with events.journal_to(None) as journal:
                census = ChunkCensus()
                for path in tenant_paths + [oranges_path]:
                    census.add_record(path)
                report = census.report()
                attribution = attribute_record(oranges_path)
                attr_events = [
                    r
                    for r in journal.records()
                    if r["type"] == events.ATTRIBUTION_SUMMARY
                ]
            sweep = chunk_size_sweep(tenant_paths[0], SWEEP_SIZES)

    class_sums_exact = all(
        c.first_bytes + c.shift_bytes + c.fixed_bytes + c.zero_bytes
        == c.data_len
        for c in attribution.checkpoints
    )
    doc = {
        "bench": "census",
        "tenants": N_TENANTS,
        "tenant_buffer_bytes": TENANT_BUFFER,
        "chunk_size": CHUNK_SIZE,
        "checkpoints": CHECKPOINTS,
        "census": report.as_dict(),
        "oranges_attribution": attribution.as_dict(),
        "oranges_class_sums_exact": class_sums_exact,
        "sweep": [p.as_dict() for p in sweep],
        "attribution_events": len(attr_events),
        "telemetry": tel,
    }
    if out_path is None:
        out_path = Path(
            os.environ.get(
                "REPRO_BENCH_OUT",
                Path(__file__).resolve().parent.parent / "BENCH_census.json",
            )
        )
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    doc["out_path"] = str(out_path)
    return doc


def test_bench_census(capsys):
    report = run()
    with capsys.disabled():
        print()
        print(
            json.dumps(
                {k: v for k, v in report.items() if k != "oranges_attribution"},
                indent=2,
            )
        )
    census = report["census"]
    assert census["num_records"] == N_TENANTS + 1
    # The shared pool can only add sharing on this fleet: its forecast
    # must beat every record's attainable intra-record ratio.
    assert census["pool_forecast_ratio"] > census["best_intra_ratio"], (
        f"shared pool forecast ×{census['pool_forecast_ratio']} fell below "
        f"the best intra-record ratio ×{census['best_intra_ratio']}"
    )
    # Tenants share the base tile, so every tenant row must show a real
    # cross-record duplicate share (the rest of its unique bytes are the
    # tenant-private region and its own edits).
    tenant_rows = [
        r for r in census["records"] if r["name"].startswith("tenant")
    ]
    assert len(tenant_rows) == N_TENANTS
    assert all(r["cross_duplicate_share"] >= 0.25 for r in tenant_rows)
    # ORANGES shares no content with the synthetic tenants — its row must
    # say so rather than inventing sharing.
    (oranges_row,) = [r for r in census["records"] if r["name"] == "oranges"]
    assert oranges_row["cross_duplicate_share"] == 0.0
    assert report["oranges_class_sums_exact"], (
        "ORANGES byte-attribution classes do not sum to logical bytes"
    )
    # The census emitted one row per record plus the fleet summary, and
    # attribute_record one record-scope summary.
    assert report["attribution_events"] == census["num_records"] + 2
    # The sweep covers the configured alternative sizes with sane pricing.
    assert [p["chunk_size"] for p in report["sweep"]] == list(SWEEP_SIZES)
    assert all(p["dedup_ratio"] > 1.0 for p in report["sweep"])


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
