#!/usr/bin/env python
"""Inspect the anatomy of a checkpoint record.

Runs ORANGES with the Tree engine and reports the unit's record — the
same report ``repro inspect`` prints: the per-checkpoint composition
(first/shift/fixed/zero split from the provenance index, region counts,
consolidation factor from each frame), the structural verdict, and where
the shifted duplicates of the final checkpoint point.

Run:  python examples/diff_inspector.py [num_vertices]
"""

import sys

from repro.core import restore_indexed
from repro.oranges import OrangesApp
from repro.telemetry.attribution import attribute_record
from repro.utils.units import format_bytes

num_vertices = int(sys.argv[1]) if len(sys.argv) > 1 else 1024

app = OrangesApp("unstructured_mesh", num_vertices=num_vertices, seed=5)
backend = app.make_backend("tree", chunk_size=64)
app.run({"tree": backend}, num_checkpoints=8)

record = backend.record.writer.store  # the unit's record, here in RAM
report = attribute_record(record, record="tree", emit=False)
print(report.summary())
print(f"\nintegrity: {'OK' if report.chain_ok else report.problems}")

last = report.checkpoints[-1]
unchanged = last.fixed_bytes + last.zero_bytes
print("\nfinal checkpoint anatomy:")
print(f"  fixed  {format_bytes(unchanged):>12s} "
      f"({100 * unchanged / last.data_len:.1f}%) — free")
print(f"  first  {format_bytes(last.first_bytes):>12s} — stored payload, "
      f"{sum(last.first_region_chunks.values())} regions, "
      f"size histogram {dict(last.first_region_chunks)}")
print(f"  shift  {format_bytes(last.shift_bytes):>12s} — references only, "
      f"{sum(last.shift_region_chunks.values())} regions")
print(f"  shifted duplicates point at checkpoints: {dict(last.shift_targets)}")

buffer, gather = restore_indexed(record)
print(f"\nprovenance gather of the final checkpoint read "
      f"{format_bytes(gather.total_payload_bytes_read)} from "
      f"{gather.frames_referenced} of {gather.frames_total} diffs: "
      f"{dict(sorted(gather.payload_bytes_read.items()))}")
