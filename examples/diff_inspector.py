#!/usr/bin/env python
"""Inspect the anatomy of a checkpoint record.

Runs ORANGES with the Tree engine, persists the record to disk, reloads
it, prints the per-checkpoint composition (fixed/first/shift split,
region counts, consolidation factor), verifies structural integrity, and
shows where the shifted duplicates of the final checkpoint point.

Run:  python examples/diff_inspector.py [num_vertices]
"""

import sys
import tempfile
from collections import Counter

from repro.core import analyze_record, composition_report, restore_indexed, verify_chain
from repro.core.store import load_record, save_record
from repro.oranges import OrangesApp
from repro.utils.units import format_bytes

num_vertices = int(sys.argv[1]) if len(sys.argv) > 1 else 1024

app = OrangesApp("unstructured_mesh", num_vertices=num_vertices, seed=5)
backend = app.make_backend("tree", chunk_size=64)
app.run({"tree": backend}, num_checkpoints=8)

with tempfile.TemporaryDirectory() as tmp:
    path = save_record(backend.record.diffs, tmp, method="tree")
    diffs = load_record(path)
    print(f"record persisted and reloaded from {path} "
          f"({len(diffs)} checkpoints)\n")

print(composition_report(diffs))

problems = verify_chain(diffs)
print(f"\nintegrity: {'OK' if not problems else problems}")

compositions = analyze_record(diffs)
last = compositions[-1]
print(f"\nfinal checkpoint anatomy:")
print(f"  fixed  {format_bytes(last.fixed_bytes):>12s} "
      f"({100 * last.fixed_bytes / last.data_len:.1f}%) — free")
print(f"  first  {format_bytes(last.first_bytes):>12s} — stored payload, "
      f"{sum(last.first_region_chunks.values())} regions, "
      f"size histogram {dict(last.first_region_chunks)}")
print(f"  shift  {format_bytes(last.shift_bytes):>12s} — references only, "
      f"{sum(last.shift_region_chunks.values())} regions")
targets = Counter(last.shift_targets)
print(f"  shifted duplicates point at checkpoints: {dict(targets)}")

buffer, report = restore_indexed(diffs)
print(f"\nprovenance gather of the final checkpoint read "
      f"{format_bytes(report.total_payload_bytes_read)} from "
      f"{report.frames_referenced} of {report.frames_total} diffs: "
      f"{dict(sorted(report.payload_bytes_read.items()))}")
