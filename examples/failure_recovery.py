#!/usr/bin/env python
"""Checkpoint/restart after a failure — the classic resilience scenario.

Runs ORANGES with periodic Tree checkpoints, kills the run partway
through ("node failure"), restores the latest durable checkpoint from
the on-disk record, resumes the computation from the restored frontier,
and verifies the final GDV is byte-identical to an uninterrupted run.

Run:  python examples/failure_recovery.py [num_vertices]
"""

import sys
import tempfile

import numpy as np

from repro.core import restore_indexed
from repro.oranges import GdvEngine, OrangesApp
from repro.utils.units import format_bytes

num_vertices = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
NUM_CHECKPOINTS = 8
FAIL_AFTER = 5  # the run dies after this many checkpoints

app = OrangesApp("delaunay", num_vertices=num_vertices, seed=13)
graph = app.graph
n = graph.num_vertices

# ----- original run, interrupted ------------------------------------
print(f"running ORANGES on delaunay |V|={n}, checkpoint every "
      f"{n // NUM_CHECKPOINTS} vertices ...")
engine = app.fresh_engine()
boundaries = np.linspace(0, n, NUM_CHECKPOINTS + 1).astype(int)[1:]
frontiers = []
with tempfile.TemporaryDirectory() as record_dir:
    # The unit appends every checkpoint to its record directory as it goes.
    backend = app.make_backend("tree", chunk_size=128, record_dir=record_dir)
    for i, snapshot in enumerate(engine.checkpoint_stream(NUM_CHECKPOINTS)):
        backend.checkpoint(snapshot)
        frontiers.append(engine.next_vertex)
        if i + 1 == FAIL_AFTER:
            print(f"!! simulated failure after checkpoint {i} "
                  f"(frontier at vertex {engine.next_vertex})")
            break
    print(f"durable record: {len(backend.record)} diffs, "
          f"{format_bytes(backend.record.total_stored_bytes())} "
          f"(vs {format_bytes(backend.record.total_full_bytes())} full)")

    # ----- recovery: a fresh process reads the record -----------------
    state, report = restore_indexed(record_dir)
    print(f"restored checkpoint {report.target_ckpt} reading "
          f"{format_bytes(report.total_payload_bytes_read)} from "
          f"{report.frames_referenced} of {report.frames_total} diffs")

resumed = GdvEngine(graph, app.max_graphlet_size,
                    layout=app.layout, counting=app.counting)
resumed.load_state(state, frontiers[-1])
print(f"resuming from vertex {resumed.next_vertex} ...")
resumed.run_to_completion()

# ----- verification -------------------------------------------------
reference = GdvEngine(graph, app.max_graphlet_size,
                      layout=app.layout, counting=app.counting)
reference.run_to_completion()
assert np.array_equal(resumed.gdv, reference.gdv)
print("final GDV after recovery is byte-identical to an uninterrupted run")
