"""Cold start of the program, run as a fresh subprocess and timed from
outside: import ``repro``, take one 64 KiB Tree checkpoint through
``NodeRuntime`` (which appends it to a record), restore it, compare.

Usage: ``python coldstart.py <src dir> <record root>``.
"""

import sys

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from repro.core.provenance import restore_record_indexed  # noqa: E402
from repro.runtime import NodeRuntime  # noqa: E402

buf = np.random.default_rng(0).integers(0, 256, 64 * 1024, dtype=np.uint8)
node = NodeRuntime(data_len=buf.size, chunk_size=128, num_processes=1, record_root=sys.argv[2])
node.checkpoint_all([buf], now=0.0)
out, _ = restore_record_indexed(node.record_path(0))
sys.exit(0 if np.array_equal(out, buf) else 1)
