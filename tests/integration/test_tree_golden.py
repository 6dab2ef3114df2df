"""Bit-identical regression goldens for the Tree engine's hot path.

The fused-kernel overhaul (native/vectorized hashing, sort-free
``insert_or_lookup``, cached shift references) must not change a single
emitted byte: labels, first/shift node sets, shift references, and payload
are all pure functions of the input trace.  These checksums were captured
from the seed implementation on a fixed-seed ORANGES trace; any divergence
means the rewrite altered the algorithm, not just its speed.
"""

import hashlib

import numpy as np
import pytest

from repro.core import TreeDedup
from repro.hashing import native
from repro.oranges import OrangesApp
from tests.conftest import numpy_path

#: (diff_sha256, labels_sha256, n_first, n_shift, payload_len) per checkpoint,
#: captured from the seed implementation (unstructured_mesh, 512 vertices,
#: seed=2, chunk_size=64, 5 checkpoints).
GOLDEN = [
    (
        "34220c74b9815dc2c6ffe4769e2db5154342a838d5a4ee543cdf24d0ff58f2ef",
        None,
        0,
        0,
        149504,
    ),
    (
        "36e6b03ddbaca67225716cd3f5202f540a6d2fe851e53a82fbf11fd3cba38903",
        "2023964adf4db9e1e95f6ee249a37fd96b907c0d6732789524e9f30dc0bd6493",
        117,
        14,
        8448,
    ),
    (
        "9de48a5fb33bd91720535347822cd986c59af028f03771dd55d93b67295c2628",
        "af93d12f2c6e4f8b76462b8ed99ea33cfd65a79e78cb1010ca8b70b853df5132",
        115,
        25,
        7936,
    ),
    (
        "5bf736b1bceea1ce645a86e46c9bc66152fcad2c893e0ff09f2c2ae51a8260ca",
        "0d46d31792e8678408c94d47dbaa5033ba3d19572a6768f34c1a45977141bbe0",
        107,
        32,
        7232,
    ),
    (
        "8484fc4b794d3d0785171d33ba17a0e1d5013c10a1b4dba62caebd604c003547",
        "84cde01d56b0bea9b3a0353aedb141ea2092f3b544dc928541d40c78c0497207",
        102,
        34,
        6912,
    ),
]


def _diff_digest(diff) -> str:
    h = hashlib.sha256()
    h.update(diff.method.encode())
    h.update(np.asarray(diff.first_ids, dtype=np.int64).tobytes())
    h.update(np.asarray(diff.shift_ids, dtype=np.int64).tobytes())
    h.update(np.asarray(diff.shift_ref_ids, dtype=np.int64).tobytes())
    h.update(np.asarray(diff.shift_ref_ckpts, dtype=np.int64).tobytes())
    h.update(diff.payload)
    return h.hexdigest()


def _trace_rows():
    app = OrangesApp("unstructured_mesh", num_vertices=512, seed=2)
    engine = app.fresh_engine()
    tree = TreeDedup(engine.buffer_nbytes, 64)
    out = []
    for snap in engine.checkpoint_stream(len(GOLDEN)):
        flat = snap.reshape(-1).view(np.uint8)
        diff = tree.checkpoint(flat)
        labels = tree.last_labels
        out.append(
            (
                _diff_digest(diff),
                hashlib.sha256(labels.tobytes()).hexdigest()
                if labels is not None
                else None,
                int(np.asarray(diff.first_ids).shape[0]),
                int(np.asarray(diff.shift_ids).shape[0]),
                len(diff.payload),
            )
        )
    return out


@pytest.fixture(scope="module")
def trace_diffs():
    return _trace_rows()


@pytest.fixture(scope="module")
def trace_chain():
    """The same fixed-seed ORANGES trace, kept as actual diffs + states."""
    app = OrangesApp("unstructured_mesh", num_vertices=512, seed=2)
    engine = app.fresh_engine()
    tree = TreeDedup(engine.buffer_nbytes, 64)
    diffs, states = [], []
    for snap in engine.checkpoint_stream(len(GOLDEN)):
        flat = np.ascontiguousarray(snap.reshape(-1).view(np.uint8))
        diffs.append(tree.checkpoint(flat))
        states.append(flat.copy())
    return diffs, states


def test_indexed_restore_bit_identical_on_golden_trace(trace_chain):
    """The restore overhaul must not change a byte on the golden trace:
    the provenance-indexed path reproduces every captured state exactly."""
    from repro.core import Restorer, restore_indexed
    from tests.conftest import ram_record

    diffs, states = trace_chain
    replay = Restorer().restore_all(diffs)
    record = ram_record(diffs)
    for k, want in enumerate(states):
        got, _ = restore_indexed(record, upto=k)
        assert np.array_equal(got, want)
        assert np.array_equal(got, replay[k])


def test_diff_checksums_bit_identical(trace_diffs):
    assert [row[0] for row in trace_diffs] == [g[0] for g in GOLDEN]


def test_label_checksums_bit_identical(trace_diffs):
    assert [row[1] for row in trace_diffs] == [g[1] for g in GOLDEN]


def test_region_counts_and_payload_sizes(trace_diffs):
    assert [row[2:] for row in trace_diffs] == [g[2:] for g in GOLDEN]


@pytest.mark.parametrize("path", ["native", "numpy"])
def test_goldens_hold_on_both_tree_paths(path):
    """The compiled passes and the NumPy passes they mirror are held to the
    same checksums, whichever of them the tests above happened to run."""
    if path == "native":
        if not native.native_available():
            pytest.skip("no C compiler / native kernel in this environment")
        rows = _trace_rows()
    else:
        with numpy_path():
            rows = _trace_rows()
    assert rows == GOLDEN
