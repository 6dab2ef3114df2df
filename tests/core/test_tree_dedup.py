"""Algorithm-level tests of the Tree method (Algorithm 1, §2.2).

The three passes run as compiled level scans when the native object loaded
and as the NumPy passes otherwise.  The classes below run on whichever path
the host loads; the differential section at the end drives one engine per
path through the same checkpoints and is what decides that the two agree —
on every emitted byte, label, digest, table slot, probe count and ledger
record.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import FIRST_OCUR, FIXED_DUPL, MIXED, SHIFT_DUPL, Restorer, TreeDedup
from repro.core.labels import count_labels
from repro.hashing import native
from repro.kokkos import DigestMap
from tests.conftest import numpy_path


def chunk(tag, size=64):
    rng = np.random.default_rng(abs(hash(tag)) % 2**31)
    return rng.integers(0, 256, size, dtype=np.uint8)


def buffer(tags, size=64):
    return np.concatenate([chunk(t, size) for t in tags])


class TestFigure2:
    """The paper's worked example: 8 leaves, 7 naive entries → 3 compact."""

    def setup_method(self):
        self.engine = TreeDedup(8 * 64, 64)
        # Checkpoint 1: 8 distinct chunks A..H on leaves 7..14.
        self.c1 = buffer("ABCDEFGH")
        # Checkpoint 2: I,J,K,L new; 5th chunk fixed (E); 6th shifted (=C);
        # 7th,8th = old A,B (shifted pair -> region 6).
        self.c2 = buffer(["I", "J", "K", "L", "E", "C", "A", "B"])

    def test_initial_checkpoint_full_and_record_seeded(self):
        d1 = self.engine.checkpoint(self.c1)
        assert d1.method == "full"
        assert d1.payload_bytes == 8 * 64
        # The historical record holds all 15 node digests.
        assert len(self.engine.map) == 15

    def test_compact_metadata_is_three_entries(self):
        self.engine.checkpoint(self.c1)
        d2 = self.engine.checkpoint(self.c2)
        assert d2.num_first + d2.num_shift == 3

    def test_exact_regions(self):
        self.engine.checkpoint(self.c1)
        d2 = self.engine.checkpoint(self.c2)
        # Region 1 = consolidated first occurrences I,J,K,L (chunks 0-3).
        assert d2.first_ids.tolist() == [1]
        # Regions 6 (chunks 6-7 -> old node 3) and leaf 12 (chunk 5 -> old
        # leaf 9, i.e. chunk C).  Fixed chunk 11 omitted entirely.
        assert d2.shift_ids.tolist() == [6, 12]
        refs = dict(zip(d2.shift_ids.tolist(), d2.shift_ref_ids.tolist()))
        assert refs[6] == 3
        assert refs[12] == 9
        assert d2.shift_ref_ckpts.tolist() == [0, 0]

    def test_payload_only_first_occurrences(self):
        self.engine.checkpoint(self.c1)
        d2 = self.engine.checkpoint(self.c2)
        assert d2.payload == self.c2[: 4 * 64].tobytes()

    def test_labels_match_paper(self):
        self.engine.checkpoint(self.c1)
        self.engine.checkpoint(self.c2)
        labels = self.engine.last_labels
        # Leaves 7-10 FIRST; leaf 11 FIXED; leaves 12-14 SHIFT.
        assert (labels[7:11] == FIRST_OCUR).all()
        assert labels[11] == FIXED_DUPL
        assert (labels[12:15] == SHIFT_DUPL).all()
        # Region 1 consolidated FIRST; region 6 consolidated SHIFT.
        assert labels[1] == FIRST_OCUR
        assert labels[6] == SHIFT_DUPL

    def test_restore_matches(self):
        d1 = self.engine.checkpoint(self.c1)
        d2 = self.engine.checkpoint(self.c2)
        restored = Restorer().restore_all([d1, d2])
        assert np.array_equal(restored[0], self.c1)
        assert np.array_equal(restored[1], self.c2)


class TestLabelSemantics:
    def test_unchanged_buffer_all_fixed(self):
        data = buffer("ABCD")
        engine = TreeDedup(len(data), 64)
        engine.checkpoint(data)
        d = engine.checkpoint(data)
        hist = count_labels(engine.last_labels)
        assert hist.get("FIXED_DUPL", 0) == 7  # whole tree fixed
        assert d.num_first == 0 and d.num_shift == 0
        assert d.payload_bytes == 0

    def test_fully_changed_buffer_single_first_region(self):
        engine = TreeDedup(8 * 64, 64)
        engine.checkpoint(buffer("ABCDEFGH"))
        d = engine.checkpoint(buffer("IJKLMNOP"))
        assert d.first_ids.tolist() == [0]  # the root
        assert d.payload_bytes == 8 * 64

    def test_spatial_duplicate_within_checkpoint(self):
        engine = TreeDedup(4 * 64, 64)
        engine.checkpoint(buffer("ABCD"))
        # Chunks 0,1 new and identical: leaf FIRST then SHIFT of same ckpt.
        d = engine.checkpoint(buffer(["X", "X", "C", "D"]))
        assert d.num_first == 1
        assert d.num_shift == 1
        assert d.shift_ref_ckpts.tolist() == [1]  # refers to current ckpt

    def test_shifted_duplicate_across_checkpoints(self):
        engine = TreeDedup(4 * 64, 64)
        engine.checkpoint(buffer("ABCD"))
        engine.checkpoint(buffer("EBCD"))
        d = engine.checkpoint(buffer(["E", "B", "C", "E"]))  # chunk3 = E
        assert d.num_first == 0
        assert d.num_shift == 1
        # E first occurred at checkpoint 1, leaf of chunk 0.
        assert d.shift_ref_ckpts.tolist() == [1]

    def test_mixed_label_set(self, rng):
        n = 64 * 64
        base = rng.integers(0, 256, n, dtype=np.uint8)
        engine = TreeDedup(n, 64)
        engine.checkpoint(base)
        nxt = base.copy()
        nxt[0:64] = chunk("new")          # FIRST
        nxt[10 * 64 : 11 * 64] = base[5 * 64 : 6 * 64]  # SHIFT
        engine.checkpoint(nxt)
        hist = count_labels(engine.last_labels)
        assert hist.get("FIRST_OCUR", 0) >= 1
        assert hist.get("SHIFT_DUPL", 0) >= 1
        assert hist.get("FIXED_DUPL", 0) >= 1
        assert hist.get("MIXED", 0) >= 1


class TestConsolidation:
    def test_aligned_region_copy_consolidates(self, rng):
        cs = 32
        n_chunks = 64
        base = rng.integers(0, 256, cs * n_chunks, dtype=np.uint8)
        engine = TreeDedup(len(base), cs)
        engine.checkpoint(base)
        nxt = base.copy()
        # Copy an aligned, same-parity 8-chunk region.
        nxt[16 * cs : 24 * cs] = base[0 : 8 * cs]
        d = engine.checkpoint(nxt)
        assert d.num_first == 0
        assert d.num_shift == 1  # single consolidated region
        assert d.payload_bytes == 0

    def test_contiguous_first_run_consolidates(self, rng):
        cs = 32
        base = rng.integers(0, 256, cs * 64, dtype=np.uint8)
        engine = TreeDedup(len(base), cs)
        engine.checkpoint(base)
        nxt = base.copy()
        nxt[32 * cs : 48 * cs] = rng.integers(0, 256, 16 * cs, dtype=np.uint8)
        d = engine.checkpoint(nxt)
        # 16 new chunks aligned to a subtree: exactly one region entry.
        assert d.num_first == 1
        assert d.metadata_bytes == 4

    def test_device_state_grows_with_record(self, rng):
        engine = TreeDedup(64 * 16, 64)
        before = engine.device_state_bytes()
        engine.checkpoint(rng.integers(0, 256, 1024, dtype=np.uint8))
        assert engine.device_state_bytes() >= before

    def test_odd_chunk_count(self, rng):
        # Incomplete tree: 13 chunks incl. short tail.
        data = rng.integers(0, 256, 64 * 12 + 30, dtype=np.uint8)
        engine = TreeDedup(len(data), 64)
        d0 = engine.checkpoint(data)
        nxt = data.copy()
        nxt[64:128] = chunk("Q")
        d1 = engine.checkpoint(nxt)
        restored = Restorer().restore_all([d0, d1])
        assert np.array_equal(restored[1], nxt)

    def test_single_chunk_buffer(self):
        data = chunk("A")
        engine = TreeDedup(64, 64)
        d0 = engine.checkpoint(data)
        d1 = engine.checkpoint(chunk("B"))
        assert d1.first_ids.tolist() == [0]
        restored = Restorer().restore_all([d0, d1])
        assert np.array_equal(restored[1], chunk("B"))


class TestHybridCompression:
    def test_payload_codec_roundtrip(self, rng):
        from repro.compress import get_codec

        codec = get_codec("deflate")
        n = 64 * 64
        base = rng.integers(0, 4, n, dtype=np.uint8)  # compressible
        engine = TreeDedup(n, 64, payload_codec=codec)
        d0 = engine.checkpoint(base)
        nxt = base.copy()
        nxt[: 64 * 8] = rng.integers(0, 4, 64 * 8, dtype=np.uint8)
        d1 = engine.checkpoint(nxt)
        restored = Restorer().restore_all([d0, d1])
        assert np.array_equal(restored[0], base)
        assert np.array_equal(restored[1], nxt)


# ----------------------------------------------------------------------
# Differential: one engine per path, same checkpoints, equal everything
# ----------------------------------------------------------------------
@pytest.fixture
def needs_native():
    if not native.native_available():
        pytest.skip("no C compiler / native kernel in this environment")


def engine_state(engine, diff):
    """Everything the two paths must agree on after a checkpoint."""
    m = engine.map
    shift_ids = np.asarray(diff.shift_ids if diff.shift_ids is not None else [], dtype=np.int64)
    return {
        "frame": diff.to_bytes(),
        "labels": None if engine.last_labels is None else engine.last_labels.tobytes(),
        "digests": engine.tree.digests.tobytes(),
        "shift_refs": engine._shift_refs[shift_ids].tobytes(),
        "map": (m.capacity, len(m), m.total_probes),
        "state": m._state.tobytes(),
        "keys": m._keys.tobytes(),
        "vals": m._vals.tobytes(),
        "ledger": [
            (r.name, r.launches, r.items, r.bytes_read, r.bytes_written, r.random_accesses)
            for r in engine.last_checkpoint_view().kernels
        ],
    }


class PathPair:
    """A native-path and a NumPy-path engine fed the same buffers."""

    def __init__(self, data_len, chunk_size, fused=True):
        self.fast = TreeDedup(data_len, chunk_size, fused=fused)
        with numpy_path():
            self.ref = TreeDedup(data_len, chunk_size, fused=fused)
        self.grows = 0

    def checkpoint(self, buf):
        """Checkpoint *buf* on both paths, assert parity, return the diff."""
        capacity = self.fast.map.capacity
        got = self.fast.checkpoint(buf.copy())
        with numpy_path():
            want = self.ref.checkpoint(buf.copy())
        self.grows += self.fast.map.capacity != capacity
        fast, ref = engine_state(self.fast, got), engine_state(self.ref, want)
        for key in ref:
            assert fast[key] == ref[key], (self.fast.next_ckpt_id - 1, key)
        return got


def apply_edit(buf, history, chunk_size, edit):
    """One chunk-aligned edit of *buf* in place."""
    kind, at, length, source, older, seed = edit
    chunks = -(-buf.shape[0] // chunk_size)
    a = (at % chunks) * chunk_size
    b = min(buf.shape[0], a + length * chunk_size)
    if kind == "fresh":
        buf[a:b] = np.random.default_rng(seed).integers(0, 256, b - a, dtype=np.uint8)
    elif kind == "zero":
        buf[a:b] = 0
    elif kind == "revert":  # an older checkpoint's content, in place
        buf[a:b] = history[older % len(history)][a:b]
    else:  # a copy from elsewhere: of the last checkpoint, or of an older one
        old = history[-1] if kind == "copy" else history[older % len(history)]
        src = (source % chunks) * chunk_size
        n = min(b - a, buf.shape[0] - src)
        buf[a : a + n] = old[src : src + n]


_edit = st.tuples(
    st.sampled_from(["fresh", "fresh", "zero", "copy", "revert", "revert_shifted"]),
    st.integers(0, 63),  # destination chunk
    st.integers(1, 24),  # length in chunks
    st.integers(0, 63),  # source chunk
    st.integers(0, 7),  # which older checkpoint
    st.integers(0, 2**16),  # fresh-content seed
)


@given(
    leaves=st.sampled_from([1, 2, 3, 8, 13, 16, 37, 64]),
    short_tail=st.booleans(),
    fused=st.booleans(),
    zero_run=st.booleans(),
    checkpoints=st.lists(st.lists(_edit, max_size=4), min_size=1, max_size=8),
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_native_and_numpy_passes_are_bit_identical(
    leaves, short_tail, fused, zero_run, checkpoints
):
    if not native.native_available():
        pytest.skip("no C compiler / native kernel in this environment")
    chunk_size = 16
    data_len = leaves * chunk_size - (5 if short_tail and leaves > 1 else 0)
    pair = PathPair(data_len, chunk_size, fused=fused)
    buf = np.random.default_rng(leaves).integers(0, 256, data_len, dtype=np.uint8)
    if zero_run:
        buf[: data_len // 2] = 0
    history = []
    for edits in [[]] + checkpoints:
        for edit in edits:
            apply_edit(buf, history, chunk_size, edit)
        pair.checkpoint(buf)
        history.append(buf.copy())


def test_long_sequence_grows_the_map_on_both_paths(needs_native, rng):
    """Fresh content every step: the table doubles several times, by the
    leaf insert and by the first pass, and the paths still agree."""
    chunk_size, leaves = 16, 37
    pair = PathPair(leaves * chunk_size - 3, chunk_size)
    buf = rng.integers(0, 256, leaves * chunk_size - 3, dtype=np.uint8)
    for step in range(12):
        if step:
            a = (step * 5 % leaves) * chunk_size
            buf[a : a + 9 * chunk_size] = rng.integers(
                0, 256, buf[a : a + 9 * chunk_size].shape[0], dtype=np.uint8
            )
        pair.checkpoint(buf)
    assert pair.grows >= 2


def test_growth_inside_the_first_pass_lands_on_the_same_level(needs_native, rng):
    chunk_size, leaves = 32, 16
    pair = PathPair(leaves * chunk_size, chunk_size, fused=False)
    buf = rng.integers(0, 256, leaves * chunk_size, dtype=np.uint8)
    pair.checkpoint(buf)
    assert (len(pair.fast.map), pair.fast.map.capacity) == (31, 64)  # room for 44

    # 8 fresh leaves under one subtree: the leaf insert (31 + 8) and the
    # first level (39 + 4) fit, the second level (43 + 2) does not.
    buf[: 8 * chunk_size] = rng.integers(0, 256, 8 * chunk_size, dtype=np.uint8)
    diff = pair.checkpoint(buf)
    assert diff.first_ids.tolist() == [1]
    assert pair.fast.map.capacity == 128 and len(pair.fast.map) == 46
    ledger = [
        (r.name, r.items, r.random_accesses)
        for r in pair.fast.last_checkpoint_view().kernels
    ]
    leaf_insert = ledger[2]
    assert leaf_insert[:2] == ("tree.classify_leaves", 8) and leaf_insert[2] < 43
    first_pass = [row for row in ledger if row[0] == "tree.first_pass"]
    assert [row[1] for row in first_pass] == [4, 2, 1]
    # The rebuild re-probes all 43 entries: charged to the level that grew.
    assert first_pass[0][2] < 43 <= first_pass[1][2] and first_pass[2][2] < 43


def test_one_leaf_tree_on_both_paths(needs_native):
    """No interior level: the root rule alone decides what is emitted."""
    pair = PathPair(64, 64)
    pair.checkpoint(chunk("A"))
    first = pair.checkpoint(chunk("B"))
    assert first.first_ids.tolist() == [0] and first.num_shift == 0
    fixed = pair.checkpoint(chunk("B"))
    assert fixed.num_first == 0 and fixed.num_shift == 0
    shifted = pair.checkpoint(chunk("A"))
    assert shifted.shift_ids.tolist() == [0]
    assert (shifted.shift_ref_ids.tolist(), shifted.shift_ref_ckpts.tolist()) == ([0], [0])


def test_telemetry_totals_do_not_depend_on_the_path(needs_native, checkpoint_stream):
    """Counters advance by the same amounts, and the consolidation spans
    carry the same simulated work, whichever path ran the passes."""

    def run():
        with telemetry.capture() as tel:
            engine = TreeDedup(len(checkpoint_stream[0]), 64, fused=False)
            engine.map = DigestMap(capacity_hint=16)  # grows on the way
            for buf in checkpoint_stream:
                engine.checkpoint(buf)
        return tel

    fast = run()
    with numpy_path():
        ref = run()
    for name in ("map.probes", "map.inserts", "map.grows", "hash.bytes", "hash.chunks"):
        assert fast["metrics"][name]["value"] == ref["metrics"][name]["value"] > 0, name
    for name in ("tree.process", "tree.map_leaves", "tree.first_pass", "tree.shift_pass"):
        assert fast["spans"][name]["sim_seconds"] == pytest.approx(
            ref["spans"][name]["sim_seconds"]
        ), name
