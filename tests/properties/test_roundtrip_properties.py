"""Property-based tests (hypothesis): the round-trip invariant.

For ANY sequence of equal-length checkpoint buffers and ANY chunk size,
every method must reconstruct every checkpoint byte-exactly — the core
correctness contract of the whole system.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ENGINES, Restorer, restore_indexed
from repro.core.diff import CheckpointDiff
from tests.conftest import ram_record

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def checkpoint_streams(draw):
    """A stream of 1-4 checkpoints over a shared buffer with varied edits:
    point writes, region copies (shift dups), and no-ops (fixed dups)."""
    data_len = draw(st.integers(min_value=33, max_value=4096))
    chunk_size = draw(st.sampled_from([32, 33, 64, 100, 128]))
    chunk_size = min(chunk_size, data_len)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, data_len, dtype=np.uint8)
    stream = [base.copy()]
    num_steps = draw(st.integers(min_value=0, max_value=3))
    cur = base
    for _ in range(num_steps):
        cur = cur.copy()
        kind = draw(st.sampled_from(["noop", "point", "copy", "fill"]))
        if kind == "point":
            pos = draw(st.integers(min_value=0, max_value=data_len - 1))
            cur[pos] ^= 0xFF
        elif kind == "copy" and data_len >= 8:
            span = draw(st.integers(min_value=1, max_value=data_len // 2))
            src = draw(st.integers(min_value=0, max_value=data_len - span))
            dst = draw(st.integers(min_value=0, max_value=data_len - span))
            cur[dst : dst + span] = cur[src : src + span].copy()
        elif kind == "fill":
            span = draw(st.integers(min_value=1, max_value=data_len))
            start = draw(st.integers(min_value=0, max_value=data_len - span))
            cur[start : start + span] = draw(
                st.integers(min_value=0, max_value=255)
            )
        stream.append(cur.copy())
    return data_len, chunk_size, stream


@given(checkpoint_streams())
@settings(**_SETTINGS)
def test_tree_roundtrip(case):
    data_len, chunk_size, stream = case
    engine = ENGINES["tree"](data_len, chunk_size)
    diffs = [engine.checkpoint(c) for c in stream]
    restored = Restorer().restore_all(diffs)
    for want, got in zip(stream, restored):
        assert np.array_equal(want, got)


@given(checkpoint_streams())
@settings(**_SETTINGS)
def test_list_roundtrip(case):
    data_len, chunk_size, stream = case
    engine = ENGINES["list"](data_len, chunk_size)
    diffs = [engine.checkpoint(c) for c in stream]
    restored = Restorer().restore_all(diffs)
    for want, got in zip(stream, restored):
        assert np.array_equal(want, got)


@given(checkpoint_streams())
@settings(**_SETTINGS)
def test_basic_roundtrip(case):
    data_len, chunk_size, stream = case
    engine = ENGINES["basic"](data_len, chunk_size)
    diffs = [engine.checkpoint(c) for c in stream]
    restored = Restorer().restore_all(diffs)
    for want, got in zip(stream, restored):
        assert np.array_equal(want, got)


@given(checkpoint_streams(), st.sampled_from(["full", "basic", "list", "tree"]))
@settings(**_SETTINGS)
def test_indexed_restore_matches_replay(case, method):
    """The restore overhaul's core contract: for ANY fault-free chain and
    ANY method, the provenance-indexed path is bit-identical to chain
    replay at every checkpoint — including windowed partial restores."""
    data_len, chunk_size, stream = case
    engine = ENGINES[method](data_len, chunk_size)
    diffs = [engine.checkpoint(c) for c in stream]
    replay = Restorer().restore_all(diffs)
    record = ram_record(diffs)
    for k in range(len(diffs)):
        assert np.array_equal(restore_indexed(record, upto=k)[0], replay[k])
    windowed = Restorer()
    for k in range(len(diffs)):
        assert np.array_equal(windowed.restore(diffs, upto=k), replay[k])


@given(checkpoint_streams())
@settings(**_SETTINGS)
def test_wire_format_roundtrip(case):
    data_len, chunk_size, stream = case
    engine = ENGINES["tree"](data_len, chunk_size)
    for c in stream:
        diff = engine.checkpoint(c)
        back = CheckpointDiff.from_bytes(diff.to_bytes())
        assert back.method == diff.method
        assert back.payload == diff.payload
        assert np.array_equal(back.first_ids, diff.first_ids)
        assert np.array_equal(back.shift_ids, diff.shift_ids)


@given(checkpoint_streams())
@settings(**_SETTINGS)
def test_tree_stored_regions_cover_changes_exactly(case):
    """Every changed byte is covered by an emitted region; payload length
    equals the summed first-region extents."""
    from repro.core.chunking import ChunkSpec
    from repro.core.merkle import TreeLayout
    from repro.core.serialize import region_byte_lengths

    data_len, chunk_size, stream = case
    engine = ENGINES["tree"](data_len, chunk_size)
    spec = ChunkSpec(data_len, chunk_size)
    layout = TreeLayout(spec.num_chunks)
    prev = None
    for c in stream:
        diff = engine.checkpoint(c)
        if diff.method == "tree":
            covered = np.zeros(data_len, dtype=bool)
            for node in np.concatenate([diff.first_ids, diff.shift_ids]):
                b0, b1 = spec.range_bounds(
                    int(layout.leaf_start[int(node)]),
                    int(layout.leaf_count[int(node)]),
                )
                assert not covered[b0:b1].any(), "regions overlap"
                covered[b0:b1] = True
            changed = prev != c
            assert not (changed & ~covered).any(), "changed byte not covered"
            first_len = (
                region_byte_lengths(spec, layout, diff.first_ids.astype(np.int64)).sum()
                if diff.num_first
                else 0
            )
            assert diff.payload_bytes == first_len
        prev = c
