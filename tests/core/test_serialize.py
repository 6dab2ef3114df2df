"""Tests for payload gathering, bitmap packing and the one diff decoder."""

import numpy as np
import pytest

from repro.core import (
    ProvenanceBuilder,
    Restorer,
    record_manifest,
    save_record,
    verify_chain,
)
from repro.core.chunking import ChunkSpec
from repro.core.diff import CheckpointDiff
from repro.core.merkle import TreeLayout
from repro.core.serialize import (
    chunk_map,
    gather_chunk_payload,
    gather_region_payload,
    pack_bitmap,
    region_byte_lengths,
    unpack_bitmap,
)
from repro.errors import RestoreError, SerializationError, StorageError
from repro.record import MemoryStore


@pytest.fixture
def buffer(rng):
    return rng.integers(0, 256, 64 * 15 + 24, dtype=np.uint8)  # tail chunk 24B


@pytest.fixture
def spec(buffer):
    return ChunkSpec(buffer.shape[0], 64)


class TestGatherChunks:
    def test_order_preserved(self, buffer, spec):
        out = gather_chunk_payload(buffer, spec, np.array([3, 1, 5]))
        expect = (
            buffer[3 * 64 : 4 * 64].tobytes()
            + buffer[64:128].tobytes()
            + buffer[5 * 64 : 6 * 64].tobytes()
        )
        assert out == expect

    def test_tail_chunk_short(self, buffer, spec):
        out = gather_chunk_payload(buffer, spec, np.array([15]))
        assert out == buffer[15 * 64 :].tobytes()
        assert len(out) == 24

    def test_tail_interleaved(self, buffer, spec):
        out = gather_chunk_payload(buffer, spec, np.array([2, 15, 4]))
        expect = (
            buffer[128:192].tobytes()
            + buffer[15 * 64 :].tobytes()
            + buffer[4 * 64 : 5 * 64].tobytes()
        )
        assert out == expect

    def test_empty(self, buffer, spec):
        assert gather_chunk_payload(buffer, spec, np.array([], dtype=np.int64)) == b""

    def test_out_of_range(self, buffer, spec):
        with pytest.raises(SerializationError):
            gather_chunk_payload(buffer, spec, np.array([99]))


class TestGatherRegions:
    def test_region_covers_node_range(self, buffer, spec):
        layout = TreeLayout(spec.num_chunks)
        payload, lengths = gather_region_payload(buffer, spec, layout, np.array([0]))
        assert payload == buffer.tobytes()
        assert lengths.tolist() == [buffer.shape[0]]

    def test_leaf_region(self, buffer, spec):
        layout = TreeLayout(spec.num_chunks)
        leaf_node = int(layout.node_of_leaf[4])
        payload, lengths = gather_region_payload(
            buffer, spec, layout, np.array([leaf_node])
        )
        assert payload == buffer[4 * 64 : 5 * 64].tobytes()

    def test_multiple_regions_concatenate(self, buffer, spec):
        layout = TreeLayout(spec.num_chunks)
        nodes = np.array(
            [int(layout.node_of_leaf[0]), int(layout.node_of_leaf[2])]
        )
        payload, lengths = gather_region_payload(buffer, spec, layout, nodes)
        assert payload == buffer[:64].tobytes() + buffer[128:192].tobytes()
        assert lengths.tolist() == [64, 64]

        # The short tail chunk, alone and as the end of an interior region.
        tail = int(layout.node_of_leaf[15])
        nodes = np.array([tail, int(layout.node_of_leaf[2]), (tail - 1) // 2])
        payload, lengths = gather_region_payload(buffer, spec, layout, nodes)
        assert lengths.tolist() == [24, 64, 88]
        assert payload == (
            buffer[15 * 64 :].tobytes()
            + buffer[128:192].tobytes()
            + buffer[14 * 64 :].tobytes()
        )

    def test_lengths_helper_matches(self, buffer, spec):
        layout = TreeLayout(spec.num_chunks)
        nodes = np.arange(layout.num_nodes)
        lengths = region_byte_lengths(spec, layout, nodes)
        _, gathered = gather_region_payload(buffer, spec, layout, nodes)
        assert lengths.tolist() == gathered.tolist()

    def test_empty(self, buffer, spec):
        layout = TreeLayout(spec.num_chunks)
        payload, lengths = gather_region_payload(
            buffer, spec, layout, np.array([], dtype=np.int64)
        )
        assert payload == b""
        assert lengths.shape == (0,)
        payload, lengths = gather_region_payload(buffer, spec, layout, [])
        assert payload == b"" and lengths.shape == (0,) and lengths.dtype == np.int64

    def test_out_of_range(self, buffer, spec):
        layout = TreeLayout(spec.num_chunks)
        with pytest.raises(SerializationError):
            gather_region_payload(buffer, spec, layout, np.array([999]))
        with pytest.raises(SerializationError):
            gather_region_payload(buffer, spec, layout, np.array([3, -1]))


class TestBitmap:
    def test_roundtrip(self):
        changed = np.array([True, False, True, True, False] * 7)
        packed = pack_bitmap(changed)
        assert np.array_equal(unpack_bitmap(packed, changed.shape[0]), changed)

    def test_packed_size(self):
        assert pack_bitmap(np.ones(9, dtype=bool)).nbytes == 2

    def test_requires_bool(self):
        with pytest.raises(SerializationError):
            pack_bitmap(np.ones(4, dtype=np.uint8))

    def test_unpack_too_short(self):
        with pytest.raises(SerializationError):
            unpack_bitmap(np.zeros(1, dtype=np.uint8), 9)


# ----------------------------------------------------------------------
# chunk_map: every malformed diff is caught by the one decoder, and so by
# every consumer of it.  Five chunks, the last a 17-byte tail; tree node
# ids over them: 0 root, 1 chunks 0-2, 2 chunks 3-4, 3 chunks 0-1,
# leaves 7, 8, 4, 5, 6 for chunks 0..4.
# ----------------------------------------------------------------------
N_MAP, CS_MAP = 64 * 4 + 17, 64


def _diff(method="list", ckpt_id=1, payload=b"", **arrays):
    if method == "basic":
        arrays.setdefault("bitmap", np.zeros(1, dtype=np.uint8))
    return CheckpointDiff(
        method=method, ckpt_id=ckpt_id, data_len=N_MAP, chunk_size=CS_MAP,
        payload=payload,
        **{k: np.asarray(v, dtype=np.uint32) if k != "bitmap" else v
           for k, v in arrays.items()},
    )


def _shift(dst, src, ckpt, method="list", **kw):
    return _diff(method, shift_ids=dst, shift_ref_ids=src, shift_ref_ckpts=ckpt, **kw)


#: row -> (malformed checkpoint-1 diff, substring of its first problem)
MALFORMED = {
    "first-id-out-of-range": (_diff("tree", first_ids=[99]), "first id 99 out of range"),
    "shift-id-out-of-range": (_shift([9], [0], [0]), "shift entry 0 out of range"),
    "ref-id-out-of-range": (_shift([7], [99], [0], "tree"), "shift entry 0 out of range"),
    "tree-length-mismatch": (_shift([3], [7], [0], "tree"), "shift entry 0 length mismatch"),
    "list-length-mismatch": (_shift([4], [0], [0]), "shift entry 0 length mismatch"),
    "future-reference": (_shift([1], [0], [2]), "references the future"),
    "first-shift-overlap": (
        _shift([1], [0], [0], first_ids=[1], payload=bytes(64)),
        "overlapping regions at (64, 128)",
    ),
    "cyclic-same-checkpoint": (
        _shift([0, 1], [1, 0], [1, 1]), "reads bytes another shifted duplicate",
    ),
    "payload-one-byte-short": (
        _diff(first_ids=[1], payload=bytes(63)), "payload is 63 B, regions demand 64 B",
    ),
    "payload-one-byte-long": (
        _diff(first_ids=[1], payload=bytes(65)), "payload is 65 B, regions demand 64 B",
    ),
    "short-bitmap": (
        _diff("basic", bitmap=np.zeros(0, dtype=np.uint8)), "bad bitmap",
    ),
}


@pytest.mark.parametrize("row", sorted(MALFORMED))
def test_malformed_diff_is_refused_by_every_reader(row, tmp_path):
    bad, message = MALFORMED[row]
    base = CheckpointDiff(
        method="full", ckpt_id=0, data_len=N_MAP, chunk_size=CS_MAP,
        payload=bytes(range(256)) + bytes(17),
    )
    chain = [base, bad]

    problems = chunk_map(bad).problems
    assert problems and message in problems[0], problems
    assert problems[0] in verify_chain(chain)

    for restore in (
        lambda: ProvenanceBuilder().extend(chain),
        lambda: Restorer().restore(chain),
    ):
        with pytest.raises(RestoreError, match="ckpt 1"):
            restore()

    # Every restore reads a record, and the writer refuses the checkpoint
    # before writing a byte of it — to RAM and to disk alike.
    with pytest.raises(StorageError, match="cannot append checkpoint 1: ckpt 1"):
        save_record(chain, MemoryStore())
    directory = tmp_path / row
    with pytest.raises(StorageError, match="cannot append checkpoint 1: ckpt 1"):
        save_record(chain, directory)
    assert record_manifest(directory)["num_checkpoints"] == 1
    assert sorted(p.name for p in directory.iterdir()) == [
        "ckpt-00000.rdif", "provenance.rpix", "record.json", "record.log",
    ]


def test_chunk_map_of_a_sound_tree_diff():
    # Node 2 (chunks 3-4, 81 B) first, leaf 7 (chunk 0) a shift of node 5
    # (chunk 3) of this checkpoint: a same-checkpoint reference into a
    # first region, which the §4 invariant allows.
    diff = _shift([7], [5], [1], "tree", first_ids=[2], payload=bytes(81))
    cmap = chunk_map(diff)
    assert cmap.problems == []
    assert cmap.first_chunks.tolist() == [3, 4]
    assert cmap.first_offs.tolist() == [0, 64]
    assert cmap.payload_len == 81
    assert (cmap.dst.tolist(), cmap.src.tolist(), cmap.refs.tolist()) == ([0], [3], [1])
    assert (cmap.first_start.tolist(), cmap.first_end.tolist()) == ([192], [273])
    assert (cmap.shift_start.tolist(), cmap.shift_end.tolist()) == ([0], [64])
