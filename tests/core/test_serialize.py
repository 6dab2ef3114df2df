"""Tests for payload gathering and bitmap packing."""

import numpy as np
import pytest

from repro.core.chunking import ChunkSpec
from repro.core.merkle import TreeLayout
from repro.core.serialize import (
    gather_chunk_payload,
    gather_region_payload,
    pack_bitmap,
    region_byte_lengths,
    unpack_bitmap,
)
from repro.errors import SerializationError


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
