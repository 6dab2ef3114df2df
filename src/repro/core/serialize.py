"""Payload gathering — the consolidation step of §2.1/§2.4.

First-occurrence chunks are scattered across the checkpoint buffer; the
paper gathers them into one contiguous device buffer (team-of-threads
copies, coalesced accesses) so a *single* D2H transfer moves the whole
diff.  These helpers perform the equivalent vectorized gathers and report
the byte traffic so the engines can meter the serialization kernel.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import SerializationError
from .chunking import ChunkSpec
from .merkle import TreeLayout


def gather_chunk_payload(
    flat: np.ndarray, spec: ChunkSpec, chunk_ids: np.ndarray
) -> bytes:
    """Concatenate the bytes of *chunk_ids* (ascending or not) in order.

    Fast path: all-full-size chunks gather via a single reshape+fancy-index;
    the (at most one) tail chunk is patched in afterwards.
    """
    ids = np.asarray(chunk_ids, dtype=np.int64)
    if ids.size == 0:
        return b""
    if ids.min() < 0 or ids.max() >= spec.num_chunks:
        raise SerializationError("chunk id out of range for payload gather")

    cs = spec.chunk_size
    full_chunks = spec.data_len // cs
    has_tail = spec.data_len % cs != 0

    tail_positions = np.nonzero(ids == spec.num_chunks - 1)[0] if has_tail else []
    if has_tail and len(tail_positions):
        parts = []
        body = flat[: full_chunks * cs].reshape(full_chunks, cs)
        # Split around tail occurrences to preserve order.
        prev = 0
        for pos in tail_positions:
            seg = ids[prev:pos]
            if seg.size:
                parts.append(body[seg].tobytes())
            start, end = spec.chunk_bounds(spec.num_chunks - 1)
            parts.append(flat[start:end].tobytes())
            prev = pos + 1
        seg = ids[prev:]
        if seg.size:
            parts.append(body[seg].tobytes())
        return b"".join(parts)

    body = flat[: full_chunks * cs].reshape(full_chunks, cs)
    return body[ids].tobytes()


def gather_region_payload(
    flat: np.ndarray,
    spec: ChunkSpec,
    layout: TreeLayout,
    nodes: np.ndarray,
) -> Tuple[bytes, np.ndarray]:
    """Concatenate the byte ranges covered by tree *nodes*, in order.

    Returns ``(payload, region_lengths)`` where ``region_lengths[i]`` is the
    byte length of region *i* — the deserializer needs the running offsets.
    """
    starts, ends = node_region_bounds(spec, layout, nodes)  # validates the ids
    # One copy: the regions' bytes go straight from the buffer into the
    # payload (bytes.join needs contiguous memory to slice).
    view = memoryview(np.ascontiguousarray(flat))
    payload = b"".join(view[b0:b1] for b0, b1 in zip(starts.tolist(), ends.tolist()))
    return payload, ends - starts


def region_byte_lengths(
    spec: ChunkSpec, layout: TreeLayout, nodes: Sequence[int]
) -> np.ndarray:
    """Byte length of each node's chunk range (no data movement)."""
    node_arr = np.asarray(nodes, dtype=np.int64)
    b0, b1 = node_region_bounds(spec, layout, node_arr)
    return b1 - b0


def node_region_bounds(
    spec: ChunkSpec, layout: TreeLayout, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`ChunkSpec.range_bounds` over tree *nodes*.

    Returns ``(starts, ends)`` byte bounds per node.  Node ids must be
    validated by the caller; out-of-range ids raise
    :class:`SerializationError` here.
    """
    node_arr = np.asarray(nodes, dtype=np.int64)
    if node_arr.size and (node_arr.min() < 0 or node_arr.max() >= layout.num_nodes):
        raise SerializationError("node id out of range for region bounds")
    starts = layout.leaf_start[node_arr] * spec.chunk_size
    ends = np.minimum(
        (layout.leaf_start[node_arr] + layout.leaf_count[node_arr])
        * spec.chunk_size,
        spec.data_len,
    )
    return starts.astype(np.int64), ends.astype(np.int64)


def expand_node_chunks(
    layout: TreeLayout, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand tree *nodes* into the flat chunk ids their regions cover.

    Returns ``(chunks, region_of, within)``: for each covered chunk, its
    chunk id, the index into *nodes* of the region it belongs to, and its
    position inside that region.  Pure index arithmetic (repeat + cumsum),
    no Python loop over regions.
    """
    node_arr = np.asarray(nodes, dtype=np.int64)
    if node_arr.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if node_arr.min() < 0 or node_arr.max() >= layout.num_nodes:
        raise SerializationError("node id out of range for region expansion")
    starts = layout.leaf_start[node_arr]
    counts = layout.leaf_count[node_arr]
    total = int(counts.sum())
    region_of = np.repeat(np.arange(node_arr.shape[0], dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    chunks = np.repeat(starts, counts) + within
    return chunks, region_of, within


def chunk_payload_offsets(
    spec: ChunkSpec, chunk_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Running payload offsets for *chunk_ids* concatenated in order.

    Returns ``(offsets, lengths, total)`` where ``offsets[i]`` is the byte
    offset of chunk ``chunk_ids[i]`` inside the concatenated payload and
    ``total`` the payload length.  Chunk ids must already be validated.
    """
    ids = np.asarray(chunk_ids, dtype=np.int64)
    lengths = np.full(ids.shape[0], spec.chunk_size, dtype=np.int64)
    if spec.data_len % spec.chunk_size:
        lengths[ids == spec.num_chunks - 1] = spec.tail_len
    if ids.size == 0:
        return np.empty(0, dtype=np.int64), lengths, 0
    offsets = np.empty(ids.shape[0], dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets, lengths, int(lengths.sum())


def pack_bitmap(changed: np.ndarray) -> np.ndarray:
    """Pack a boolean changed-chunk mask into a uint8 bitmap (LSB-first)."""
    if changed.dtype != bool or changed.ndim != 1:
        raise SerializationError("bitmap packing expects a 1-D boolean mask")
    return np.packbits(changed.astype(np.uint8), bitorder="little")


def unpack_bitmap(bitmap: np.ndarray, num_chunks: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`, truncated to *num_chunks* entries."""
    bits = np.unpackbits(np.asarray(bitmap, dtype=np.uint8), bitorder="little")
    if bits.shape[0] < num_chunks:
        raise SerializationError(
            f"bitmap holds {bits.shape[0]} bits, need {num_chunks}"
        )
    return bits[:num_chunks].astype(bool)
