"""Diff payloads: the gathers that write them and the one decoder that
reads them.

Write side (the consolidation step of §2.1/§2.4): first-occurrence chunks
are scattered across the checkpoint buffer; the paper gathers them into
one contiguous device buffer (team-of-threads copies, coalesced accesses)
so a *single* D2H transfer moves the whole diff.  These helpers perform
the equivalent vectorized gathers and report the byte traffic so the
engines can meter the serialization kernel.

Read side: :func:`chunk_map` is the only code that turns a diff's ids
into chunks and payload offsets, and checks them while it does; the
provenance builder, the replay oracle, the chain verifier, the
composition analysis and the rebase rewrite all read a diff through it.
:func:`place_chunks` is the one scatter both the gather and the oracle
write a checkpoint with (one compiled call, ``_gather_native.c``, when the
native object loaded), and :func:`decode_payload` the one payload decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import RestoreError, SerializationError
from ..hashing import native as _native
from .chunking import ChunkSpec
from .diff import CheckpointDiff
from .merkle import TreeLayout, layout_for


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


# ----------------------------------------------------------------------
# The read side: one decoder, one scatter
# ----------------------------------------------------------------------
def diff_payload(diff: CheckpointDiff) -> np.ndarray:
    """*diff*'s payload as the uint8 array :class:`ChunkMap` offsets and
    provenance rows index into: a hybrid diff's payload is decompressed
    with the codec its frame names."""
    return decode_payload(diff.payload, diff.codec)


def decode_payload(raw, codec) -> np.ndarray:
    """Stored payload bytes *raw* as a uint8 array: a view of them when
    *codec* is ``None``, else decompressed with that
    :data:`~repro.core.diff.PAYLOAD_CODECS` codec.  :func:`diff_payload`
    and the record's payload read decode through it."""
    if codec is not None:
        from ..compress import get_codec  # local import: compress imports core

        raw = get_codec(codec).decompress(raw)
    return np.frombuffer(raw, dtype=np.uint8)


@dataclass
class ChunkMap:
    """One diff of any method decoded into chunks and payload offsets.

    A metadata *entry* is a contiguous chunk range: the whole buffer for
    ``full``, one changed chunk for ``basic``, one chunk for ``list``,
    one node's region for ``tree``.  Per entry (in-range entries only, in
    diff order): the byte bounds of the first and shift regions and the
    checkpoint each shift entry references.  Per chunk:
    ``first_chunks`` / ``first_offs`` in payload order, and the paired
    ``dst`` / ``src`` / ``refs`` triples of the shifted duplicates.

    ``problems`` lists every structural fault, in the message format of
    :func:`~repro.core.analysis.verify_chain`; the arrays may only be
    applied when it is empty.  It includes a raw payload whose length is
    not ``payload_len``; a compressed one is compared by whoever decodes
    it (:func:`diff_payload`).
    """

    spec: ChunkSpec
    first_chunks: np.ndarray
    first_offs: np.ndarray
    payload_len: int
    dst: np.ndarray
    src: np.ndarray
    refs: np.ndarray
    first_start: np.ndarray
    first_end: np.ndarray
    shift_start: np.ndarray
    shift_end: np.ndarray
    shift_ckpt: np.ndarray
    problems: List[str]


def _expand(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The chunks of ranges ``[start, start + count)``, in order."""
    if not (count > 1).any():  # one chunk per range: nothing to expand
        return start
    ends = np.cumsum(count)
    return np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(start - (ends - count), count)


def _owner(count: np.ndarray) -> np.ndarray:
    """For each chunk of :func:`_expand`, the index of its range."""
    return np.repeat(np.arange(count.shape[0], dtype=np.int64), count)


def chunk_map(diff: CheckpointDiff) -> ChunkMap:
    """Decode *diff* (PAPER §2.2) and check it, once, for every consumer.

    The problems found are the structural half of
    :func:`~repro.core.analysis.verify_chain`: every id in range, each
    shift pair of equal length, no reference to a later checkpoint, no
    chunk covered by two entries, and no same-checkpoint reference that
    reads a shift destination (docs/ALGORITHM.md §4 — the invariant that
    lets shifts apply grouped by referenced checkpoint) — and, for a
    payload stored raw, its length.  Tree node ids
    resolve through the cached :func:`~repro.core.merkle.layout_for`.

    The first, shift and reference entries are decoded as one
    concatenated array (first ids, then shift ids, then reference ids),
    so a diff costs the same few array operations whatever its size; the
    per-entry messages are only built when a check fails.
    """
    spec = ChunkSpec(diff.data_len, diff.chunk_size)
    n, cs, k = spec.num_chunks, spec.chunk_size, diff.ckpt_id
    where = f"ckpt {k}"
    problems: List[str] = []
    kept = None  # the shift entries decoded, when some are out of range
    if diff.method == "full":
        start, count = np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    elif diff.method == "basic":
        try:
            start = np.flatnonzero(unpack_bitmap(diff.bitmap, n))
        except SerializationError as exc:
            problems.append(f"{where}: bad bitmap ({exc})")
            start = np.empty(0, dtype=np.int64)
        count = np.ones(start.shape[0], dtype=np.int64)
    else:
        nf, ns = diff.num_first, diff.num_shift
        ids = np.concatenate(
            [diff.first_ids, diff.shift_ids, diff.shift_ref_ids]
        ).astype(np.int64)
        if diff.method == "tree":
            layout = layout_for(n)
        ok = ids < (layout.num_nodes if diff.method == "tree" else n)
        if not ok.all():
            both = ok[nf : nf + ns] & ok[nf + ns :]
            for i in np.flatnonzero(~ok[:nf]):
                problems.append(f"{where}: first id {int(ids[i])} out of range")
            for i in np.flatnonzero(~both):
                problems.append(f"{where}: shift entry {i} out of range")
            kept = np.flatnonzero(both)
            ids = ids[np.concatenate([ok[:nf], both, both])]
        if diff.method == "tree":
            start, count = layout.leaf_start[ids], layout.leaf_count[ids]
        else:
            start, count = ids, np.ones(ids.shape[0], dtype=np.int64)
    ckpt = diff.shift_ref_ckpts if kept is None else diff.shift_ref_ckpts[kept]
    ckpt = ckpt.astype(np.int64)
    ns = ckpt.shape[0]
    nf = start.shape[0] - 2 * ns

    def entry(e) -> int:
        return int(e if kept is None else kept[e])

    b0 = start * cs
    b1 = np.minimum((start + count) * cs, spec.data_len)
    f_len = b1[:nf] - b0[:nf]
    same_len = None  # per shift pair: equal byte lengths
    if ns:
        length = b1[nf:] - b0[nf:]
        same_len = length[:ns] == length[ns:]
        if same_len.all():
            same_len = None
        else:
            for e in np.flatnonzero(~same_len):
                problems.append(f"{where}: shift entry {entry(e)} length mismatch")
        if int(ckpt.max()) > k:
            for e in np.flatnonzero(ckpt > k):
                problems.append(
                    f"{where}: shift entry {entry(e)} references the future "
                    f"(checkpoint {int(ckpt[e])} is not reconstructed yet)"
                )

    chunks = _expand(start, count)
    if chunks.shape[0] == start.shape[0]:  # one chunk per entry
        cf, cd = nf, nf + ns
    else:
        cf = int(count[:nf].sum())
        cd = cf + int(count[nf : nf + ns].sum())
    first_chunks = chunks[:cf]
    # Payload order: every chunk is chunk_size bytes but the short tail,
    # which moves every chunk after it back by the bytes it lacks.
    first_offs = np.arange(cf, dtype=np.int64) * cs
    if spec.tail_len != cs and (b1[:nf] == spec.data_len).any():
        is_tail = first_chunks == n - 1
        first_offs -= (cs - spec.tail_len) * (np.cumsum(is_tail) - is_tail)

    # No chunk covered twice: flag every entry (firsts before shifts,
    # each in diff order) that covers a chunk an earlier entry covers.
    # A sort of the covered chunks, so the check costs what the diff costs.
    cover = chunks[:cd]
    sorted_cover = np.sort(cover)
    if (sorted_cover[1:] == sorted_cover[:-1]).any():
        order = np.argsort(cover, kind="stable")
        twice = np.flatnonzero(cover[order][1:] == cover[order][:-1]) + 1
        for e in np.unique(_owner(count[: nf + ns])[order][twice]):
            problems.append(
                f"{where}: overlapping regions at {(int(b0[e]), int(b1[e]))}"
            )

    dst, src, refs = chunks[cf:cd], chunks[cd:], ckpt[:0]
    if ns:
        d_entry = _owner(count[nf : nf + ns])
        if same_len is not None:
            # Equal byte lengths imply equal chunk counts: the chunks of
            # each equal-length pair line up one for one.
            src = src[same_len[_owner(count[nf + ns :])]]
            dst, d_entry = dst[same_len[d_entry]], d_entry[same_len[d_entry]]
        refs = ckpt[d_entry]
        own = refs == k
        if own.any():
            reads_shift = own.copy()
            reads_shift[own] = np.isin(src[own], cover[cf:])
            if reads_shift.any():
                for e in np.unique(d_entry[reads_shift]):
                    problems.append(
                        f"{where}: shift entry {entry(e)} reads bytes another "
                        f"shifted duplicate of this checkpoint writes"
                    )
    payload_len = int(f_len.sum())
    if diff.codec is None and not problems and diff.payload_bytes != payload_len:
        problems.append(
            f"{where}: payload is {diff.payload_bytes} B, regions demand "
            f"{payload_len} B"
        )
    return ChunkMap(
        spec=spec,
        first_chunks=first_chunks,
        first_offs=first_offs,
        payload_len=payload_len,
        dst=dst,
        src=src,
        refs=refs,
        first_start=b0[:nf],
        first_end=b1[:nf],
        shift_start=b0[nf : nf + ns],
        shift_end=b1[nf : nf + ns],
        shift_ckpt=ckpt,
        problems=problems,
    )


def group_by_source(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group positions by *keys*: ``(order, sources, ends)``.

    ``keys[order]`` is ascending, stable within equal keys; ``sources``
    holds each distinct key once, ascending; group *g* is
    ``order[ends[g - 1] : ends[g]]`` — the :func:`place_chunks` groups.
    Keys are non-negative checkpoint ids: below 2**16 they sort as
    ``uint16``, which NumPy's stable sort orders by radix, in linear time.
    """
    narrow = keys.size and int(keys.max()) < 1 << 16
    order = np.argsort(keys.astype(np.uint16) if narrow else keys, kind="stable")
    ordered = keys[order]
    new = np.ones(ordered.shape[0], dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], ordered.shape[0]) if starts.size else starts
    return order, ordered[starts], ends


def _range_error(size: int, group: int) -> RestoreError:
    err = RestoreError(f"chunk source range outside its {size}-byte source")
    err.group = group
    return err


def _native_ready(out: np.ndarray, spec: ChunkSpec) -> bool:
    """Whether *out* is a buffer the compiled gather may write: writable,
    contiguous uint8, holding the whole checkpoint."""
    return (
        out.dtype == np.uint8
        and out.flags.c_contiguous
        and out.flags.writeable
        and out.shape[0] >= spec.data_len
    )


def _place_native(lib, out, spec, chunks, offs, sources, ends) -> np.ndarray:
    """:func:`place_chunks` as one ``ga_place_chunks`` call: the sources
    travel as one array of addresses and one of lengths."""
    chunks = np.ascontiguousarray(chunks, dtype=np.int64)
    offs = np.ascontiguousarray(offs, dtype=np.int64)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    sources = [np.ascontiguousarray(s, dtype=np.uint8) for s in sources]
    if offs.shape != chunks.shape or ends.shape != (len(sources),):
        raise RestoreError("place_chunks needs one offset per chunk, one end per source")
    addr = np.array([s.ctypes.data for s in sources], dtype=np.uint64)
    sizes = np.array([s.nbytes for s in sources], dtype=np.int64)
    placed = np.empty(len(sources), dtype=np.int64)
    status = lib.ga_place_chunks(
        out.ctypes.data, spec.data_len, spec.chunk_size,
        chunks.ctypes.data, offs.ctypes.data, chunks.shape[0],
        addr.ctypes.data, sizes.ctypes.data,
        ends.ctypes.data, ends.shape[0], placed.ctypes.data,
    )
    if status >= 0:
        raise _range_error(int(sizes[status]), int(status))
    if status != -1:
        raise RestoreError("chunk id or group end outside the placement call")
    return placed


def place_chunks(
    out: np.ndarray,
    spec: ChunkSpec,
    chunks: np.ndarray,
    offs: np.ndarray,
    sources: Sequence[np.ndarray],
    ends: Sequence[int],
) -> np.ndarray:
    """Copy ``sources[g][offs[i] :]`` — chunk ``chunks[i]``'s length of
    it — into that chunk of *out*, for every *i* of group *g*
    (``ends[g - 1] <= i < ends[g]``); returns the bytes placed per group.

    The one scatter of the read side: the gather places the payload
    ranges a provenance row names, one group per source payload; the
    replay oracle places a diff's first occurrences
    (``ChunkMap.first_offs``, one group) and its shifted duplicates
    (``src * chunk_size``, one group per referenced buffer).  The range
    check and the short tail chunk's patch run once per call; each group
    then moves its full-size chunks with one copy — one slice when their
    source bytes are contiguous, a row gather when they are chunk-aligned,
    a byte gather otherwise.  A range outside its source raises
    :class:`RestoreError` with that group's index as ``group``.

    When the native object loaded, one compiled call
    (``_gather_native.c``) makes the same range check over the whole call
    and then copies chunk by chunk, whatever the number of groups; this
    NumPy body is its reference and the ``REPRO_NO_NATIVE`` path.
    """
    lib = _native.get_lib()
    if lib is not None and _native_ready(out, spec):
        return _place_native(lib, out, spec, chunks, offs, sources, ends)
    cs, n = spec.chunk_size, chunks.shape[0]
    full = spec.data_len // cs
    ends = np.asarray(ends, dtype=np.int64)
    counts = np.diff(ends, prepend=0)
    sizes = np.array([s.shape[0] for s in sources], dtype=np.int64)
    placed = counts * cs
    if n == 0:
        return placed
    tails = np.flatnonzero(chunks >= full)  # the short tail chunk, if named
    reach = offs + cs
    reach[tails] -= cs - spec.tail_len
    bad = (offs < 0) | (reach > np.repeat(sizes, counts))
    if bad.any():
        g = int(np.searchsorted(ends, np.argmax(bad), side="right"))
        raise _range_error(int(sizes[g]), g)
    if tails.size:
        for i, g in zip(
            tails.tolist(), np.searchsorted(ends, tails, side="right").tolist()
        ):
            b0, off = int(chunks[i]) * cs, int(offs[i])
            out[b0 : b0 + spec.tail_len] = sources[g][off : off + spec.tail_len]
            placed[g] -= cs - spec.tail_len
        keep = np.ones(n, dtype=bool)
        keep[tails] = False
        chunks, offs = chunks[keep], offs[keep]
        ends = ends - np.searchsorted(tails, ends)
    # Per group, from one pass over the call: does its source run
    # contiguously (every step one chunk), and is it chunk-aligned?
    # (An empty group may start past the last chunk: ``breaks`` is padded.)
    starts = np.concatenate(([0], ends[:-1]))
    breaks = np.concatenate(([0], np.cumsum(np.diff(offs) != cs), [0]))
    unaligned = np.concatenate(([0], np.cumsum(offs % cs != 0)))
    contiguous = breaks[np.maximum(ends - 1, 0)] == breaks[starts]
    aligned = unaligned[ends] == unaligned[starts]
    body = out[: full * cs].reshape(full, cs)
    for source, start, end, run, whole_rows in zip(
        sources, starts.tolist(), ends.tolist(), contiguous.tolist(), aligned.tolist()
    ):
        if end == start:
            continue
        rows, f_offs = chunks[start:end], offs[start:end]
        if run:
            first = int(f_offs[0])
            body[rows] = source[first : first + (end - start) * cs].reshape(-1, cs)
        elif whole_rows:
            whole = source.shape[0] // cs
            body[rows] = source[: whole * cs].reshape(whole, cs)[f_offs // cs]
        else:
            body[rows] = source[f_offs[:, None] + np.arange(cs, dtype=np.int64)]
    return placed
