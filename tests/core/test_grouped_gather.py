"""The grouped gather against the per-source loop it replaced.

:func:`~repro.core.provenance.materialize_index` sorts a row's written
chunks by source checkpoint once and hands every source payload to one
grouped :func:`~repro.core.serialize.place_chunks` call.  The reference
below is the loop it replaced: one ``flatnonzero`` pass and one
single-source scatter per referenced checkpoint.  Both must produce the
same bytes, the same per-source report and the same ``payload_of``
order, on every checkpoint, every chunk range and a short tail chunk.
The device ledger is one fused ``restore.gather`` launch per call, whose
counts the test derives chunk by chunk (:func:`_fused_ledger`).

``place_chunks`` itself is one compiled call when the native object
loaded; the differential tests at the end hold it to its NumPy body.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ENGINES, ProvenanceBuilder
from repro.core.chunking import ChunkSpec
from repro.core.provenance import (
    RAW_INDEX_BYTES_PER_CHUNK,
    ProvenanceIndex,
    RestoreReport,
    materialize_index,
)
from repro.core.serialize import diff_payload, group_by_source, place_chunks
from repro.errors import RestoreError
from repro.hashing import native
from repro.kokkos import DeviceSpace, KernelRecord, TransferRecord
from tests.conftest import numpy_path

CS = 64
METHODS = ("full", "basic", "list", "tree")


def _place_one(out, spec, chunks, offs, source) -> int:
    """The single-source scatter: every chunk reads *source*."""
    if chunks.size == 0:
        return 0
    cs = spec.chunk_size
    full = spec.data_len // cs
    is_full = chunks < full
    lengths = np.where(is_full, cs, spec.tail_len)
    if int(offs.min()) < 0 or int((offs + lengths).max()) > source.shape[0]:
        raise RestoreError(
            f"chunk source range outside its {source.shape[0]}-byte source"
        )
    rows, f_offs = chunks[is_full], offs[is_full]
    if rows.size:
        m = rows.shape[0]
        body = out[: full * cs].reshape(full, cs)
        if m == 1 or bool(np.all(np.diff(f_offs) == cs)):
            start = int(f_offs[0])
            body[rows] = source[start : start + m * cs].reshape(m, cs)
        elif not (f_offs % cs).any():
            whole = source.shape[0] // cs
            body[rows] = source[: whole * cs].reshape(whole, cs)[f_offs // cs]
        else:
            body[rows] = source[f_offs[:, None] + np.arange(cs, dtype=np.int64)]
    for i in np.flatnonzero(~is_full):
        b0, off = int(chunks[i]) * cs, int(offs[i])
        out[b0 : b0 + spec.tail_len] = source[off : off + spec.tail_len]
    return int(lengths.sum())


def _reference_materialize(
    index, payload_of, out=None, report=None, chunk_lo=0, chunk_hi=None,
    zero=True,
):
    """The per-source gather loop the grouped gather replaced (it meters
    nothing: the fused ledger is :func:`_fused_ledger`'s)."""
    spec = ChunkSpec(index.data_len, index.chunk_size)
    cs = spec.chunk_size
    lo = chunk_lo
    hi = spec.num_chunks if chunk_hi is None else chunk_hi
    if out is None:
        out = np.zeros(index.data_len, dtype=np.uint8)
    elif zero:
        out[lo * cs : min(hi * cs, index.data_len)] = 0
    sub_ckpt = index.src_ckpt[lo:hi]
    referenced = np.unique(sub_ckpt)
    for t in referenced[referenced >= 0].tolist():
        chunks = np.flatnonzero(sub_ckpt == t) + lo
        try:
            gathered = _place_one(
                out, spec, chunks, index.src_off[chunks], payload_of(t)
            )
        except RestoreError as exc:
            raise RestoreError(
                f"provenance index points outside checkpoint {t}'s payload"
            ) from exc
        if report is not None:
            report.payload_bytes_read[t] = (
                report.payload_bytes_read.get(t, 0) + gathered
            )
    return out


def _fused_ledger(index, chunk_lo=0, chunk_hi=None):
    """``(kernels, transfers)`` one gather call over ``[chunk_lo,
    chunk_hi)`` meters, counted one chunk at a time: a single launch
    whose random accesses are the source runs — a written chunk starts a
    new run unless the chunk before it read the same source at the
    offset just before its own."""
    cs = index.chunk_size
    hi = index.num_chunks if chunk_hi is None else chunk_hi
    if hi == chunk_lo:
        return [], []
    items = gathered = runs = 0
    prev = None
    for c in range(chunk_lo, hi):
        t, off = int(index.src_ckpt[c]), int(index.src_off[c])
        if t < 0:
            prev = None
            continue
        items += 1
        gathered += min(cs, index.data_len - c * cs)
        if prev != (t, off - cs):
            runs += 1
        prev = (t, off)
    kernel = KernelRecord(
        name="restore.gather",
        items=items,
        bytes_read=gathered + (hi - chunk_lo) * RAW_INDEX_BYTES_PER_CHUNK,
        bytes_written=gathered,
        random_accesses=runs,
    )
    extent = min(hi * cs, index.data_len) - chunk_lo * cs
    return [kernel], [TransferRecord("H2D", extent)]


def _chain(method, rng, n, steps=8):
    """Rewrites, aligned duplicates (shifted references) and zero runs,
    so a late row draws on many source payloads."""
    engine = ENGINES[method](n, CS)
    buf = np.zeros(n, dtype=np.uint8)
    buf[: n // 2] = rng.integers(0, 256, n // 2, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    for k in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, n - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        if k % 2 == 0:
            buf[CS * 4 : CS * 8] = buf[CS * 20 : CS * 24]
        if k == 5:  # the short tail chunk is rewritten mid-chain
            buf[-CS:] = rng.integers(0, 256, CS, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
    builder = ProvenanceBuilder()
    rows = [builder.append(d) for d in diffs]
    payloads = {d.ckpt_id: diff_payload(d) for d in diffs}
    return rows, payloads


def _run(gather, index, payloads, **kwargs):
    calls = []

    def payload_of(t):
        calls.append(t)
        return payloads[t]

    report = RestoreReport(
        target_ckpt=index.ckpt_id,
        data_len=index.data_len,
        frames_total=0,
        frames_parsed=0,
    )
    out = gather(index, payload_of, report=report, **kwargs)
    return out, list(report.payload_bytes_read.items()), calls


def _assert_same(index, payloads, seed=None, **kwargs):
    """Both gathers, into a fresh buffer or into copies of *seed*, and
    the fused gather's ledger against the one it must meter."""
    def into():
        return None if seed is None else seed.copy()

    space = DeviceSpace(0)
    got = _run(materialize_index, index, payloads, out=into(), space=space, **kwargs)
    want = _run(_reference_materialize, index, payloads, out=into(), **kwargs)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]  # bytes per source, keys in order
    assert got[2] == want[2]  # payload_of once per source, ascending
    ranges = {k: kwargs[k] for k in ("chunk_lo", "chunk_hi") if k in kwargs}
    kernels, transfers = _fused_ledger(index, **ranges)
    assert space.ledger.kernels == kernels  # one launch: items, bytes, runs
    assert space.ledger.transfers == transfers
    if kernels:
        assert kernels[0].bytes_written == sum(n for _, n in want[1])


@pytest.mark.parametrize("n", [CS * 80, CS * 80 + 17], ids=["aligned", "tail"])
@pytest.mark.parametrize("method", METHODS)
class TestParityWithThePerSourceLoop:
    def test_every_checkpoint(self, method, n, rng):
        rows, payloads = _chain(method, rng, n)
        if method != "full":  # a full diff's row only reads its own payload
            assert max(len(r.referenced()) for r in rows) > 2
            # some row's runs split a source and join chunks
            assert any(
                len(r.referenced())
                < _fused_ledger(r)[0][0].random_accesses
                < r.num_chunks
                for r in rows
            )
        for row in rows:
            _assert_same(row, payloads)

    def test_sharded_ranges_without_zero_fill(self, method, n, rng):
        rows, payloads = _chain(method, rng, n)
        num_chunks = rows[-1].num_chunks
        cuts = [0, 1, 13, num_chunks // 2, num_chunks - 1, num_chunks]
        for row in rows:
            for lo, hi in zip(cuts, cuts[1:]):
                seed = rng.integers(0, 256, n, dtype=np.uint8)
                _assert_same(row, payloads, seed, chunk_lo=lo, chunk_hi=hi, zero=False)
            _assert_same(row, payloads, chunk_lo=cuts[2], chunk_hi=cuts[2])


class TestOutOfRange:
    def test_error_names_the_checkpoint(self, rng):
        rows, payloads = _chain("tree", rng, CS * 80)
        row = rows[-1]
        t = int(row.referenced()[1])
        src_off = row.src_off.copy()
        src_off[np.flatnonzero(row.src_ckpt == t)[-1]] = payloads[t].shape[0]
        bad = ProvenanceIndex(
            ckpt_id=row.ckpt_id,
            data_len=row.data_len,
            chunk_size=row.chunk_size,
            src_ckpt=row.src_ckpt,
            src_off=src_off,
        )
        message = f"provenance index points outside checkpoint {t}'s payload"
        with pytest.raises(RestoreError, match=message):
            materialize_index(bad, payloads.__getitem__)
        with pytest.raises(RestoreError, match=message):
            _reference_materialize(bad, payloads.__getitem__)


class TestPlaceChunks:
    """One grouped call against one single-source call per group, over
    contiguous, chunk-aligned and unaligned source offsets, with and
    without the tail chunk and with empty groups."""

    @pytest.mark.parametrize("data_len", [CS * 50, CS * 50 - 9])
    def test_grouped_equals_per_group(self, data_len, rng):
        spec = ChunkSpec(data_len, CS)
        for trial in range(60):
            chunks = rng.permutation(spec.num_chunks)[: int(rng.integers(1, 40))]
            keys = rng.integers(0, 1 + trial % 5, chunks.shape[0])
            order, refs, ends = group_by_source(keys)
            chunks = chunks[order].astype(np.int64)
            sources, offs, start = [], [], 0
            for end in ends.tolist():
                m = end - start
                kind = trial % 3
                if kind == 0:  # contiguous
                    first = int(rng.integers(0, 4)) * CS
                    o = first + np.arange(m, dtype=np.int64) * CS
                elif kind == 1:  # chunk-aligned, scattered
                    o = rng.permutation(3 * m)[:m].astype(np.int64) * CS
                else:  # unaligned
                    o = rng.integers(0, 3 * m * CS, m).astype(np.int64)
                offs.append(o)
                size = int(o.max()) + CS + int(rng.integers(0, 3))
                sources.append(rng.integers(0, 256, size, dtype=np.uint8))
                start = end
            offs = np.concatenate(offs)
            # an empty group before, between or after the real ones
            at = int(rng.integers(0, len(sources) + 1))
            sources.insert(at, np.zeros(0, dtype=np.uint8))
            ends = np.insert(ends, at, ends[at - 1] if at else 0)
            seed = rng.integers(0, 256, data_len, dtype=np.uint8)
            got, want = seed.copy(), seed.copy()
            placed = place_chunks(got, spec, chunks, offs, sources, ends)
            expect, start = [], 0
            for source, end in zip(sources, ends.tolist()):
                expect.append(
                    _place_one(want, spec, chunks[start:end], offs[start:end], source)
                )
                start = end
            assert np.array_equal(got, want)
            assert placed.tolist() == expect

    def test_range_error_names_the_group(self, rng):
        spec = ChunkSpec(CS * 8, CS)
        sources = [np.zeros(2 * CS, dtype=np.uint8), np.zeros(CS, dtype=np.uint8)]
        with pytest.raises(RestoreError, match="outside its 64-byte source") as exc:
            place_chunks(
                np.zeros(CS * 8, dtype=np.uint8), spec,
                np.array([0, 1, 2]), np.array([0, CS, 1]), sources, [2, 3],
            )
        assert exc.value.group == 1


# ----------------------------------------------------------------------
# Differential: the compiled gather against the NumPy body it replaces
# ----------------------------------------------------------------------
@pytest.fixture
def needs_native():
    if not native.native_available():
        pytest.skip("no C compiler / native kernel in this environment")


#: How a group's source offsets are laid out — each NumPy branch, plus
#: ranges that overlap one another.
LAYOUTS = ("contiguous", "aligned", "unaligned", "overlapping")


def _offsets(layout, m, cs, rng):
    if layout == "contiguous":  # one slice
        return int(rng.integers(0, 4)) * cs + np.arange(m, dtype=np.int64) * cs
    if layout == "aligned":  # a row gather
        return rng.permutation(3 * m)[:m].astype(np.int64) * cs
    if layout == "unaligned":  # a byte gather
        return rng.integers(0, 3 * m * cs, m).astype(np.int64)
    return int(rng.integers(0, cs)) + np.arange(m, dtype=np.int64) * (cs // 3)


def _both_paths(spec, chunks, offs, sources, ends, seed):
    """``(out, placed or the RestoreError)`` from the native path, then
    from the NumPy body."""
    results = []
    for forced in (False, True):
        out = seed.copy()
        try:
            if forced:
                with numpy_path():
                    got = place_chunks(out, spec, chunks, offs, sources, ends)
            else:
                got = place_chunks(out, spec, chunks, offs, sources, ends)
        except RestoreError as exc:
            got = exc
        results.append((out, got))
    return results


@given(
    num_chunks=st.integers(1, 40),
    short_tail=st.integers(0, 15),
    groups=st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from(LAYOUTS), st.integers(0, 2)),
        min_size=1,
        max_size=6,
    ),
    tail_group=st.integers(0, 5),
    bad_item=st.one_of(st.none(), st.integers(0, 10**6)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_native_and_numpy_place_the_same_bytes(
    num_chunks, short_tail, groups, tail_group, bad_item, seed
):
    """Byte-identical ``out`` and equal ``placed`` — or the same
    :class:`RestoreError` naming the same group — for any geometry (the
    short tail chunk in any group), any offsets and empty groups."""
    if not native.native_available():
        pytest.skip("no C compiler / native kernel in this environment")
    cs = 16
    data_len = num_chunks * cs - (short_tail if num_chunks > 1 else 0)
    spec = ChunkSpec(data_len, cs)
    rng = np.random.default_rng(seed)
    sizes = [min(m, spec.num_chunks) for m, _, _ in groups]
    while sum(sizes) > spec.num_chunks:  # every chunk placed at most once
        sizes[int(np.argmax(sizes))] -= 1
    chunks = rng.permutation(spec.num_chunks)[: sum(sizes)].astype(np.int64)
    ends = np.cumsum(sizes).astype(np.int64)
    g = tail_group % len(groups)
    tail = np.flatnonzero(chunks == spec.num_chunks - 1)
    if sizes[g] and tail.size:  # move the tail chunk into group g
        i = int(ends[g]) - 1
        chunks[[i, int(tail[0])]] = chunks[[int(tail[0]), i]]
    offs, sources = [], []
    for (_, layout, slack), m in zip(groups, sizes):
        o = _offsets(layout, m, cs, rng)
        offs.append(o)
        size = (int(o.max()) + cs if m else 0) + slack
        sources.append(rng.integers(0, 256, size, dtype=np.uint8))
    offs = np.concatenate(offs)
    if bad_item is not None and offs.size:
        i = bad_item % offs.size
        offs[i] = -1 if bad_item % 2 else 10**9
    seed_out = rng.integers(0, 256, data_len, dtype=np.uint8)
    (fast_out, fast), (ref_out, ref) = _both_paths(
        spec, chunks, offs, sources, ends, seed_out
    )
    if isinstance(ref, RestoreError):
        assert isinstance(fast, RestoreError)
        assert (fast.group, str(fast)) == (ref.group, str(ref))
        assert np.array_equal(fast_out, seed_out)  # checked before a byte moved
        assert np.array_equal(ref_out, seed_out)
    else:
        assert not isinstance(fast, RestoreError), fast
        assert np.array_equal(fast_out, ref_out)
        assert fast.tolist() == ref.tolist()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_each_numpy_branch_against_native(needs_native, layout, rng):
    """One fixed case per branch of the NumPy body, tail chunk included."""
    spec = ChunkSpec(CS * 50 - 9, CS)
    chunks = rng.permutation(spec.num_chunks)[:30].astype(np.int64)
    chunks[-1] = spec.num_chunks - 1
    chunks = np.unique(chunks)[::-1].copy()
    offs = _offsets(layout, chunks.shape[0], CS, rng)
    source = rng.integers(0, 256, int(offs.max()) + CS, dtype=np.uint8)
    empty = np.zeros(0, dtype=np.uint8)
    ends = [0, chunks.shape[0], chunks.shape[0]]
    seed = rng.integers(0, 256, spec.data_len, dtype=np.uint8)
    (fast_out, fast), (ref_out, ref) = _both_paths(
        spec, chunks, offs, [empty, source, empty], ends, seed
    )
    assert np.array_equal(fast_out, ref_out)
    assert fast.tolist() == ref.tolist() == [0, chunks.shape[0] * CS - 9, 0]


def test_out_of_range_names_the_same_group_on_both_paths(needs_native):
    spec = ChunkSpec(CS * 8, CS)
    sources = [np.zeros(2 * CS, dtype=np.uint8), np.zeros(0, dtype=np.uint8),
               np.zeros(CS, dtype=np.uint8)]
    args = (spec, np.array([0, 1, 2]), np.array([0, CS, 1]), sources, [2, 2, 3])
    (_, fast), (_, ref) = _both_paths(*args, np.zeros(CS * 8, dtype=np.uint8))
    assert fast.group == ref.group == 2
    assert str(fast) == str(ref) == "chunk source range outside its 64-byte source"


def test_a_malformed_call_never_reaches_memory_it_does_not_own(needs_native):
    """Pointers are handed to C only for a call whose shapes agree, and
    C refuses a chunk id or a group end outside the call."""
    spec = ChunkSpec(CS * 8, CS)
    out = np.zeros(CS * 8, dtype=np.uint8)
    source = np.zeros(4 * CS, dtype=np.uint8)
    chunks, offs = np.array([0, 1]), np.array([0, CS])
    for args in (
        (chunks, offs[:1], [source], [2]),  # one offset short
        (chunks, offs, [source], [1, 2]),  # an end without a source
        (np.array([0, 8]), offs, [source], [2]),  # chunk 8 of 8
        (chunks, offs, [source], [3]),  # the group runs past the items
    ):
        with pytest.raises(RestoreError):
            place_chunks(out, spec, *args)
    assert not out.any()
