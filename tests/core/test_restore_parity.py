"""One reconstruction, many entry points: the parity matrix.

Every production restore — the gather over a RAM record,
``selective_restore``, ``IncrementalCheckpointer.restore``, the
cold-record gather, the N-rank sharded plan, with or without a hybrid
payload codec — resolves a record to one provenance row and gathers it
with ``materialize_index``.  This matrix pins what that buys: for all
four methods and *every* checkpoint of the chain, each entry point
returns exactly the bytes of the replay oracle,
``Restorer().restore_all(diffs)[k]``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.compress import get_codec
from repro.core import (
    ENGINES,
    IncrementalCheckpointer,
    ProvenanceBuilder,
    Restorer,
    load_provenance,
    load_record,
    restore_indexed,
    restore_record_indexed,
    save_record,
    selective_restore,
)
from repro.core.serialize import chunk_map
from repro.runtime.fleet_restore import restore_record_sharded
from tests.conftest import ram_record

N = 64 * 80 + 17  # short tail chunk
CS = 64
CODEC = get_codec("deflate")


def _states(rng, steps=6):
    """Overwrites, shifted duplicates (same- and cross-checkpoint) and a
    never-written zero half, so every source kind appears in the rows."""
    buf = np.zeros(N, dtype=np.uint8)
    buf[: N // 2] = rng.integers(0, 4, N // 2, dtype=np.uint8)
    yield buf
    for k in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, N - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        if k % 2 == 0:
            buf[CS * 4 : CS * 8] = buf[CS * 20 : CS * 24]
        yield buf


def _chain(method, rng, codec=None, steps=6):
    kwargs = {"payload_codec": codec} if codec is not None and method == "tree" else {}
    engine = ENGINES[method](N, CS, **kwargs)
    return [engine.checkpoint(buf) for buf in _states(rng, steps)]


#: entry point -> (uses a payload codec, needs a stored record, restore fn)
PATHS = {
    "gather": (False, False, lambda src, k: restore_indexed(ram_record(src), k)[0]),
    "selective": (False, False, lambda src, k: selective_restore(src, k)),
    "record": (False, True, lambda src, k: restore_record_indexed(src, k)[0]),
    "sharded1": (False, True, lambda src, k: restore_record_sharded(src, 1, upto=k)[0]),
    "sharded3": (False, True, lambda src, k: restore_record_sharded(src, 3, upto=k)[0]),
    "hybrid-gather": (True, False, lambda src, k: restore_indexed(ram_record(src), k)[0]),
    "hybrid-selective": (True, False, lambda src, k: selective_restore(src, k)),
    "hybrid-record": (True, True, lambda src, k: restore_record_indexed(src, k)[0]),
    "hybrid-sharded3": (True, True, lambda src, k: restore_record_sharded(src, 3, upto=k)[0]),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("method", sorted(ENGINES))
def test_every_entry_point_equals_replay_at_every_checkpoint(method, path, rng, tmp_path):
    hybrid, stored, restore = PATHS[path]
    codec = CODEC if hybrid else None
    diffs = _chain(method, rng, codec)
    oracle = Restorer().restore_all(diffs)
    source = save_record(diffs, tmp_path / "rec", method=method) if stored else diffs
    for k, want in enumerate(oracle):
        got = restore(source, k)
        assert got.dtype == np.uint8 and np.array_equal(got, want), f"ckpt {k}"


@pytest.mark.parametrize(
    "method, codec", [(m, None) for m in sorted(ENGINES)] + [("tree", "bitcomp")]
)
def test_checkpointer_restore_is_the_gather(method, codec, rng):
    """The unit's own restore gathers the row its RAM record holds — one
    ``restore.indexed_record``, no ``restore.replay`` — at every
    checkpoint."""
    codec = get_codec(codec) if codec is not None else None
    ckpt = IncrementalCheckpointer(N, CS, method=method, payload_codec=codec)
    for buf in _states(rng):
        ckpt.checkpoint(buf)
    oracle = Restorer()
    for k in range(ckpt.num_checkpoints):
        with telemetry.capture() as summary:
            got = ckpt.restore(k)
        assert set(summary["spans"]) == {"restore.indexed_record", "store.load_frames"}
        assert summary["spans"]["restore.indexed_record"]["count"] == 1
        chain = load_record(ckpt.record.writer.store)
        assert np.array_equal(got, oracle.restore(chain, k)), f"ckpt {k}"


@pytest.mark.parametrize("method", sorted(ENGINES))
def test_every_stored_row_equals_the_composed_row(method, rng, tmp_path):
    """The row every record path gathers from: ``load_provenance(dir,
    ckpt=k)`` decodes exactly what a fresh builder composes for *k*."""
    diffs = _chain(method, rng)
    builder = ProvenanceBuilder()
    rows = [builder.append(d) for d in diffs]
    directory = save_record(diffs, tmp_path / "rec", method=method)
    for k in range(len(diffs)):
        got, want = load_provenance(directory, ckpt=k), rows[k]
        assert (got.ckpt_id, got.data_len, got.chunk_size) == (k, N, CS)
        for name in ("src_ckpt", "src_off"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f"ckpt {k} {name}"


#: one edit of a checkpoint: (kind, source chunk, destination chunk, chunks)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["overwrite", "copy"]),
        st.integers(0, N // CS),
        st.integers(0, N // CS),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("method", ["list", "tree"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(_EDITS, min_size=1, max_size=5), seed=st.integers(0, 2**16))
def test_every_shift_names_bytes_its_checkpoint_stored(method, steps, seed):
    """docs/ALGORITHM.md §4, the invariant the grouped shift apply rests
    on: every shift triple ``(dst, src, t)`` of an engine's checkpoint
    reads a chunk checkpoint *t* itself stored, ``row(t).src_ckpt[src] == t``."""
    rng = np.random.default_rng(seed)
    engine = ENGINES[method](N, CS)
    buf = rng.integers(0, 4, N, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    for edits in steps:
        buf = buf.copy()
        for kind, src, dst, count in edits:
            s0, d0 = src * CS, dst * CS
            length = min(count * CS, N - s0, N - d0)
            if kind == "copy":
                buf[d0 : d0 + length] = buf[s0 : s0 + length].copy()
            else:
                buf[d0 : d0 + length] = rng.integers(0, 256, length, dtype=np.uint8)
        diffs.append(engine.checkpoint(buf))
    builder = ProvenanceBuilder()
    rows = [builder.append(d) for d in diffs]
    for diff in diffs:
        cmap = chunk_map(diff)
        for t in np.unique(cmap.refs).tolist():
            src = cmap.src[cmap.refs == t]
            assert np.all(rows[t].src_ckpt[src] == t), (diff.ckpt_id, t)
