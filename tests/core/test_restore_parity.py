"""One reconstruction, many entry points: the parity matrix.

Every production restore — in-memory gather, ``selective_restore``, the
cold-record gather, the N-rank sharded plan, with or without a hybrid
payload codec — resolves a source to one provenance row and gathers it
with ``materialize_index``.  This matrix pins what that buys: for all
four methods and *every* checkpoint of the chain, each entry point
returns exactly the bytes of the replay oracle,
``Restorer().restore_all(diffs)[k]``.
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import (
    ENGINES,
    ProvenanceBuilder,
    Restorer,
    load_provenance,
    restore_indexed,
    restore_record_indexed,
    save_record,
    selective_restore,
)
from repro.runtime.fleet_restore import restore_record_sharded

N = 64 * 80 + 17  # short tail chunk
CS = 64
CODEC = get_codec("deflate")


def _chain(method, rng, codec=None, steps=6):
    """Overwrites, shifted duplicates (same- and cross-checkpoint) and a
    never-written zero half, so every source kind appears in the rows."""
    kwargs = {"payload_codec": codec} if codec is not None and method == "tree" else {}
    engine = ENGINES[method](N, CS, **kwargs)
    buf = np.zeros(N, dtype=np.uint8)
    buf[: N // 2] = rng.integers(0, 4, N // 2, dtype=np.uint8)
    diffs = [engine.checkpoint(buf)]
    for k in range(1, steps):
        buf = buf.copy()
        off = int(rng.integers(0, N - 700))
        buf[off : off + 640] = rng.integers(0, 256, 640, dtype=np.uint8)
        if k % 2 == 0:
            buf[CS * 4 : CS * 8] = buf[CS * 20 : CS * 24]
        diffs.append(engine.checkpoint(buf))
    return diffs


#: entry point -> (uses a payload codec, needs a stored record, restore fn)
PATHS = {
    "gather": (False, False, lambda src, k, codec: restore_indexed(src, k)[0]),
    "selective": (False, False, lambda src, k, codec: selective_restore(src, k)),
    "record": (False, True, lambda src, k, codec: restore_record_indexed(src, k)[0]),
    "sharded1": (False, True, lambda src, k, codec: restore_record_sharded(src, 1, upto=k)[0]),
    "sharded3": (False, True, lambda src, k, codec: restore_record_sharded(src, 3, upto=k)[0]),
    "hybrid-gather": (True, False, lambda src, k, codec: restore_indexed(src, k, codec)[0]),
    "hybrid-selective": (True, False, lambda src, k, codec: selective_restore(src, k, codec)),
    "hybrid-record": (True, True, lambda src, k, codec: restore_record_indexed(src, k, codec)[0]),
    "hybrid-sharded3": (
        True,
        True,
        lambda src, k, codec: restore_record_sharded(src, 3, upto=k, payload_codec=codec)[0],
    ),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("method", sorted(ENGINES))
def test_every_entry_point_equals_replay_at_every_checkpoint(method, path, rng, tmp_path):
    hybrid, stored, restore = PATHS[path]
    codec = CODEC if hybrid else None
    diffs = _chain(method, rng, codec)
    oracle = Restorer(payload_codec=codec).restore_all(diffs)
    source = save_record(diffs, tmp_path / "rec", method=method) if stored else diffs
    for k, want in enumerate(oracle):
        got = restore(source, k, codec)
        assert got.dtype == np.uint8 and np.array_equal(got, want), f"ckpt {k}"


@pytest.mark.parametrize("method", sorted(ENGINES))
def test_every_stored_row_equals_the_composed_row(method, rng, tmp_path):
    """The row every record path gathers from: ``load_provenance(dir,
    ckpt=k)`` decodes exactly what a fresh builder composes for *k*."""
    diffs = _chain(method, rng)
    builder = ProvenanceBuilder()
    builder.extend(diffs)
    directory = save_record(diffs, tmp_path / "rec", method=method)
    for k in range(len(diffs)):
        got, want = load_provenance(directory, ckpt=k), builder.index_for(k)
        assert (got.ckpt_id, got.data_len, got.chunk_size) == (k, N, CS)
        for name in ("src_ckpt", "src_off"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f"ckpt {k} {name}"
