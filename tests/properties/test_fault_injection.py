"""Fault injection: corrupted inputs must fail loudly with library errors.

A checkpointing system's failure mode matters as much as its happy path:
bit flips in stored diffs must surface as :class:`ReproError` subclasses
(or, worst case, reconstruct *something* without crashing the process),
never as segfault-adjacent NumPy shape errors or silent misbehaviour.

With the v2 frame format the guarantee is stronger and is pinned down
here as a property: the frame is a packed little-endian header plus a
SHA-256 digest over header and body, with **no padding bytes anywhere**,
so the "provably harmless" set of single-byte flips is empty — *every*
single-byte corruption of a stored frame must be detected by
``verify_record()`` and by a strict ``load_record()``.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ENGINES, CheckpointDiff, Restorer, restore_indexed
from repro.core.provenance import restore_record_indexed
from repro.core.store import (
    STATUS_CORRUPT,
    load_provenance,
    load_record,
    save_record,
    verify_record,
)
from repro.errors import IntegrityError, ReproError
from repro.faults import RecordFault, apply_record_faults
from repro.faults.plan import RECORD_FAULT_KINDS
from repro.record import RecordView
from tests.conftest import ram_record, read_frame, write_frame


def make_chain(seed: int):
    rng = np.random.default_rng(seed)
    n = 64 * 40
    base = rng.integers(0, 256, n, dtype=np.uint8)
    engine = ENGINES["tree"](n, 64)
    diffs = [engine.checkpoint(base)]
    nxt = base.copy()
    nxt[: 8 * 64] = rng.integers(0, 256, 8 * 64, dtype=np.uint8)
    nxt[20 * 64 : 24 * 64] = base[0 : 4 * 64]
    diffs.append(engine.checkpoint(nxt))
    return diffs


_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(0, 100),
    position=st.integers(0, 10_000),
    flip=st.integers(1, 255),
)
@settings(**_SETTINGS)
def test_bitflipped_diff_never_crashes_unsafely(seed, position, flip):
    diffs = make_chain(seed % 3)
    blob = bytearray(diffs[1].to_bytes())
    blob[position % len(blob)] ^= flip
    # v2 frames digest-cover every byte: a verifying parse must reject.
    with pytest.raises(ReproError):
        CheckpointDiff.from_bytes(bytes(blob))
    # Even when a caller opts out of verification, restoring the damaged
    # diff must stay in library-error land — never a NumPy shape crash.
    try:
        parsed = CheckpointDiff.from_bytes(bytes(blob), verify=False)
        Restorer().restore_all([diffs[0], parsed])
        restore_indexed(ram_record([diffs[0], parsed]))
    except ReproError:
        pass  # rejected at parse or restore time: fine
    # Or the flip landed in payload bytes and reconstruction proceeds
    # with altered content — the unverified path makes no promises.


@given(blob=st.binary(min_size=0, max_size=400))
@settings(**_SETTINGS)
def test_arbitrary_bytes_never_parse_unsafely(blob):
    try:
        CheckpointDiff.from_bytes(blob)
    except ReproError:
        pass


@given(
    seed=st.integers(0, 50),
    truncate=st.integers(1, 200),
)
@settings(**_SETTINGS)
def test_truncated_diff_rejected(seed, truncate):
    diffs = make_chain(seed % 3)
    blob = diffs[1].to_bytes()
    cut = blob[: max(0, len(blob) - truncate)]
    with pytest.raises(ReproError):
        CheckpointDiff.from_bytes(cut)


@given(seed=st.integers(0, 20), k=st.integers(0, 10))
@settings(**_SETTINGS)
def test_shuffled_chain_rejected_or_detected(seed, k):
    """Reordering diffs must be caught by ordering checks."""
    diffs = make_chain(seed % 3)
    if k % 2 == 0:
        with pytest.raises(ReproError):
            Restorer().restore_all(list(reversed(diffs)))
    else:
        with pytest.raises(ReproError):
            restore_indexed(ram_record(reversed(diffs)))


# ----------------------------------------------------------------------
# Record-level properties (satellite of the integrity work): any single
# byte flipped in any stored frame is detected.
# ----------------------------------------------------------------------

_RECORD_CACHE = {}


def _pristine_record(seed: int) -> Path:
    """A saved record per seed, built once and kept read-only."""
    if seed not in _RECORD_CACHE:
        root = Path(tempfile.mkdtemp(prefix="repro-prop-rec-"))
        _RECORD_CACHE[seed] = save_record(make_chain(seed), root / "rec")
    return _RECORD_CACHE[seed]


def _flip_in_copy(src: Path, workdir: Path, file_pick: int, position: int, flip: int):
    rec = workdir / "rec"
    shutil.copytree(src, rec)
    k = file_pick % RecordView(rec).count
    blob = bytearray(read_frame(rec, k))
    blob[position % len(blob)] ^= flip
    write_frame(rec, k, bytes(blob))
    return rec, k


@given(
    seed=st.integers(0, 2),
    file_pick=st.integers(0, 1000),
    position=st.integers(0, 10**9),
    flip=st.integers(1, 255),
)
@settings(**_SETTINGS)
def test_any_record_byte_flip_is_detected(seed, file_pick, position, flip):
    src = _pristine_record(seed)
    with tempfile.TemporaryDirectory() as tmp:
        rec, index = _flip_in_copy(src, Path(tmp), file_pick, position, flip)
        report = verify_record(rec)
        assert not report.ok
        assert report.checkpoints[index].status == STATUS_CORRUPT
        with pytest.raises(IntegrityError):
            load_record(rec)


def workload_states(seed: int):
    """Five states of a small buffer: rewrites that later steps overwrite
    again (so a later row skips an earlier frame), a shifted block and
    a rewrite of its own."""
    rng = np.random.default_rng(seed)
    n = 64 * 40
    states = [rng.integers(0, 256, n, dtype=np.uint8)]
    for step in range(1, 5):
        state = states[-1].copy()
        if step == 2:
            state[20 * 64 : 24 * 64] = state[0 : 4 * 64]
        elif step == 4:
            state[30 * 64 : 32 * 64] = rng.integers(0, 256, 128, dtype=np.uint8)
        else:
            state[: 8 * 64] = rng.integers(0, 256, 8 * 64, dtype=np.uint8)
        states.append(state)
    return states


_METHOD_RECORDS = {}


def _pristine_method_record(method: str, seed: int):
    """A saved record of :func:`workload_states` per (method, seed), its
    states and each checkpoint's referenced frames; built once."""
    key = (method, seed)
    if key not in _METHOD_RECORDS:
        states = workload_states(seed)
        engine = ENGINES[method](states[0].size, 64)
        root = Path(tempfile.mkdtemp(prefix="repro-prop-rec-"))
        path = save_record(
            [engine.checkpoint(state) for state in states], root / "rec", method
        )
        rows = [
            {int(t) for t in load_provenance(path, k).referenced()}
            for k in range(len(states))
        ]
        _METHOD_RECORDS[key] = path, states, rows
    return _METHOD_RECORDS[key]


@given(
    method=st.sampled_from(sorted(ENGINES)),
    seed=st.integers(0, 1),
    kind=st.sampled_from(RECORD_FAULT_KINDS),
    frame=st.integers(0, 4),
    offset_frac=st.floats(0.0, 1.0, exclude_max=True),
    bit=st.integers(0, 7),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_salvage_never_restores_wrong_bytes(
    method, seed, kind, frame, offset_frac, bit
):
    """What a damaged record still restores — every checkpoint the
    production restore returns — is the workload's own bytes, and a
    checkpoint whose row names no damaged frame is restored.  A cut
    inside frame *f* of the pack damages every frame from *f* on."""
    src, states, rows = _pristine_method_record(method, seed)
    frame %= len(states)
    damaged = set(range(frame, len(states))) if kind == "truncate" else {frame}
    with tempfile.TemporaryDirectory() as tmp:
        rec = shutil.copytree(src, Path(tmp) / "rec")
        fault = RecordFault(kind, ckpt_index=frame, offset_frac=offset_frac, bit=bit)
        assert len(apply_record_faults(rec, [fault])) == 1
        for k, want in enumerate(states):
            try:
                got, _ = restore_record_indexed(rec, k)
            except ReproError:
                assert damaged & rows[k], f"checkpoint {k} lost to frame {frame}"
                continue
            assert np.array_equal(got, want), f"checkpoint {k} restored wrong"


def test_every_single_byte_flip_detected_exhaustively():
    """Deterministic complement of the property: flip one bit at EVERY
    byte offset of every frame of a small record — all must be caught, by
    the scan and by every reader: a strict ``load_record`` and the
    indexed restore of a checkpoint whose row references the frame both
    refuse it with :class:`IntegrityError`."""
    record = make_chain(0)
    with tempfile.TemporaryDirectory() as tmp:
        src = save_record(record, Path(tmp) / "rec")
        for k in range(RecordView(src).count):
            # Checkpoint k's own row names frame k (it stores bytes).
            assert k in load_provenance(src, k).referenced()
            pristine = read_frame(src, k)
            for offset in range(len(pristine)):
                blob = bytearray(pristine)
                blob[offset] ^= 0x01
                write_frame(src, k, bytes(blob))
                where = f"flip at frame {k}:{offset}"
                assert not verify_record(src).ok, f"{where} went undetected"
                with pytest.raises(IntegrityError):
                    load_record(src)
                with pytest.raises(IntegrityError):
                    restore_record_indexed(src, upto=k)
            write_frame(src, k, pristine)
        assert verify_record(src).ok
