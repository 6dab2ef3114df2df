"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph


def ram_record(diffs):
    """*diffs* appended to a RAM record: the form every restore reads."""
    from repro.core.store import save_record
    from repro.record import MemoryStore

    return save_record(list(diffs), MemoryStore())


def v1_frame(diff) -> bytes:
    """*diff* as the pre-integrity v1 frame: version 1, no digest.
    Nothing in ``src/`` writes or reads this any more; tests use it to
    check it is rejected by name."""
    from repro.core.diff import _HEADER, DIGEST_BYTES

    blob = bytearray(diff.to_bytes())
    blob[4:6] = (1).to_bytes(2, "little")
    return bytes(blob[: _HEADER.size] + blob[_HEADER.size + DIGEST_BYTES :])


def v2_manifest(directory) -> None:
    """Overwrite *directory*'s ``record.json`` with the manifest v2 the
    pre-log store kept there (per-checkpoint columns in JSON).  Nothing in
    ``src/`` writes or reads this any more; tests use it to check it is
    rejected by name."""
    import json

    from repro.core.store import record_manifest
    from repro.record.log import HEADER_FILE

    manifest = dict(record_manifest(directory), format_version=2)
    if "provenance" in manifest:
        manifest["provenance"] = dict(manifest["provenance"], version=3)
    (directory / HEADER_FILE).write_text(json.dumps(manifest, indent=2))


def forge_log_entry(directory, index, **columns) -> None:
    """Replace columns of ``record.log`` entry *index* and re-seal the log
    from there on, so the seal chain still verifies: only the checks
    *behind* the log (frame and group digests) stand against the forgery."""
    import hashlib

    from repro.record.log import LOG_BODY, LOG_ENTRY, LOG_FILE, Log

    path = directory / LOG_FILE
    raw = path.read_bytes()
    size = LOG_ENTRY.size
    bodies = [raw[at : at + LOG_BODY.size] for at in range(0, len(raw), size)]
    fields = Log(*LOG_BODY.unpack(bodies[index]))._replace(**columns)
    bodies[index] = LOG_BODY.pack(*fields[: len(LOG_BODY.unpack(bodies[index]))])
    out = b""
    for body in bodies:
        out += body + hashlib.sha256(out + body).digest()
    path.write_bytes(out)


def frame_extent(directory, k):
    """``(offset, size)`` of checkpoint *k*'s frame in ``record.pack``, as
    the record log places it."""
    from repro.record import RecordView

    log = RecordView(directory).log
    return log.frame_off[k], log.frame_bytes[k]


def read_frame(directory, k) -> bytes:
    """Checkpoint *k*'s frame bytes, read from the pack at its extent."""
    from repro.record import PACK_FILE

    offset, size = frame_extent(directory, k)
    with open(directory / PACK_FILE, "rb") as f:
        f.seek(offset)
        return f.read(size)


def write_frame(directory, k, blob) -> None:
    """Write *blob* over checkpoint *k*'s frame in the pack, from its
    offset on: a longer blob runs into the next frame, or grows the pack
    when *k* is the last."""
    from repro.record import PACK_FILE

    offset, _ = frame_extent(directory, k)
    with open(directory / PACK_FILE, "r+b") as f:
        f.seek(offset)
        f.write(blob)


def retire_index(directory) -> None:
    """Rewrite *directory* as the unindexed record the writer used to leave
    when it dropped the index: no ``"index"`` in the header, no index
    file, and zero (kind 0) group columns in every log entry.  Nothing in
    ``src/`` writes or reads this any more; tests use it to check it is
    rejected by name."""
    import json

    from repro.record.log import HEADER_FILE, LOG_ENTRY, LOG_FILE

    count = (directory / LOG_FILE).stat().st_size // LOG_ENTRY.size
    for k in range(count):
        forge_log_entry(
            directory, k, group_off=0, group_len=0, group_kind=0, group_sha=bytes(32)
        )
    header_path = directory / HEADER_FILE
    header = json.loads(header_path.read_text())
    (directory / header.pop("index")).unlink()
    header_path.write_text(json.dumps(header, indent=2))


def numpy_path():
    """Patch that makes the native loader report "no native object": hashing,
    ``DigestMap`` and the Tree passes all take their NumPy reference paths
    while it is active."""
    from unittest import mock

    from repro.hashing import native

    return mock.patch.object(native, "get_lib", lambda: None)


@pytest.fixture
def rng():
    """Deterministic RNG per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_graph():
    """A hand-built 8-vertex graph with a triangle, a square and a tail."""
    edges = [
        (0, 1), (1, 2), (0, 2),          # triangle 0-1-2
        (2, 3),                          # bridge
        (3, 4), (4, 5), (5, 6), (3, 6),  # square 3-4-5-6
        (6, 7),                          # tail
    ]
    return Graph.from_edges(8, edges)


@pytest.fixture
def checkpoint_stream(rng):
    """A synthetic checkpoint stream: base buffer plus sparse updates and
    one shifted (copied) region per step — exercises FIXED, FIRST and
    SHIFT classes for every engine."""
    n = 64 * 512 + 40  # includes a short tail chunk at chunk_size=64
    base = rng.integers(0, 256, n, dtype=np.uint8)
    stream = [base.copy()]
    cur = base.copy()
    for _ in range(4):
        cur = cur.copy()
        idx = rng.integers(0, n, 64)
        cur[idx] = rng.integers(0, 256, 64, dtype=np.uint8)
        src = int(rng.integers(0, n // 2))
        dst = int(rng.integers(n // 2, n - 2048))
        cur[dst : dst + 2048] = cur[src : src + 2048]
        stream.append(cur.copy())
    return stream
