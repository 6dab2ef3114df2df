"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph


def v1_frame(diff) -> bytes:
    """*diff* as the pre-integrity v1 ``.rdif`` frame: version 1, no digest.
    Nothing in ``src/`` writes or reads this any more; tests use it to
    check it is rejected by name."""
    from repro.core.diff import _HEADER, DIGEST_BYTES

    blob = bytearray(diff.to_bytes())
    blob[4:6] = (1).to_bytes(2, "little")
    return bytes(blob[: _HEADER.size] + blob[_HEADER.size + DIGEST_BYTES :])


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
