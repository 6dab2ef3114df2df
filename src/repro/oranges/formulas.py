"""Closed-form orbit counting for the 2–3-vertex graphlets.

ESU enumeration is exact for every orbit but costs time proportional to
the number of graphlets.  For the orbits of graphlets on up to three
vertices there are standard closed forms over degrees and triangle
counts, all computable as vectorized sparse-matrix operations:

* orbit 0 — degree:                     ``d(v)``
* orbit 1 — end of a path P3:           ``Σ_{u∈N(v)} (d(u) − 1) − 2·t(v)``
* orbit 2 — middle of a path P3:        ``C(d(v), 2) − t(v)``
* orbit 3 — triangle membership:        ``t(v)``

where ``t(v)`` is the number of triangles containing *v*, obtained from
``(A²∘A)·1 / 2`` on the adjacency matrix.  These formulas serve as a
fast bulk path (orders of magnitude quicker than enumeration), as an
independent cross-check of the ESU engine (they share no code), and as
the foundation for degree/wedge/triangle statistics elsewhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graphs.csr import Graph

if TYPE_CHECKING:  # scipy loads on first use, not on ``import repro``
    from scipy import sparse


def adjacency_matrix(graph: Graph) -> sparse.csr_matrix:
    """The graph's symmetric 0/1 adjacency as scipy CSR."""
    from scipy import sparse

    n = graph.num_vertices
    return sparse.csr_matrix(
        (
            np.ones(graph.indices.shape[0], dtype=np.int64),
            graph.indices,
            graph.indptr,
        ),
        shape=(n, n),
    )


def triangles_per_vertex(graph: Graph) -> np.ndarray:
    """t(v): triangles containing each vertex, via (A² ∘ A) row sums."""
    adj = adjacency_matrix(graph)
    paths2 = adj @ adj                     # common-neighbour counts
    closed = paths2.multiply(adj)          # keep entries that are edges
    return np.asarray(closed.sum(axis=1)).reshape(-1) // 2


def wedge_ends_per_vertex(graph: Graph) -> np.ndarray:
    """Σ_{u∈N(v)} (d(u) − 1): 2-paths starting at each vertex."""
    adj = adjacency_matrix(graph)
    degrees = graph.degree().astype(np.int64)
    return np.asarray(adj @ (degrees - 1)).reshape(-1)


def orbit_counts_0_to_3(graph: Graph) -> np.ndarray:
    """Exact per-vertex counts of orbits 0–3 as a ``(V, 4)`` int64 array."""
    degrees = graph.degree().astype(np.int64)
    triangles = triangles_per_vertex(graph)
    wedges = wedge_ends_per_vertex(graph)
    out = np.empty((graph.num_vertices, 4), dtype=np.int64)
    out[:, 0] = degrees
    out[:, 1] = wedges - 2 * triangles
    out[:, 2] = degrees * (degrees - 1) // 2 - triangles
    out[:, 3] = triangles
    return out


def graphlet_totals_2_3(graph: Graph) -> dict:
    """Whole-graph graphlet counts on 2–3 vertices (consistency checks).

    Returns ``{"edges", "paths3", "triangles"}``; each graphlet counted
    once.  Useful identities: Σ orbit0 = 2·edges, Σ orbit2 = paths3,
    Σ orbit3 = 3·triangles, Σ orbit1 = 2·paths3.
    """
    counts = orbit_counts_0_to_3(graph)
    return {
        "edges": int(counts[:, 0].sum()) // 2,
        "paths3": int(counts[:, 2].sum()),
        "triangles": int(counts[:, 3].sum()) // 3,
    }
