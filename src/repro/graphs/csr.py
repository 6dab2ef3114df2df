"""Compressed-sparse-row graph structure.

All generators and the ORANGES engine operate on this undirected simple
graph: CSR index arrays (the layout GPU graph frameworks use), sorted
adjacency for O(log d) membership, and vertex relabeling for the Gorder
pre-processing pass.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import GraphError
from ..utils.validation import positive_int


class Graph:
    """Undirected simple graph in CSR form.

    ``indptr``/``indices`` follow the scipy.sparse convention; every edge
    appears in both endpoints' adjacency lists, adjacency lists are sorted,
    and self-loops/duplicates are rejected at construction.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D")
        if self.indptr.shape[0] < 2 or self.indptr[0] != 0:
            raise GraphError("indptr must start at 0 and cover ≥1 vertex")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphError("indptr does not cover the indices array")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = self.num_vertices
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphError("adjacency index out of range")
        self._validate_simple()

    def _validate_simple(self) -> None:
        if self.indices.size == 0:
            return
        owner = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )
        if np.any(self.indices == owner):
            raise GraphError("self-loop detected")
        if self.indices.size > 1:
            diffs = np.diff(self.indices)
            crosses_row = np.zeros(self.indices.size - 1, dtype=bool)
            boundaries = self.indptr[1:-1]
            interior = boundaries[(boundaries > 0) & (boundaries < self.indices.size)]
            crosses_row[interior - 1] = True
            if np.any((diffs <= 0) & ~crosses_row):
                raise GraphError("adjacency lists must be sorted and duplicate-free")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build from an edge iterable; duplicates and self-loops dropped."""
        positive_int(num_vertices, "num_vertices")
        arr = np.asarray(list(edges), dtype=np.int64)
        if arr.size == 0:
            indptr = np.zeros(num_vertices + 1, dtype=np.int64)
            return cls(indptr, np.empty(0, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        if arr.min() < 0 or arr.max() >= num_vertices:
            raise GraphError("edge endpoint out of range")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        keep = u != v
        u, v = u[keep], v[keep]
        # Deduplicate undirected edges.
        key = u * num_vertices + v
        _, first = np.unique(key, return_index=True)
        u, v = u[first], v[first]
        # Symmetrize.
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        counts = np.bincount(src, minlength=num_vertices)
        indptr[1:] = np.cumsum(counts)
        return cls(indptr, dst)

    @classmethod
    def from_scipy(cls, matrix) -> "Graph":
        """Build from a scipy.sparse adjacency (symmetrized, zero diag)."""
        from scipy import sparse

        coo = sparse.coo_matrix(matrix)
        return cls.from_edges(coo.shape[0], zip(coo.row.tolist(), coo.col.tolist()))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertex count."""
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.indices.shape[0] // 2

    def degree(self, v: Optional[int] = None):
        """Degree of one vertex, or the full degree array."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of *v* (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership via binary search on the sorted adjacency."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < row.shape[0] and row[pos] == v

    def edges(self) -> np.ndarray:
        """(E, 2) array of undirected edges with u < v."""
        src = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def relabel(self, order: np.ndarray) -> "Graph":
        """Apply a new vertex ordering.

        ``order[i]`` is the *old* id placed at new position ``i`` (the
        permutation Gorder produces).  Returns a new Graph.
        """
        order = np.asarray(order, dtype=np.int64)
        n = self.num_vertices
        if sorted(order.tolist()) != list(range(n)):
            raise GraphError("order must be a permutation of all vertices")
        new_id = np.empty(n, dtype=np.int64)
        new_id[order] = np.arange(n)
        edges = self.edges()
        remapped = np.stack([new_id[edges[:, 0]], new_id[edges[:, 1]]], axis=1)
        return Graph.from_edges(n, remapped)

    def to_networkx(self):
        """Convert to a networkx.Graph (test/diagnostic helper)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        g.add_edges_from(map(tuple, self.edges().tolist()))
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Graph |V|={self.num_vertices} |E|={self.num_edges}>"
