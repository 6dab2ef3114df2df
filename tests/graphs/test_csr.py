"""Tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import Graph


class TestConstruction:
    def test_from_edges(self, small_graph):
        assert small_graph.num_vertices == 8
        assert small_graph.num_edges == 9

    def test_duplicate_edges_dropped(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = Graph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        assert g.num_edges == 0
        assert g.degree().tolist() == [0, 0, 0, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 5)])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([1, 2]), np.array([0]))

    def test_unsorted_adjacency_rejected(self):
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])
        with pytest.raises(GraphError):
            Graph(indptr, indices)

    def test_from_scipy(self):
        from scipy import sparse

        mat = sparse.coo_matrix(([1, 1], ([0, 1], [1, 2])), shape=(3, 3))
        g = Graph.from_scipy(mat)
        assert g.num_edges == 2


class TestQueries:
    def test_degree(self, small_graph):
        assert small_graph.degree(2) == 3
        assert small_graph.degree().sum() == 2 * small_graph.num_edges

    def test_neighbors_sorted(self, small_graph):
        for v in range(small_graph.num_vertices):
            n = small_graph.neighbors(v)
            assert (np.diff(n) > 0).all() or n.shape[0] <= 1

    def test_has_edge(self, small_graph):
        assert small_graph.has_edge(0, 1)
        assert small_graph.has_edge(1, 0)
        assert not small_graph.has_edge(0, 7)

    def test_edges_once_each(self, small_graph):
        edges = small_graph.edges()
        assert edges.shape == (9, 2)
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_to_networkx(self, small_graph):
        gnx = small_graph.to_networkx()
        assert gnx.number_of_nodes() == 8
        assert gnx.number_of_edges() == 9


class TestRelabel:
    def test_identity(self, small_graph):
        g = small_graph.relabel(np.arange(8))
        assert np.array_equal(g.edges(), small_graph.edges())

    def test_permutation_preserves_structure(self, small_graph, rng):
        order = rng.permutation(8)
        g = small_graph.relabel(order)
        assert g.num_edges == small_graph.num_edges
        assert sorted(g.degree().tolist()) == sorted(small_graph.degree().tolist())

    def test_relabel_maps_old_to_new(self, small_graph):
        order = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        g = small_graph.relabel(order)
        # old edge (0,1) becomes (7,6)
        assert g.has_edge(7, 6)

    def test_invalid_permutation_rejected(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.relabel(np.array([0] * 8))
