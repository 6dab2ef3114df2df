"""Tests for the flat-array Merkle tree layout and construction."""

import numpy as np
import pytest

from repro.core.merkle import MerkleTree, TreeLayout, layout_for
from repro.hashing import hash_chunks, hash_digest_pairs, murmur3_x64_128


class TestTreeLayout:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100, 257])
    def test_node_count(self, n):
        layout = TreeLayout(n)
        assert layout.num_nodes == 2 * n - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 13, 100])
    def test_leaf_node_bijection(self, n):
        layout = TreeLayout(n)
        nodes = layout.node_of_leaf
        assert len(set(nodes.tolist())) == n
        for chunk in range(n):
            assert layout.leaf_of_node[nodes[chunk]] == chunk

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8, 13, 64, 100])
    def test_interior_nodes_cover_contiguous_ranges_in_order(self, n):
        layout = TreeLayout(n)
        for node in range(layout.num_nodes):
            start = layout.leaf_start[node]
            count = layout.leaf_count[node]
            assert count >= 1
            if layout.leaf_of_node[node] < 0:
                left, right = TreeLayout.children(node)
                assert layout.leaf_start[left] == start
                assert (
                    layout.leaf_start[right]
                    == layout.leaf_start[left] + layout.leaf_count[left]
                )
                assert count == layout.leaf_count[left] + layout.leaf_count[right]

    def test_root_covers_everything(self):
        layout = TreeLayout(13)
        assert layout.leaf_start[0] == 0
        assert layout.leaf_count[0] == 13

    def test_power_of_two_leaves_at_bottom(self):
        layout = TreeLayout(8)
        assert layout.node_of_leaf.tolist() == list(range(7, 15))

    def test_parent_child_formulas(self):
        assert TreeLayout.children(0) == (1, 2)
        assert TreeLayout.parent(1) == 0
        assert TreeLayout.parent(2) == 0
        assert TreeLayout.parent(14) == 6

    def test_root_has_no_parent(self):
        with pytest.raises(Exception):
            TreeLayout.parent(0)

    def test_level_ranges_partition_nodes(self):
        layout = TreeLayout(11)
        seen = []
        for lo, hi in layout.level_ranges():
            seen.extend(range(lo, hi))
        assert seen == list(range(layout.num_nodes))

    def test_interior_levels_bottom_up_excludes_leaves(self):
        layout = TreeLayout(11)
        interior = np.concatenate(layout.interior_levels_bottom_up())
        assert len(interior) == layout.num_nodes - 11
        assert (layout.leaf_of_node[interior] < 0).all()

    def test_single_leaf_tree(self):
        layout = TreeLayout(1)
        assert layout.num_nodes == 1
        assert layout.node_of_leaf.tolist() == [0]
        assert layout.interior_levels_bottom_up() == []

    def test_shared_layout_is_frozen(self):
        layout = layout_for(11)
        assert layout_for(11) is layout
        assert (layout.leaf_start == TreeLayout(11).leaf_start).all()
        for arr in (layout.leaf_start, layout.leaf_count, layout.node_of_leaf):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestMerkleTree:
    def test_build_and_verify(self, rng):
        data = rng.integers(0, 256, 64 * 13, dtype=np.uint8)
        tree = MerkleTree.for_chunks(13)
        hashes = tree.build_from_leaves(hash_chunks(data, 64))
        assert hashes == 12  # num interior nodes
        assert tree.verify()

    def test_root_depends_on_every_chunk(self, rng):
        data = rng.integers(0, 256, 64 * 8, dtype=np.uint8)
        tree = MerkleTree.for_chunks(8)
        tree.build_from_leaves(hash_chunks(data, 64))
        root_before = tree.root()
        data[3 * 64] ^= 1
        tree.build_from_leaves(hash_chunks(data, 64))
        assert not np.array_equal(root_before, tree.root())

    def test_interior_is_hash_of_children(self, rng):
        data = rng.integers(0, 256, 64 * 4, dtype=np.uint8)
        tree = MerkleTree.for_chunks(4)
        tree.build_from_leaves(hash_chunks(data, 64))
        left = tree.digests[1:2]
        right = tree.digests[2:3]
        assert np.array_equal(tree.digests[0], hash_digest_pairs(left, right)[0])
        expect = murmur3_x64_128(tree.digests[1].tobytes() + tree.digests[2].tobytes())
        assert tuple(int(x) for x in tree.digests[0]) == expect

    def test_leaves_roundtrip(self, rng):
        digests = hash_chunks(rng.integers(0, 256, 64 * 6, dtype=np.uint8), 64)
        tree = MerkleTree.for_chunks(6)
        tree.set_leaves(digests)
        assert np.array_equal(tree.leaves(), digests)

    def test_wrong_leaf_count_rejected(self):
        tree = MerkleTree.for_chunks(4)
        with pytest.raises(Exception):
            tree.set_leaves(np.zeros((5, 2), dtype=np.uint64))

    def test_verify_detects_corruption(self, rng):
        data = rng.integers(0, 256, 64 * 8, dtype=np.uint8)
        tree = MerkleTree.for_chunks(8)
        tree.build_from_leaves(hash_chunks(data, 64))
        tree.digests[2, 0] ^= np.uint64(1)
        assert not tree.verify()

    def test_identical_content_identical_root(self, rng):
        data = rng.integers(0, 256, 64 * 5, dtype=np.uint8)
        t1 = MerkleTree.for_chunks(5)
        t2 = MerkleTree.for_chunks(5)
        t1.build_from_leaves(hash_chunks(data, 64))
        t2.build_from_leaves(hash_chunks(data.copy(), 64))
        assert np.array_equal(t1.root(), t2.root())

    def test_nbytes(self):
        tree = MerkleTree.for_chunks(100)
        assert tree.nbytes == (2 * 100 - 1) * 16
