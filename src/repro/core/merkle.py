"""Flat-array Merkle tree over checkpoint chunks.

The paper stores the (potentially incomplete) binary hash tree "in a
flattened array and identif[ies] parent-child relationships using simple
formulas based on the offset in the array" (§2.4).  This module implements
that layout for an arbitrary leaf count *n*:

* the tree has ``2n - 1`` nodes in heap order — children of node ``i`` are
  ``2i + 1`` and ``2i + 2``;
* leaves appear **in data order** under an in-order threading: with
  ``h = ceil(log2 n)``, the first ``d = 2n - 2**h`` chunks live on the
  deepest level starting at index ``2**h - 1`` and the remaining chunks
  live one level up, immediately after the deep leaves' parents.

This is the standard "complete binary tree with in-order leaves": every
node covers a *contiguous* chunk range, which is exactly the property the
compact-metadata algorithm needs (a consolidated region must describe
adjacent chunks, §2.2).
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from ..errors import ChunkingError
from ..hashing.digest import check_digests
from ..hashing.murmur3 import hash_digest_pairs
from ..utils.validation import positive_int


class TreeLayout:
    """Index arithmetic and precomputed maps for an *n*-leaf flat tree."""

    def __init__(self, num_leaves: int) -> None:
        positive_int(num_leaves, "num_leaves")
        self.num_leaves = num_leaves
        self.num_nodes = 2 * num_leaves - 1
        # Height of the deepest level; a perfect tree of 2**height leaves.
        height = 0
        while (1 << height) < num_leaves:
            height += 1
        self.height = height
        #: Index of the leftmost slot on the deepest level.
        self.deep_start = (1 << height) - 1
        #: Number of leaves on the deepest level.
        self.deep_leaves = 2 * num_leaves - (1 << height)
        #: Index of the first *leaf* on the shallow (height-1) level.
        self.shallow_start = ((1 << height) - 1) // 2 + self.deep_leaves // 2 \
            if height > 0 else 0

        # leaf (chunk index, data order) -> node index
        chunks = np.arange(num_leaves, dtype=np.int64)
        node_of = np.where(
            chunks < self.deep_leaves,
            self.deep_start + chunks,
            self.shallow_start + (chunks - self.deep_leaves),
        )
        self.node_of_leaf = node_of

        # node index -> leaf (chunk) index, or -1 for interior nodes
        leaf_of = np.full(self.num_nodes, -1, dtype=np.int64)
        leaf_of[node_of] = chunks
        self.leaf_of_node = leaf_of

        # Contiguous chunk coverage per node: [leaf_start, leaf_start+leaf_count)
        # and, in the same bottom-up sweep, the per-level interior/child
        # index cache the dedup passes iterate every checkpoint.
        leaf_start = np.zeros(self.num_nodes, dtype=np.int64)
        leaf_count = np.zeros(self.num_nodes, dtype=np.int64)
        leaf_start[node_of] = chunks
        leaf_count[node_of] = 1
        self._interior_levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for lo, hi in reversed(self.level_ranges()):
            nodes = np.arange(lo, hi, dtype=np.int64)
            interior = nodes[leaf_of[lo:hi] < 0]
            if interior.size:
                left = 2 * interior + 1
                right = 2 * interior + 2
                self._interior_levels.append((interior, left, right))
                leaf_start[interior] = leaf_start[left]
                leaf_count[interior] = leaf_count[left] + leaf_count[right]
                # Children of an interior node must be adjacent regions.
                bad = leaf_start[right] != leaf_start[left] + leaf_count[left]
                if bad.any():  # pragma: no cover - layout invariant
                    raise ChunkingError("tree layout produced non-adjacent children")
        self._interior_only = [lvl[0] for lvl in self._interior_levels]
        self.leaf_start = leaf_start
        self.leaf_count = leaf_count

    # ------------------------------------------------------------------
    # Formulas
    # ------------------------------------------------------------------
    @staticmethod
    def parent(node: int) -> int:
        """Parent index of *node* (root has no parent)."""
        if node <= 0:
            raise ChunkingError("root node has no parent")
        return (node - 1) // 2

    @staticmethod
    def children(node: int) -> Tuple[int, int]:
        """Child indices ``(left, right)`` of *node*."""
        return 2 * node + 1, 2 * node + 2

    def level_ranges(self) -> List[Tuple[int, int]]:
        """Index ranges ``[lo, hi)`` per depth, root level first.

        Heap order guarantees level *k* occupies ``[2**k - 1, 2**(k+1) - 1)``
        clipped to the node count.
        """
        out = []
        k = 0
        while (1 << k) - 1 < self.num_nodes:
            lo = (1 << k) - 1
            hi = min((1 << (k + 1)) - 1, self.num_nodes)
            out.append((lo, hi))
            k += 1
        return out

    def interior_levels_bottom_up(self) -> List[np.ndarray]:
        """Interior-node indices per level, deepest level first.

        A node appears in the list for the level it sits on; leaves are
        excluded.  The dedup passes iterate this to propagate labels.
        The arrays are precomputed once at construction — treat them as
        read-only.
        """
        return self._interior_only

    def interior_levels_with_children(
        self,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(interior, left, right)`` index triples per level, deepest
        level first.

        The child arrays (``2*interior + 1`` / ``2*interior + 2``) are
        cached at construction so the per-checkpoint tree passes never
        recompute them.  Treat the arrays as read-only.
        """
        return self._interior_levels


@functools.lru_cache(maxsize=8)
def layout_for(num_chunks: int) -> TreeLayout:
    """The shared, read-only :class:`TreeLayout` over *num_chunks* leaves:
    what decoders of stored tree diffs resolve node ids through (the
    engines build their own).  Its arrays are frozen: a stray write raises
    instead of corrupting every reader of that chunk count."""
    layout = TreeLayout(num_chunks)
    levels = [a for level in layout.interior_levels_with_children() for a in level]
    for arr in [layout.node_of_leaf, layout.leaf_of_node, layout.leaf_start,
                layout.leaf_count, *levels]:
        arr.flags.writeable = False
    return layout


class MerkleTree:
    """Digest storage plus bottom-up construction over a :class:`TreeLayout`.

    ``digests`` is the ``(num_nodes, 2)`` uint64 array the dedup engine
    mutates in place across checkpoints — the previous checkpoint's leaf
    digests are what fixed-duplicate detection compares against
    (Algorithm 1, line 3).
    """

    def __init__(self, layout: TreeLayout) -> None:
        self.layout = layout
        self.digests = np.zeros((layout.num_nodes, 2), dtype=np.uint64)

    @classmethod
    def for_chunks(cls, num_chunks: int) -> "MerkleTree":
        """Construct an empty tree sized for *num_chunks* leaves."""
        return cls(TreeLayout(num_chunks))

    @property
    def nbytes(self) -> int:
        """Device memory footprint of the digest array."""
        return self.digests.nbytes

    def set_leaves(self, leaf_digests: np.ndarray) -> None:
        """Write per-chunk digests into their leaf slots (data order)."""
        check_digests(leaf_digests, "leaf_digests")
        if leaf_digests.shape[0] != self.layout.num_leaves:
            raise ChunkingError(
                f"expected {self.layout.num_leaves} leaf digests, got "
                f"{leaf_digests.shape[0]}"
            )
        self.digests[self.layout.node_of_leaf] = leaf_digests

    def leaves(self) -> np.ndarray:
        """Current leaf digests in data order (a copy)."""
        return self.digests[self.layout.node_of_leaf].copy()

    def build_interior(self) -> int:
        """Recompute every interior digest bottom-up.

        Returns the number of interior hashes computed (for metering).
        """
        computed = 0
        for interior, left, right in self.layout.interior_levels_with_children():
            self.digests[interior] = hash_digest_pairs(
                self.digests[left], self.digests[right]
            )
            computed += interior.shape[0]
        return computed

    def build_from_leaves(self, leaf_digests: np.ndarray) -> int:
        """Set leaves then rebuild all interior nodes; returns hash count."""
        self.set_leaves(leaf_digests)
        return self.build_interior()

    def root(self) -> np.ndarray:
        """Digest of the root node (a ``(2,)`` copy)."""
        return self.digests[0].copy()

    def verify(self) -> bool:
        """Check every interior digest matches ``H(left || right)``.

        Used by tests and the property suite; O(num_nodes) hashing.
        """
        for interior, left, right in self.layout.interior_levels_with_children():
            expect = hash_digest_pairs(self.digests[left], self.digests[right])
            if not np.array_equal(expect, self.digests[interior]):
                return False
        return True
