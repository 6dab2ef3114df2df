"""Graphlet atlas: canonical forms, automorphism orbits, lookup tables.

ORANGES computes, per vertex, the *graphlet degree vector* (GDV): how many
times the vertex appears in each automorphism orbit of each connected
graphlet on 2–5 vertices (§3.2).  There are 30 such graphlets (1 + 2 + 6 +
21) carrying 73 orbits — which matches Table 1's GDV sizes exactly
(|V| × 73 × 4 bytes).

This module enumerates all of them programmatically: every labeled graph
on k ≤ 5 vertices is a bitmask over the C(k,2) vertex pairs; canonical
forms come from minimising over all k! relabelings; automorphism orbits
from the stabiliser permutations.  The resulting ``orbit_table[k]`` maps
*any* labeled adjacency mask directly to the global orbit id of each of
its k positions, so classifying an enumerated subgraph is a single table
lookup.

Orbit numbering: graphlets are ordered by (size, edge count, max degree,
canonical mask) and orbits within a graphlet by ascending (degree,
neighbour-degree signature).  For sizes ≤ 4 this provably reproduces the
standard Pržulj numbering (orbits 0–14: degree alone separates every orbit
and the standard order is ascending degree); for size 5 the assignment of
ids 15–72 is deterministic but may permute Pržulj's — nothing downstream
depends on which index is which, only on the partition being correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphError

MAX_GRAPHLET_SIZE = 5
MIN_GRAPHLET_SIZE = 2

#: Pair-bit conventions per size: _PAIRS[k] lists (i, j) for bit b.
_PAIRS: Dict[int, List[Tuple[int, int]]] = {
    k: list(combinations(range(k), 2)) for k in range(2, MAX_GRAPHLET_SIZE + 1)
}
_PAIR_BIT: Dict[int, Dict[Tuple[int, int], int]] = {
    k: {pair: b for b, pair in enumerate(pairs)} for k, pairs in _PAIRS.items()
}


def pair_bit(k: int, i: int, j: int) -> int:
    """Bit index of the (i, j) pair in a size-*k* adjacency mask."""
    if i > j:
        i, j = j, i
    return _PAIR_BIT[k][(i, j)]


def _apply_perm(mask: int, k: int, perm: Tuple[int, ...]) -> int:
    """Relabel a mask's vertices by *perm* (perm[i] = new label of i)."""
    out = 0
    for b, (i, j) in enumerate(_PAIRS[k]):
        if mask >> b & 1:
            out |= 1 << pair_bit(k, perm[i], perm[j])
    return out


def _degrees(mask: int, k: int) -> List[int]:
    deg = [0] * k
    for b, (i, j) in enumerate(_PAIRS[k]):
        if mask >> b & 1:
            deg[i] += 1
            deg[j] += 1
    return deg


def _connected(mask: int, k: int) -> bool:
    adj = [[] for _ in range(k)]
    for b, (i, j) in enumerate(_PAIRS[k]):
        if mask >> b & 1:
            adj[i].append(j)
            adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == k


@dataclass(frozen=True)
class GraphletInfo:
    """One graphlet type in the atlas."""

    index: int
    size: int
    num_edges: int
    canonical_mask: int
    #: Global orbit id for each canonical vertex position.
    position_orbits: Tuple[int, ...]
    #: Number of distinct orbits this graphlet carries.
    num_orbits: int


class GraphletAtlas:
    """Complete 2..max_size graphlet/orbit tables.

    Attributes
    ----------
    graphlets:
        :class:`GraphletInfo` per graphlet, in global order.
    num_orbits:
        Total orbit count (73 for max_size=5; 15 for max_size=4).
    orbit_table:
        ``orbit_table[k][mask, position]`` → global orbit id, for every
        *connected* labeled mask; rows of disconnected masks hold -1.
    """

    def __init__(self, max_size: int = MAX_GRAPHLET_SIZE) -> None:
        if not MIN_GRAPHLET_SIZE <= max_size <= MAX_GRAPHLET_SIZE:
            raise GraphError(
                f"max_size must be {MIN_GRAPHLET_SIZE}..{MAX_GRAPHLET_SIZE}, "
                f"got {max_size}"
            )
        self.max_size = max_size
        self.graphlets: List[GraphletInfo] = []
        self.orbit_table: Dict[int, np.ndarray] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        next_orbit = 0
        for k in range(MIN_GRAPHLET_SIZE, self.max_size + 1):
            perms = list(permutations(range(k)))
            num_masks = 1 << len(_PAIRS[k])
            table = np.full((num_masks, k), -1, dtype=np.int16)

            # Group connected masks by canonical form.
            canon_of: Dict[int, int] = {}
            members: Dict[int, List[int]] = {}
            for mask in range(num_masks):
                if not _connected(mask, k):
                    continue
                canon = min(_apply_perm(mask, k, p) for p in perms)
                canon_of[mask] = canon
                members.setdefault(canon, []).append(mask)

            # Deterministic graphlet order (matches Pržulj for k ≤ 4).
            def sort_key(canon: int):
                deg = _degrees(canon, k)
                return (bin(canon).count("1"), max(deg), canon)

            for canon in sorted(members, key=sort_key):
                # Automorphism orbits of the canonical form.
                autos = [p for p in perms if _apply_perm(canon, k, p) == canon]
                parent = list(range(k))

                def find(x: int) -> int:
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for p in autos:
                    for i in range(k):
                        ri, rj = find(i), find(p[i])
                        if ri != rj:
                            parent[ri] = rj
                classes: Dict[int, List[int]] = {}
                for i in range(k):
                    classes.setdefault(find(i), []).append(i)

                # Order orbit classes by (degree, neighbour-degree signature).
                deg = _degrees(canon, k)
                adj = [[] for _ in range(k)]
                for b, (i, j) in enumerate(_PAIRS[k]):
                    if canon >> b & 1:
                        adj[i].append(j)
                        adj[j].append(i)

                def class_key(positions: List[int]):
                    rep = positions[0]
                    neigh_sig = tuple(sorted(deg[w] for w in adj[rep]))
                    two_hop = tuple(
                        sorted(
                            tuple(sorted(deg[x] for x in adj[w])) for w in adj[rep]
                        )
                    )
                    return (deg[rep], neigh_sig, two_hop, min(positions))

                ordered = sorted(classes.values(), key=class_key)
                position_orbit = [0] * k
                class_orbit_ids = []
                for cls in ordered:
                    class_orbit_ids.append(next_orbit)
                    for pos in cls:
                        position_orbit[pos] = next_orbit
                    next_orbit += 1

                info = GraphletInfo(
                    index=len(self.graphlets),
                    size=k,
                    num_edges=bin(canon).count("1"),
                    canonical_mask=canon,
                    position_orbits=tuple(position_orbit),
                    num_orbits=len(ordered),
                )
                self.graphlets.append(info)

                # Fill the lookup rows for every labeled member mask: map
                # each labeled position through some isomorphism to the
                # canonical form, then read its orbit.
                for mask in members[canon]:
                    for p in perms:
                        if _apply_perm(mask, k, p) == canon:
                            for i in range(k):
                                table[mask, i] = position_orbit[p[i]]
                            break
            self.orbit_table[k] = table
        self.num_orbits = next_orbit

    # ------------------------------------------------------------------
    @property
    def num_graphlets(self) -> int:
        """Number of graphlet types in the atlas."""
        return len(self.graphlets)

    def classify(self, k: int, mask: int) -> np.ndarray:
        """Orbit id per labeled position of a connected size-*k* mask."""
        if k not in self.orbit_table:
            raise GraphError(f"atlas not built for size {k}")
        row = self.orbit_table[k][mask]
        if row[0] < 0:
            raise GraphError(f"mask {mask:#x} on {k} vertices is disconnected")
        return row


_ATLAS_CACHE: Dict[int, GraphletAtlas] = {}


def get_atlas(max_size: int = MAX_GRAPHLET_SIZE) -> GraphletAtlas:
    """Shared atlas instance per max_size (building size 5 takes ~1 s)."""
    atlas = _ATLAS_CACHE.get(max_size)
    if atlas is None:
        atlas = GraphletAtlas(max_size)
        _ATLAS_CACHE[max_size] = atlas
    return atlas


#: Expected orbit totals per max_size (validated in tests).
EXPECTED_ORBITS = {2: 1, 3: 4, 4: 15, 5: 73}
#: Expected graphlet totals per max_size.
EXPECTED_GRAPHLETS = {2: 1, 3: 3, 4: 9, 5: 30}
