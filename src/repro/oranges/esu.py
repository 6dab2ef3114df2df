"""ESU enumeration of connected induced subgraphs (Wernicke, 2006).

ORANGES needs every connected induced subgraph on 2..k vertices exactly
once.  ESU guarantees that: rooted at vertex *v*, it only extends with
vertices greater than *v* whose first contact with the growing subgraph
happens through the newest member (the *exclusive neighbourhood* rule), so
each subgraph is produced at exactly one node of the recursion tree —
rooted at its minimum vertex.

That rooting is also what makes the checkpoint stream realistic: a
graphlet's counts are committed when its minimum vertex is processed, so
GDV updates sweep through the buffer in vertex order with a halo whose
width depends on the graph ordering (this is why Gorder matters, §3.2).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import GraphError
from ..graphs.csr import Graph
from ..utils.validation import positive_int
from .graphlets import MAX_GRAPHLET_SIZE


class EsuEnumerator:
    """Reusable ESU state over one graph.

    Builds the neighbour-set representation once; ``subgraphs_rooted_at``
    then streams every connected induced subgraph of size 2..max_size
    whose minimum vertex is the root, each exactly once.
    """

    def __init__(self, graph: Graph, max_size: int = 4) -> None:
        positive_int(max_size, "max_size")
        if max_size > MAX_GRAPHLET_SIZE:
            raise GraphError(
                f"max_size {max_size} exceeds atlas limit {MAX_GRAPHLET_SIZE}"
            )
        self.graph = graph
        self.max_size = max_size
        self.neighbors: List[Set[int]] = [
            set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)
        ]

    def subgraphs_rooted_at(self, root: int) -> Iterator[Tuple[int, ...]]:
        """Yield connected induced subgraphs rooted at (= minimised by)
        *root*, as vertex tuples in discovery order (``sub[0] == root``)."""
        if not 0 <= root < self.graph.num_vertices:
            raise GraphError(f"root {root} out of range")
        k = self.max_size
        neighbors = self.neighbors

        def extend(
            sub: Tuple[int, ...], ext: List[int], closed: Set[int]
        ) -> Iterator[Tuple[int, ...]]:
            # `ext` is consumed destructively: after w is taken, the
            # remaining candidates go to w's branch — the disjointness that
            # makes each subgraph unique.  `closed` is sub ∪ N(sub); only
            # vertices outside it ("exclusive neighbours" of w) may join
            # the extension set, which prevents re-reaching a vertex via a
            # different attachment point.
            while ext:
                w = ext.pop()
                grown = sub + (w,)
                yield grown
                if len(grown) < k:
                    fresh = [
                        u for u in neighbors[w] if u > root and u not in closed
                    ]
                    yield from extend(grown, ext + fresh, closed | neighbors[w])

        base = [u for u in neighbors[root] if u > root]
        closed0 = neighbors[root] | {root}
        yield from extend((root,), base, closed0)

    def subgraphs_containing(self, vertex: int) -> Iterator[Tuple[int, ...]]:
        """Yield every connected induced subgraph of size 2..max_size that
        *contains* ``vertex`` (in any position), each exactly once, as a
        tuple with ``sub[0] == vertex``.

        Same recursion as :meth:`subgraphs_rooted_at` minus the min-vertex
        filter: ESU's destructive extension set plus the exclusive-
        neighbourhood rule already guarantee uniqueness for a fixed root.
        This is the work the real ORANGES performs per vertex — every
        graphlet is enumerated once per member — and what makes GDV rows
        finalise strictly in processing order.
        """
        if not 0 <= vertex < self.graph.num_vertices:
            raise GraphError(f"vertex {vertex} out of range")
        k = self.max_size
        neighbors = self.neighbors

        def extend(
            sub: Tuple[int, ...], ext: List[int], closed: Set[int]
        ) -> Iterator[Tuple[int, ...]]:
            while ext:
                w = ext.pop()
                grown = sub + (w,)
                yield grown
                if len(grown) < k:
                    fresh = [u for u in neighbors[w] if u not in closed]
                    yield from extend(grown, ext + fresh, closed | neighbors[w])

        base = list(neighbors[vertex])
        closed0 = neighbors[vertex] | {vertex}
        yield from extend((vertex,), base, closed0)

    def subgraph_mask(self, sub: Tuple[int, ...]) -> int:
        """Adjacency bitmask of the induced subgraph on *sub*.

        Bit order follows :func:`repro.oranges.graphlets.pair_bit` over the
        positions of *sub* as given (not sorted).
        """
        mask = 0
        bit = 0
        neighbors = self.neighbors
        size = len(sub)
        for i in range(size):
            si = sub[i]
            for j in range(i + 1, size):
                if sub[j] in neighbors[si]:
                    mask |= 1 << bit
                bit += 1
        return mask


def enumerate_subgraphs(
    graph: Graph,
    max_size: int = 4,
    roots: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Stream every connected induced subgraph of size 2..max_size.

    ``roots`` restricts enumeration to subgraphs whose minimum vertex is in
    the given set (the per-batch work of the progressive engine).
    """
    esu = EsuEnumerator(graph, max_size)
    vertex_iter = range(graph.num_vertices) if roots is None else roots
    for root in vertex_iter:
        yield from esu.subgraphs_rooted_at(int(root))


def count_subgraphs_by_size(graph: Graph, max_size: int = 4) -> np.ndarray:
    """Total connected induced subgraph counts indexed by size (tests)."""
    counts = np.zeros(max_size + 1, dtype=np.int64)
    for sub in enumerate_subgraphs(graph, max_size):
        counts[len(sub)] += 1
    return counts
