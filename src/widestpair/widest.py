"""Single-source maximum-bottleneck-bandwidth tree.

Dijkstra variant: instead of minimizing summed cost, each node keeps the
best achievable path bottleneck from the source, and relaxation replaces
it whenever min(maxbw[x], bw(x, v)) improves on it.

widest_tree is the package's one widest-path search. It serves the W
bound of mlbdp_full (through max_bandwidth_tree), the partner path of the
exact pair search and both rounds of the MBA baseline. The exact search
and MBA's round two close nodes, stop at their destination and may drop
the direct link (without_link). MBA's round one runs one unstopped tree
per source, which the graph keeps for that source's later queries. Its
WidestTree holds only what those callers read.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, check_endpoints

Adjacency = list[list[tuple[int, int]]]


@dataclass
class WidestTree:
    """Widest-path search result for one source.

    maxbw[v] is the best achievable bottleneck bandwidth from the source
    to v; 0 means unreachable (the source itself also stores 0 and is
    treated as unbounded during relaxation). previous[v] is the
    predecessor on a widest path, None at the source. settled lists
    nodes in the order they became permanent, source first; closed
    nodes are never in it.
    """

    source: int
    maxbw: list[int]
    previous: list[int | None]
    settled: list[int]


def widest_tree(adj: Adjacency, s: int, closed: Iterable[int] = (), stop: int = -1) -> WidestTree:
    """Widest-path tree from s over per-node (neighbor, bandwidth) lists.

    No path enters a closed node; closed nodes count as permanent and
    keep maxbw 0. The search returns as soon as node stop is settled:
    maxbw[stop] and the predecessor walk from stop are then final, the
    values of unsettled nodes are not.
    Extraction always picks the tentative node with the largest maxbw,
    ties going to the lowest node id, so results are deterministic.
    """
    n = len(adj)
    maxbw = [0] * n
    previous: list[int | None] = [s] * n
    previous[s] = None
    permanent = [False] * n
    for v in closed:
        permanent[v] = True
    permanent[s] = True
    settled = [s]
    # an entry for node v at width w is the int v - w * n: entries pop
    # widest first, ties lowest node first, and key % n recovers v
    heap: list[int] = []
    for v, bw in adj[s]:
        if not permanent[v]:
            maxbw[v] = bw
            heap.append(v - bw * n)
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    # a node's first pop carries its final maxbw (entries only ever
    # improve it, and later pushes are no wider than the pop), so a pop
    # of a permanent node is the only stale one
    while heap:
        x = pop(heap) % n
        if permanent[x]:
            continue
        permanent[x] = True
        settled.append(x)
        if x == stop:
            break
        bx = maxbw[x]
        for v, bw in adj[x]:
            if permanent[v]:
                continue
            w = bx if bw >= bx else bw
            if w > maxbw[v]:
                maxbw[v] = w
                previous[v] = x
                push(heap, v - w * n)
    return WidestTree(s, maxbw, previous, settled)


def max_bandwidth_tree(g: Graph, s: int) -> WidestTree:
    """Compute per-node maximum bottleneck bandwidth from s (see widest_tree)."""
    check_endpoints(g.n, s)
    return widest_tree(g.adjacency(), s)


def without_link(adj: Adjacency, u: int, v: int) -> Adjacency:
    """A copy of adj without link u-v; the rows of other nodes are shared."""
    out = list(adj)
    out[u] = [e for e in adj[u] if e[0] != v]
    out[v] = [e for e in adj[v] if e[0] != u]
    return out


def extract_widest_path(tree: WidestTree, dest: int) -> tuple[int, ...] | None:
    """Predecessor walk from dest back to the source.

    Returns None when dest is unreachable. Raises ValueError, as
    check_endpoints does, when dest is not a node or is the source itself.
    """
    check_endpoints(len(tree.maxbw), tree.source, dest)
    if tree.maxbw[dest] == 0:
        return None
    path = [dest]
    v: int | None = dest
    while v != tree.source:
        v = tree.previous[v]
        assert v is not None
        path.append(v)
    path.reverse()
    return tuple(path)
