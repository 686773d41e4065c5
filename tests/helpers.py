"""Library-side conveniences that only the tests use.

They build on the package's own search code (unlike the independent
references in conftest.py) and are kept here so that src/ holds only the
product path.
"""

from __future__ import annotations

from widestpair.graph import Graph, PathPair
from widestpair.mlbdp import DisjointResult, _keep_improved, _source_blocks, run_limit_search


def connected(g: Graph) -> bool:
    """Breadth-first reachability of all nodes from node 0."""
    adj = g.adjacency()
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def mlbdp_single(g: Graph, s: int, limit: int) -> dict[int, DisjointResult]:
    """One limit run; a result for every destination it reached.

    Every returned pair has partner bottleneck >= limit.
    """
    best: dict[int, PathPair] = {}
    _keep_improved(run_limit_search(g, s, limit), [d for d in range(g.n) if d != s], best)
    return {d: DisjointResult(pair) for d, pair in best.items()}


def max_min_bounds_reference(n: int, links: list[tuple[int, int, int]], s: int) -> dict[int, int]:
    """M_d by thresholds, the reference for mlbdp._max_min_bounds: the
    largest t at which s and d share a biconnected block of 3 or more
    nodes among the links >= t.

    The source blocks at a higher threshold lie inside those at a lower
    one, so each round keeps the links of the previous round's source
    blocks, credits their nodes with the round's threshold (the smallest
    bandwidth left), drops the links that carry only that bandwidth and
    finds the source blocks again.
    """
    bound: dict[int, int] = {}
    while links:
        t = min(bw for _, _, bw in links)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, bw in links:
            bound[u] = bound[v] = t
            if bw > t:
                adj[u].append((v, bw))
                adj[v].append((u, bw))
        links = [link for block in _source_blocks(adj, s) for link in block]
    del bound[s]
    return bound


def virtual_link_count(g: Graph) -> int:
    """Count undirected links of the implicit virtual topology.

    Walks every vnode (i, j) summing its outgoing moves (one per
    neighbor of i plus one per neighbor of j); every virtual link is
    seen from both of its endpoint vnodes.
    """
    adj = g.adjacency()
    n = g.n
    ends = 0
    for i in range(n):
        di = len(adj[i])
        for j in range(n):
            ends += di + len(adj[j])
    assert ends % 2 == 0
    return ends // 2
