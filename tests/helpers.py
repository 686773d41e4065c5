"""Library-side conveniences and references that only the tests use.

mlbdp_single and virtual_link_count build on the package's own search
code (unlike the independent references in conftest.py) and are kept here
so that src/ holds only the product path. source_blocks is the reference
block finder, a Tarjan DFS independent of mlbdp's union-find pass, and
max_min_bounds_reference builds M_d from it threshold by threshold.
widest_tree_reference is the widest search with (-width, node) tuple heap
keys, the reference for widest_tree's extraction order.
"""

from __future__ import annotations

import heapq

from widestpair.graph import Graph, PathPair
from widestpair.mlbdp import DisjointResult, _keep_improved, run_limit_search
from widestpair.widest import WidestTree


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


def source_blocks(adj: list[list[tuple[int, int]]], s: int) -> list[list[tuple[int, int, int]]]:
    """Links of every biconnected block of s with 3 or more nodes, from
    per-node (neighbor, bandwidth) lists; the reference for the blocks of
    mlbdp._blocks_and_bounds.

    One iterative Tarjan DFS from s (Hopcroft & Tarjan 1973). Each link
    goes on a stack when first seen; once the subtree of a child u of p
    is done and low[u] >= disc[p], the links from the tree link (p, u)
    up form one block. The blocks closed at p == s are the ones holding
    s; a block of 2 nodes is a single link and holds no disjoint pair.
    """
    n = len(adj)
    disc = [0] * n
    low = [0] * n
    disc[s] = low[s] = count = 1
    links: list[tuple[int, int, int]] = []
    blocks: list[list[tuple[int, int, int]]] = []
    stack = [(s, -1, iter(adj[s]), 0)]
    while stack:
        u, parent, it, _ = stack[-1]
        for v, bw in it:
            if not disc[v]:
                count += 1
                disc[v] = low[v] = count
                stack.append((v, u, iter(adj[v]), len(links)))
                links.append((u, v, bw))
                break
            if v != parent and disc[v] < disc[u]:
                links.append((u, v, bw))
                low[u] = min(low[u], disc[v])
        else:
            _, p, _, start = stack.pop()
            if p < 0:
                continue
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                if p == s and len(links) - start >= 3:
                    blocks.append(links[start:])
                del links[start:]
    return blocks


def max_min_bounds_reference(n: int, links: list[tuple[int, int, int]], s: int) -> dict[int, int]:
    """M_d by thresholds, the reference for mlbdp._blocks_and_bounds: the
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
        links = [link for block in source_blocks(adj, s) for link in block]
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


def widest_tree_reference(adj: list[list[tuple[int, int]]], s: int, closed=(), stop: int = -1) -> WidestTree:
    """widest.widest_tree with (-width, node) tuples as heap entries, so
    extraction is widest first and ties go to the lowest node id by tuple
    order alone."""
    n = len(adj)
    maxbw = [0] * n
    previous: list[int | None] = [s] * n
    previous[s] = None
    permanent = [False] * n
    for v in closed:
        permanent[v] = True
    permanent[s] = True
    settled = [s]
    heap: list[tuple[int, int]] = []
    for v, bw in adj[s]:
        if not permanent[v]:
            maxbw[v] = bw
            heap.append((-bw, v))
    heapq.heapify(heap)
    while heap:
        x = heapq.heappop(heap)[1]
        if permanent[x]:
            continue
        permanent[x] = True
        settled.append(x)
        if x == stop:
            break
        for v, bw in adj[x]:
            if permanent[v]:
                continue
            w = min(maxbw[x], bw)
            if w > maxbw[v]:
                maxbw[v] = w
                previous[v] = x
                heapq.heappush(heap, (-w, v))
    return WidestTree(s, maxbw, previous, permanent, settled)
