"""Two-round threshold heuristic for node-disjoint pairs (MBA baseline).

Finds one high-bandwidth path, deletes its interior nodes, then searches
again. The two-step approach is exactly what makes it a baseline: the
first path can consume nodes a valid pair needs, so it misses pairs a
concurrent search finds.

A round is MBA's threshold sweep: try the source-incident bandwidths in
descending order, then the other bandwidths, and return the cheapest path
over the links >= the first threshold tau that admits one. Links >= tau
hold an s-t path exactly when tau <= W, the widest s-t bottleneck, so
the sweep stops at the largest source-incident bandwidth <= W. When there
is none, the widest path's narrowest link is not source-incident, so W is
itself one of the other bandwidths and the sweep stops at W. A round
therefore needs one widest search (widest.widest_tree, stopped at t) and
one cheapest-path search.
"""

from __future__ import annotations

import heapq

from .graph import Graph, PathPair, bottleneck, check_query
from .widest import Adjacency, widest_tree, without_link


def _cheapest_path(adj: Adjacency, s: int, t: int, tau: int, closed: set[int]) -> tuple[int, ...]:
    """Min-cost Dijkstra on the links with bandwidth >= tau, avoiding the closed nodes.

    Cost per link is C - bandwidth with C one above the largest remaining
    bandwidth, so high-bandwidth links are preferred. Ties go to fewer
    hops, then lowest node id. Callers ensure that t is reachable.
    """
    n = len(adj)
    c = 1 + max(bw for u, row in enumerate(adj) if u not in closed for v, bw in row if v not in closed)
    done = bytearray(n)
    for v in closed:
        done[v] = 1
    # dist holds cost * n + hops; a heap key appends the node id, so keys
    # order by (cost, hops, node)
    dist = [-1] * n
    dist[s] = 0
    pred = [-1] * n
    heap = [s]
    while True:
        dh, x = divmod(heapq.heappop(heap), n)
        if done[x]:
            continue
        if x == t:
            break
        done[x] = 1
        for v, bw in adj[x]:
            if bw < tau or done[v]:
                continue
            cand = dh + (c - bw) * n + 1
            if dist[v] < 0 or cand < dist[v]:
                dist[v] = cand
                pred[v] = x
                heapq.heappush(heap, cand * n + v)
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    path.reverse()
    return tuple(path)


def _round_path(adj: Adjacency, s: int, t: int, closed: set[int]) -> tuple[int, ...] | None:
    """One round: the path the threshold sweep returns, or None when t is unreachable."""
    w = widest_tree(adj, s, closed, t).maxbw[t]
    if w == 0:
        return None
    tau = max((bw for v, bw in adj[s] if bw <= w and v not in closed), default=w)
    return _cheapest_path(adj, s, t, tau, closed)


def mba_pair(g: Graph, s: int, t: int) -> PathPair | None:
    """Node-disjoint s-t pair by two rounds of threshold search, or None.

    Round one finds a path; its links, its interior nodes (never s or
    t), and their incident links are removed; round two repeats the
    sweep on what is left. Returns None as soon as either round finds
    nothing.
    """
    check_query(g, s, t)
    adj = g.adjacency()
    first = _round_path(adj, s, t, set())
    if first is None:
        return None
    if len(first) == 2:
        # the direct s-t hop leaves no interior node to delete, so round
        # two drops the link itself
        adj = without_link(adj, s, t)
    second = _round_path(adj, s, t, set(first[1:-1]))
    if second is None:
        return None
    return PathPair(first, second, bottleneck(g, first), bottleneck(g, second))
