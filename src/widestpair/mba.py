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

The cheapest-path cost is C - bandwidth, with C one above the largest
bandwidth left. Round one's C comes from the graph's top bandwidth
(Graph.top_links, found once per graph). Round two counts the top links
the first path's removal takes and keeps that C unless it took them all;
only then does it scan what is left.
"""

from __future__ import annotations

import heapq

from .graph import Graph, PathPair, bottleneck, check_endpoints
from .widest import Adjacency, widest_tree, without_link


def _cheapest_path(adj: Adjacency, s: int, t: int, tau: int, closed: set[int], c: int) -> tuple[int, ...]:
    """Min-cost Dijkstra on the links with bandwidth >= tau, avoiding the closed nodes.

    Cost per link is c - bandwidth, where the caller passes c one above the
    largest bandwidth on a link between two open nodes, so high-bandwidth
    links are preferred. Ties go to fewer hops, then lowest node id.
    Callers ensure that t is reachable.
    """
    n = len(adj)
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


def _round_path(adj: Adjacency, s: int, t: int, closed: set[int], c: int) -> tuple[int, ...] | None:
    """One round: the path the threshold sweep returns, or None when t is unreachable.

    c is _cheapest_path's cost constant for this round's graph.
    """
    w = widest_tree(adj, s, closed, t).maxbw[t]
    if w == 0:
        return None
    tau = max((bw for v, bw in adj[s] if bw <= w and v not in closed), default=w)
    return _cheapest_path(adj, s, t, tau, closed, c)


def mba_pair(g: Graph, s: int, t: int) -> PathPair | None:
    """Node-disjoint s-t pair by two rounds of threshold search, or None.

    Round one finds a path; its links, its interior nodes (never s or
    t), and their incident links are removed; round two repeats the
    sweep on what is left. Returns None as soon as either round finds
    nothing. Both rounds use C = top + 1 for the graph's largest
    bandwidth top, unless round two has lost every link of bandwidth
    top; it then scans what is left for its C.
    """
    check_endpoints(g.n, s, t)
    adj = g.adjacency()
    top, count = g.top_links()
    first = _round_path(adj, s, t, set(), top + 1)
    if first is None:
        return None
    red_bw = bottleneck(g, first)
    closed = set(first[1:-1])
    if closed:
        # a top link between two removed nodes counts once, at its higher end
        lost = sum(1 for x in closed for v, bw in adj[x] if bw == top and (v < x or v not in closed))
    else:
        # the direct s-t hop leaves no interior node to delete, so round
        # two drops the link itself
        adj = without_link(adj, s, t)
        lost = int(red_bw == top)
    c = top + 1
    if lost == count:
        c = 1 + max((bw for u, row in enumerate(adj) if u not in closed for v, bw in row if v not in closed), default=0)
    second = _round_path(adj, s, t, closed, c)
    if second is None:
        return None
    return PathPair(first, second, red_bw, bottleneck(g, second))
