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
one cheapest-path search, stopped at t too.

Round one depends only on the graph and the source, and all-pairs callers
ask every destination of one source in turn. So each graph keeps a
one-entry memo for the last source asked. The first query from a source
builds it: one unstopped widest tree, then one unstopped cheapest-path
tree per distinct tau when first needed. Every query reads W, tau and
the first path from it, through a lookup and a predecessor walk. A
search stopped at t pops the same nodes in the same order up to t, so
t's W and its predecessor chain, ties included, are those a stopped
round would find. add_link clears the memo.

The cheapest-path cost is C - bandwidth, with C one above the largest
bandwidth a link still carries. _levels lists every link bandwidth,
largest first, with the count of links at that level or above, once per
graph (the memo keeps it from one source to the next). Round one removes
nothing, so its C is one above the first level. Round two, which runs
its searches stopped at t, takes C from the first level that keeps a
link. Walking the levels down, one keeps a link when the removal takes
fewer links at or above it than its count: a count above the removed
nodes' degrees summed shows that at once, and otherwise one pass over
those nodes' links counts them, one bandwidth compare rejecting most.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import accumulate
from typing import Iterable

from .graph import Graph, PathPair, bottleneck, check_endpoints
from .widest import Adjacency, widest_tree, without_link


def _cheapest_path(adj: Adjacency, s: int, tau: int, closed: Iterable[int], c: int, stop: int = -1) -> list[int]:
    """Min-cost Dijkstra from s on the links with bandwidth >= tau, avoiding the closed nodes.

    Returns the predecessor list, -1 where no path was found. Cost per
    link is c - bandwidth, where the caller passes c one above the largest
    bandwidth on a link between two open nodes, so high-bandwidth links
    are preferred. Ties go to fewer hops, then lowest node id. The search
    returns as soon as node stop is settled; the predecessor walk from
    stop is then final, as it is from every node of an unstopped search.
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
    while heap:
        dh, x = divmod(heapq.heappop(heap), n)
        if done[x]:
            continue
        if x == stop:
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
    return pred


def _walk(pred: list[int], s: int, t: int) -> tuple[int, ...]:
    """The s-t path that the predecessor list of a search from s holds."""
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    path.reverse()
    return tuple(path)


def _threshold(adj: Adjacency, s: int, w: int, closed: set[int]) -> int:
    """The sweep's tau: the largest open source-incident bandwidth <= w, else w."""
    return max((bw for v, bw in adj[s] if bw <= w and v not in closed), default=w)


def _levels(adj: Adjacency) -> tuple[list[int], list[int]]:
    """Every link bandwidth, largest first, and how many links carry it or more."""
    # every link sits in the rows of both its ends
    tally = Counter(bw for row in adj for _, bw in row)
    bws = sorted(tally, reverse=True)
    return bws, list(accumulate(tally[bw] // 2 for bw in bws))


def _round_path(adj: Adjacency, s: int, t: int, closed: set[int], c: int) -> tuple[int, ...] | None:
    """One round: the path the threshold sweep returns, or None when t is unreachable.

    c is _cheapest_path's cost constant for this round's graph.
    """
    w = widest_tree(adj, s, closed, t).maxbw[t]
    if w == 0:
        return None
    return _walk(_cheapest_path(adj, s, _threshold(adj, s, w, closed), closed, c, t), s, t)


def mba_pair(g: Graph, s: int, t: int) -> PathPair | None:
    """Node-disjoint s-t pair by two rounds of threshold search, or None.

    Round one finds a path; its links, its interior nodes (never s or
    t), and their incident links are removed; round two repeats the
    sweep on what is left. Returns None as soon as either round finds
    nothing. Each round's C is one above the largest bandwidth a link of
    that round's graph carries: the graph's largest in round one, and in
    round two the largest level whose links the removal did not all take
    (C = 1 when it took every link).

    Round one reads W, tau and the first path from g's memo for s,
    which the first query from s builds (see the module docstring).
    """
    check_endpoints(g.n, s, t)
    adj = g.adjacency()
    # g._mba is (_levels(adj), its source, that source's unstopped widest
    # maxbw, {tau: its unstopped cheapest-path predecessors})
    memo = g._mba
    if memo is None or memo[1] != s:
        memo = g._mba = (_levels(adj) if memo is None else memo[0], s, widest_tree(adj, s).maxbw, {})
    (bws, at_least), _, maxbw, trees = memo
    w = maxbw[t]
    if w == 0:
        return None
    tau = _threshold(adj, s, w, set())
    pred = trees.get(tau)
    if pred is None:
        pred = trees[tau] = _cheapest_path(adj, s, tau, (), bws[0] + 1)
    first = _walk(pred, s, t)
    red_bw = bottleneck(g, first)
    closed = set(first[1:-1])
    c = 1
    if closed:
        # the removal takes at most room links
        room = 0
        for x in closed:
            room += len(adj[x])
        for bw, total in zip(bws, at_least):
            if total <= room:
                # a link between two removed nodes is lost once, at its higher end
                lost = 0
                for x in closed:
                    for v, b in adj[x]:
                        if b >= bw and (v < x or v not in closed):
                            lost += 1
                if lost == total:
                    continue
            c = bw + 1
            break
    else:
        # the direct s-t hop leaves no interior node to delete, so round
        # two drops the link itself; the top level keeps a link unless that
        # was its only one
        adj = without_link(adj, s, t)
        c = bws[0] + 1
        if at_least[0] == 1 and red_bw == bws[0]:
            c = bws[1] + 1 if len(bws) > 1 else 1
    blue = _round_path(adj, s, t, closed, c)
    if blue is None:
        return None
    return PathPair(first, blue, red_bw, bottleneck(g, blue))
