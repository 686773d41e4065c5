"""Library-side conveniences and references that only the tests use.

mlbdp_single, limit_sweep and virtual_link_count build on the package's
own search code (unlike the independent references in conftest.py) and
are kept here so that src/ holds only the product path. limit_sweep is
the paper's algorithm, one limit run per distinct bandwidth of each
source block, which mlbdp_full must never fall below. source_blocks is
the reference block finder, a Tarjan DFS independent of mlbdp's
union-find pass, and max_min_bounds_reference builds M_d from it
threshold by threshold. widest_tree_reference is the widest search with
(-width, node) tuple heap keys, the reference for widest_tree's
extraction order, and limit_run_reference is the limit run with
(-r, -b, idx) tuple heap keys, the reference for run_limit_search's
tables. forced_reference finds _BlockSearch.forced's nodes by testing
each interior node of one shortest path for removal. evaluate,
satisfied, group_counts, violations and
pair_to_assignment walk concrete assignments through the rows of an
exact.IlpModel; group_counts reads a row's group off its name.

mlbdp_single and limit_sweep answer with graph.DisjointResult like every
solver, with upper_bound None: neither proves its pairs optimal.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Mapping

from widestpair.exact import IlpModel, LinearConstraint
from widestpair.graph import DisjointResult, Graph, PathPair
from widestpair.mlbdp import (
    VNodeTable,
    _block_graph,
    _BlockSearch,
    _blocks_and_bounds,
    _initialize,
    _keep_improved,
    run_limit_search,
    unique_bandwidths,
)
from widestpair.widest import WidestTree, max_bandwidth_tree


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
    return {d: DisjointResult(pair, None) for d, pair in best.items()}


def limit_sweep(g: Graph, s: int) -> dict[int, DisjointResult]:
    """The paper's search: best pair per destination over all limits.

    Keeps, per destination, the largest combined bandwidth over one limit
    search per distinct link bandwidth, then the larger min bottleneck;
    on full ties the smaller limit. A destination is present exactly
    when some run reached it. The answers are valid pairs but can fall
    short of the optimum (see the mlbdp module docstring).

    The sweep runs on each source block alone, over the block's own
    bandwidths. Every vnode with both coordinates in the block sees the
    same pops as in the whole-graph run, so the answers are the
    whole-graph sweep's. A pair is rebuilt only when it beats the
    destination's best so far.
    """
    best: dict[int, PathPair] = {}
    # max_bandwidth_tree checks the source
    for links, max_min in _blocks_and_bounds(max_bandwidth_tree(g, s), g.adjacency()):
        block = _block_graph(g.n, links)
        for limit in unique_bandwidths(block):
            _keep_improved(run_limit_search(block, s, limit), sorted(max_min), best)
    return {d: DisjointResult(best[d], None) for d in sorted(best)}


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
    return WidestTree(s, maxbw, previous, settled)


def limit_run_reference(g: Graph, s: int, limit: int) -> VNodeTable:
    """mlbdp.run_limit_search with (-r, -b, idx) tuples as heap entries and
    a map of each tentative vnode's current key: an entry is stale when it
    is not its vnode's current key, and a move onto a tentative vnode wins
    when its key is smaller."""
    n = g.n
    adj = g.adjacency()
    table = VNodeTable(n, s, limit)
    r, b, prev, vis, perm = table.r, table.b, table.prev, table.visited, table.permanent
    current = {idx: (-r[idx], -b[idx], idx) for idx in _initialize(table, adj)}
    heap = list(current.values())
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        idx = key[2]
        if current.get(idx) != key:
            continue
        del current[idx]
        perm[idx] = 1
        table.settled.append(idx)
        x, y = divmod(idx, n)
        if x == y:
            continue
        # (target, r, b, the node added, the other frontier): the first
        # coordinate's moves, then the second's, in adjacency order
        moves = [(v * n + y, min(r[idx], bw), b[idx], v, y) for v, bw in adj[x]]
        moves += [(x * n + u, r[idx], min(b[idx], bw), u, x) for u, bw in adj[y] if bw >= limit]
        for tgt, nr, nb, w, other in moves:
            if vis[idx] >> w & 1 and w != other or perm[tgt]:
                continue
            if tgt not in current or (-nr, -nb, tgt) < current[tgt]:
                current[tgt] = (-nr, -nb, tgt)
                r[tgt], b[tgt], prev[tgt] = nr, nb, idx
                vis[tgt] = vis[idx] | 1 << w
                heapq.heappush(heap, current[tgt])
    return table


def forced_reference(search: _BlockSearch, t: int, start: int, goal: int, allowed: int) -> int | None:
    """_BlockSearch.forced by one reachability test per interior node of
    one shortest start-goal path: such a node is forced when goal is out
    of reach without it."""
    layers = search._layers(t, start, goal, allowed)
    if layers is None:
        return None
    nb = search.masks(t)
    out = 0
    cur = goal
    for layer in reversed(layers[1:]):
        step = nb[cur] & layer
        cur = (step & -step).bit_length() - 1
        if not search.reaches(t, start, goal, allowed & ~(1 << cur)):
            out |= 1 << cur
    return out


def evaluate(row: LinearConstraint, assignment: Mapping[str, int]) -> int:
    """The row's left-hand side; variables not assigned count as 0."""
    return sum(c * assignment.get(v, 0) for v, c in row.coeffs)


def satisfied(row: LinearConstraint, assignment: Mapping[str, int]) -> bool:
    lhs = evaluate(row, assignment)
    return lhs == row.rhs if row.sense == "=" else lhs <= row.rhs


def group_counts(model: IlpModel) -> dict[str, int]:
    """Number of rows per constraint group: a row's name less its
    trailing _<int> parts (red_flow_3 is in red_flow)."""
    counts: dict[str, int] = {}
    for c in model.constraints:
        group = re.sub(r"(_\d+)+$", "", c.name)
        counts[group] = counts.get(group, 0) + 1
    return counts


def violations(model: IlpModel, assignment: Mapping[str, int]) -> list[str]:
    """Names of constraints (and variable domains) the assignment breaks."""
    bad = [c.name for c in model.constraints if not satisfied(c, assignment)]
    bad.extend(f"binary {v}" for v in model.binaries if assignment.get(v, 0) not in (0, 1))
    bad.extend(f"bound {v}" for v in model.continuous if assignment.get(v, 0) < 0)
    return bad


def pair_to_assignment(pair: PathPair) -> dict[str, int]:
    """Encode a concrete pair as 0/1 arc variables plus yr/yb.

    Variables not present are implicitly 0 for the evaluator.
    """
    out = {"yr": pair.red_bw, "yb": pair.blue_bw}
    for a, b in zip(pair.red, pair.red[1:]):
        out[f"r_{a}_{b}"] = 1
    for a, b in zip(pair.blue, pair.blue[1:]):
        out[f"b_{a}_{b}"] = 1
    return out
