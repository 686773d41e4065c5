"""Maximum-bandwidth node-disjoint path pairs (MLBDP).

The search runs a widest-path Dijkstra over an implicit virtual graph of
n x n virtual nodes (vnodes). A vnode (i, j) holds the frontiers of two
partial paths growing from the source: the first-coordinate path, whose
bottleneck the search maximizes, and the second-coordinate path, whose
bottleneck must never drop below a given limit. Reaching a vnode (d, d)
means destination d was reached by two internally node-disjoint paths.

One run answers "best first-path bottleneck subject to a partner path of
bandwidth >= limit" for every destination at once. Sweeping the limit
over every distinct link bandwidth and keeping the best combined result
per destination yields the maximum combined bandwidth over all
internally node-disjoint pairs.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

from .graph import Graph, PathPair


@dataclass(frozen=True)
class VNodeState:
    """Snapshot of one virtual node (i, j) after a run."""

    r_maxbw: int
    b_maxbw: int
    previous: tuple[int, int] | None
    visited: frozenset[int]
    permanent: bool


class VNodeTable:
    """Flat state table for one limit run over the n x n virtual nodes.

    Vnode (i, j) lives at flat index i * n + j. visited masks are node
    bitmasks covering the source and every node on both partial paths,
    frontiers included. settled records flat indexes in the order vnodes
    became permanent through the search loop (pre-labeled source row and
    column excluded).
    """

    __slots__ = ("n", "source", "limit", "r", "b", "prev", "visited", "permanent", "settled")

    def __init__(self, n: int, source: int, limit: int):
        size = n * n
        self.n = n
        self.source = source
        self.limit = limit
        self.r = [0] * size
        self.b = [0] * size
        self.prev = [-1] * size
        self.visited = [0] * size
        self.permanent = bytearray(size)
        self.settled: list[int] = []

    def state(self, i: int, j: int) -> VNodeState:
        idx = i * self.n + j
        prev = self.prev[idx]
        mask = self.visited[idx]
        return VNodeState(
            r_maxbw=self.r[idx],
            b_maxbw=self.b[idx],
            previous=None if prev < 0 else divmod(prev, self.n),
            visited=frozenset(v for v in range(self.n) if mask >> v & 1),
            permanent=bool(self.permanent[idx]),
        )


@dataclass(frozen=True)
class DisjointResult:
    """Best pair found for one destination by one or more limit runs."""

    dest: int
    pair: PathPair
    combined: int
    limit_used: int


def unique_bandwidths(g: Graph) -> list[int]:
    """Distinct link bandwidths, ascending."""
    return sorted({bw for _, _, bw in g.links()})


def _initialize(table: VNodeTable, adj: list[list[tuple[int, int]]]) -> list[int]:
    """Seed the table and return the seeded flat indexes.

    The source row and column become permanent; every ordered pair
    (i, j) of distinct source neighbors with bandwidth(s, j) >= limit
    starts with the two first-hop bandwidths and visited {s, i, j}.
    """
    n, s, limit = table.n, table.source, table.limit
    r, b, prev, vis, perm = table.r, table.b, table.prev, table.visited, table.permanent
    for i in range(n):
        perm[i * n + s] = 1
        perm[s * n + i] = 1
    src_idx = s * n + s
    base_mask = 1 << s
    seeds: list[int] = []
    for i, bw_i in adj[s]:
        for j, bw_j in adj[s]:
            if i != j and bw_j >= limit:
                idx = i * n + j
                r[idx] = bw_i
                b[idx] = bw_j
                prev[idx] = src_idx
                vis[idx] = base_mask | 1 << i | 1 << j
                seeds.append(idx)
    return seeds


def run_limit_search(g: Graph, s: int, limit: int) -> VNodeTable:
    """One widest-pair search with a fixed partner-bandwidth limit.

    Initialization seeds every ordered pair (i, j) of distinct neighbors
    of s whose second link carries at least the limit. The source row and
    column vnodes (i, s) / (s, i) are pre-labeled permanent so neither
    path can fold back through the source. The loop extracts the
    tentative vnode with the largest first-path bottleneck (ties: larger
    partner bottleneck, then lowest (i, j)), records destinations when
    both coordinates agree, and otherwise relaxes both coordinates'
    neighbors under the visited-set disjointness check; second-coordinate
    moves must also keep the partner bottleneck at or above the limit.

    A move onto the opposite frontier is the one exception to the
    visited-set check: it closes the pair at that node, producing the
    destination vnode (d, d).

    The heap holds one int per entry, ((top-r) << wb | (top-b)) << wi |
    idx with top the largest link bandwidth, which orders like
    (-r, -b, idx). key_of holds each tentative vnode's current key, -1
    once it is permanent, so an entry is stale exactly when it differs
    from key_of and a relaxation wins exactly when its key is smaller.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range 0..{g.n - 1}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    n = g.n
    adj = g.adjacency()
    table = VNodeTable(n, s, limit)
    seeds = _initialize(table, adj)
    r, b, prev, vis = table.r, table.b, table.prev, table.visited
    perm = table.permanent
    settled = table.settled
    top = max((bw for nbrs in adj for _, bw in nbrs), default=0)
    wb = top.bit_length()
    wi = (n * n).bit_length()
    sr = wb + wi
    imask = (1 << wi) - 1
    key_of = [1 << (sr + wb)] * (n * n)
    for i in range(n):
        key_of[i * n + s] = key_of[s * n + i] = -1
    heap = [((top - r[idx]) << wb | (top - b[idx])) << wi | idx for idx in seeds]
    for key in heap:
        key_of[key & imask] = key
    heapq.heapify(heap)
    nbrs = [[(v, v * n, 1 << v, bw) for v, bw in a] for a in adj]
    # the partner bottleneck never drops below the limit, so second-
    # coordinate moves only ever use links that carry it
    wide = [[e for e in a if e[3] >= limit] for a in nbrs]
    push = heapq.heappush
    pop = heapq.heappop
    remaining = n - 1
    while heap:
        key = pop(heap)
        idx = key & imask
        if key != key_of[idx]:
            continue
        key_of[idx] = -1
        perm[idx] = 1
        settled.append(idx)
        x, y = divmod(idx, n)
        if x == y:
            # destination reached; never relaxed from
            remaining -= 1
            if remaining == 0:
                break
            continue
        rxy = r[idx]
        bxy = b[idx]
        vxy = vis[idx]
        bterm = (top - bxy) << wi
        for v, vn, vbit, bw in nbrs[x]:
            if vxy & vbit and v != y:
                continue
            nr = rxy if bw >= rxy else bw
            tgt = vn + y
            nkey = (top - nr) << sr | bterm | tgt
            if nkey < key_of[tgt]:
                key_of[tgt] = nkey
                r[tgt] = nr
                b[tgt] = bxy
                prev[tgt] = idx
                vis[tgt] = vxy | vbit
                push(heap, nkey)
        rterm = (top - rxy) << sr
        xn = idx - y
        for u, _, ubit, bw in wide[y]:
            if vxy & ubit and u != x:
                continue
            nb = bxy if bw >= bxy else bw
            tgt = xn + u
            nkey = rterm | (top - nb) << wi | tgt
            if nkey < key_of[tgt]:
                key_of[tgt] = nkey
                r[tgt] = rxy
                b[tgt] = nb
                prev[tgt] = idx
                vis[tgt] = vxy | ubit
                push(heap, nkey)
    return table


def reconstruct_pair(table: VNodeTable, s: int, d: int) -> PathPair:
    """Rebuild the two paths from the predecessor chain of vnode (d, d).

    Walking from (d, d) back to (s, s), each hop changes one coordinate
    (the first hop out of (s, s) changes both); collecting the distinct
    consecutive values per coordinate gives the two node sequences.
    """
    n = table.n
    idx = d * n + d
    if not table.permanent[idx] or table.prev[idx] < 0:
        raise ValueError(f"destination {d} was not reached by a disjoint pair")
    chain = []
    cur = idx
    src_idx = s * n + s
    while cur != src_idx:
        chain.append(cur)
        cur = table.prev[cur]
    chain.append(src_idx)
    chain.reverse()
    red: list[int] = []
    blue: list[int] = []
    for c in chain:
        x, y = divmod(c, n)
        if not red or red[-1] != x:
            red.append(x)
        if not blue or blue[-1] != y:
            blue.append(y)
    return PathPair(tuple(red), tuple(blue), table.r[idx], table.b[idx])


def mlbdp_single(g: Graph, s: int, limit: int) -> dict[int, DisjointResult]:
    """One limit run; a result for every destination it reached.

    Every returned pair has partner bottleneck >= limit.
    """
    table = run_limit_search(g, s, limit)
    n = g.n
    out: dict[int, DisjointResult] = {}
    for d in range(n):
        idx = d * n + d
        if d != s and table.permanent[idx] and table.prev[idx] >= 0:
            pair = reconstruct_pair(table, s, d)
            out[d] = DisjointResult(d, pair, pair.combined, limit)
    return out


def _source_blocks(g: Graph, s: int) -> list[list[tuple[int, int, int]]]:
    """Links of every biconnected block of s with 3 or more nodes.

    One iterative Tarjan DFS from s (Hopcroft & Tarjan 1973). Each link
    goes on a stack when first seen; once the subtree of a child u of p
    is done and low[u] >= disc[p], the links from the tree link (p, u)
    up form one block. The blocks closed at p == s are the ones holding
    s; a block of 2 nodes is a single link and holds no disjoint pair.
    """
    adj = g.adjacency()
    disc = [0] * g.n
    low = [0] * g.n
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


def mlbdp_full(g: Graph, s: int) -> dict[int, DisjointResult]:
    """Best node-disjoint pair per destination over all bandwidth limits.

    Keeps, per destination, the largest combined bandwidth over one limit
    search per distinct link bandwidth, then the larger min bottleneck;
    on full ties the smaller limit. A destination is present exactly
    when some run reached it.

    Two disjoint s-d paths exist only when d shares a biconnected block
    with s, and every simple path between two nodes of a block stays in
    it, so the sweep runs on each such block alone (same node ids) over
    the block's own bandwidths. Every vnode with both coordinates in the
    block sees the same pops as in the whole-graph run, and a block
    limit answers for every graph-wide limit above the block's previous
    bandwidth; limit_used reports the smallest of those, the one the
    whole-graph sweep would keep. A pair is rebuilt only when it beats
    the destination's best so far.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range 0..{g.n - 1}")
    n = g.n
    limits = unique_bandwidths(g)
    best: dict[int, DisjointResult] = {}
    for links in _source_blocks(g, s):
        block = Graph(n)
        for u, v, bw in links:
            block.add_link(u, v, bw)
        dests = sorted({v for _, v, _ in links} - {s})
        floor = 0
        for limit in unique_bandwidths(block):
            used = limits[bisect.bisect_right(limits, floor)]
            floor = limit
            # the table is freed before the next run allocates its own
            _keep_improved(run_limit_search(block, s, limit), dests, used, best)
    return dict(sorted(best.items()))


def _keep_improved(table: VNodeTable, dests: list[int], used: int, best: dict[int, DisjointResult]) -> None:
    """Record each reached destination whose (combined, min bottleneck)
    beats its best so far, rebuilding only those pairs."""
    n, s = table.n, table.source
    r, b, perm = table.r, table.b, table.permanent
    for d in dests:
        idx = d * n + d
        if perm[idx]:
            rd, bd = r[idx], b[idx]
            cur = best.get(d)
            if cur is None or (rd + bd, min(rd, bd)) > (cur.combined, min(cur.pair.red_bw, cur.pair.blue_bw)):
                best[d] = DisjointResult(d, reconstruct_pair(table, s, d), rd + bd, used)


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
