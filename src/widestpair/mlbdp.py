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
per destination is the paper's algorithm. It keeps one state per vnode,
so an accepted overwrite can discard the only state that reaches the
optimum: its answers are valid pairs and a lower bound, not always the
maximum.

mlbdp_full certifies every answer. Per destination d, the wider path of
a pair carries at most W_d, the widest-path bandwidth, and the narrower
at most M_d, the largest bandwidth t at which s and d still share a
biconnected block among the links >= t; so W_d + M_d bounds every pair,
and M_d > 0 exactly when a pair exists. One union-find pass over the
fundamental cycles of s's widest tree gives the blocks that hold s and
every M_d. Each block makes one run at its lowest limit, then one run at
each distinct M_d of the destinations left unproven, for those only.
After d's first run, and after its run at M_d, an exact depth-first
search over the wider path tries to close the gap to the bound within a
budget of search steps. Each answer is a graph.DisjointResult: the pair
and its proven upper bound; it is optimal when its combined bandwidth
equals that bound.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Container, Iterable

from .graph import DisjointResult, Graph, PathPair, bottleneck, check_endpoints
from .widest import Adjacency, WidestTree, extract_widest_path, max_bandwidth_tree, widest_tree, without_link

# steps of one exact search; one step is one candidate node for the wider
# path that the cheap filters let through
FALLBACK_BUDGET = 2000


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
    check_endpoints(g.n, s)
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


def reconstruct_pair(table: VNodeTable, d: int) -> PathPair:
    """Rebuild the two paths from the predecessor chain of vnode (d, d).

    Walking back to (s, s), s the table's source, each hop changes one
    coordinate (the first hop out of (s, s) changes both); collecting the
    distinct consecutive values per coordinate gives the two node sequences.
    """
    n, s = table.n, table.source
    check_endpoints(n, s, d)
    idx = d * n + d
    if not table.permanent[idx]:
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


def _blocks_and_bounds(tree: WidestTree, adj: Adjacency) -> list[tuple[list[tuple[int, int, int]], dict[int, int]]]:
    """The links of each biconnected block of s with 3 or more nodes, and
    M_d for its nodes d: the largest t at which s and d share such a block
    among the links >= t, so that two internally node-disjoint s-d paths
    on those links exist (Menger). From s's widest tree and adjacency.

    One offline pass over the links of s's component. The tree path from
    s to x carries at least W_x, so the tree spans s's component of the
    links >= t, and a non-tree link (u, v, bw) closes its fundamental
    cycle there for every t up to its key min(bw, W_u, W_v), W_s
    infinite. Two links share a block exactly when overlapping
    fundamental cycles connect them, so once the tree links on the cycle
    of every key >= t are merged (union-find, keys descending), the
    classes are the blocks of the links >= t. A class is a subtree named
    by its head, the lower node of its top link: a walk moves the deeper
    end x to parent[find(x)] until both ends meet at the merged class's
    top node. A node's M_d is the key at which its class first tops at s;
    the classes that top at s at the end, each link in its deeper end's,
    are the source blocks.
    """
    s, parent = tree.source, tree.previous
    w: list[float] = [*tree.maxbw]
    w[s] = float("inf")
    depth = [0] * len(w)
    for v in tree.settled[1:]:
        depth[v] = depth[parent[v]] + 1
    links = [(u, v, bw) for u in tree.settled for v, bw in adj[u] if u < v]
    up = list(range(len(w)))
    pending: dict[int, list[int]] = {}  # per merged class, its nodes still without M_d

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = x = up[up[x]]
        return x

    bound: dict[int, int] = {}
    cycles = ((min(bw, w[u], w[v]), u, v) for u, v, bw in links if parent[u] != v and parent[v] != u)
    for key, a, b in sorted(cycles, reverse=True):
        heads = []
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            heads.append(find(a))
            a = parent[heads[-1]]
        # a class never merged holds its head alone; the largest list absorbs the rest
        parts = sorted((pending.pop(h, [h]) for h in set(heads)), key=len)
        nodes = parts.pop()
        for part in parts:
            nodes += part
        for h in heads:
            up[h] = heads[-1]
        if a == s:
            bound.update(dict.fromkeys(nodes, key))
            nodes = []
        pending[heads[-1]] = nodes
    blocks: dict[int, tuple[list[tuple[int, int, int]], dict[int, int]]] = {}
    for d, m in bound.items():
        blocks.setdefault(find(d), ([], {}))[1][d] = m
    for u, v, bw in links:
        head = find(u if depth[u] > depth[v] else v)
        if head in blocks:
            blocks[head][0].append((u, v, bw))
    return list(blocks.values())


def _block_graph(n: int, links: list[tuple[int, int, int]]) -> Graph:
    block = Graph(n)
    for u, v, bw in links:
        block.add_link(u, v, bw)
    return block


def _keep_improved(table: VNodeTable, dests: Iterable[int], best: dict[int, PathPair]) -> None:
    """Record each reached destination whose (combined, min bottleneck)
    beats its best so far, rebuilding only those pairs."""
    n = table.n
    r, b, perm = table.r, table.b, table.permanent
    for d in dests:
        idx = d * n + d
        if perm[idx]:
            rd, bd = r[idx], b[idx]
            cur = best.get(d)
            if cur is None or (rd + bd, min(rd, bd)) > (cur.combined, min(cur.red_bw, cur.blue_bw)):
                best[d] = reconstruct_pair(table, d)


def mlbdp_full(g: Graph, s: int, dests: Iterable[int] | None = None) -> dict[int, DisjointResult]:
    """Certified best node-disjoint pair per destination in dests, every
    destination when dests is None.

    A destination is present exactly when a pair to it exists, and every
    answer carries a proven upper_bound on the combined bandwidth of all
    pairs to it. The bound is W_d + M_d: W_d from s's widest-path tree,
    the source blocks and M_d from one pass over it, _blocks_and_bounds.
    Two disjoint s-d paths exist only when d shares a biconnected block
    with s, and every simple path between two nodes of a block stays in
    it, so each block is searched alone, with the same node ids. Each
    block that holds a wanted destination makes two rounds of runs, for
    the wanted destinations only:

    - round one is one run at the block's lowest limit; round two, one
      run at each distinct M_d of those still unproven, for those only.
      Stopping at M_d is not a proof: a run above M_d can still reach d
      with the pair's wider path as the partner;
    - after d's first run, and after its run at M_d if its incumbent is
      then above where its last search started, an exact depth-first
      search looks for a better pair within FALLBACK_BUDGET steps, from
      the incumbent, or from the max-min pair (two disjoint paths on the
      links >= M_d) when the first run reached nothing or less than
      2 M_d. A search that finishes proves its pair optimal;
    - a proven destination takes no further run or search. An answer
      left unproven keeps the incumbent and reports the bound W_d + M_d,
      never a guess.

    Results depend only on the graph, s and dests, never on timing. The
    runs and searches for d depend on d alone, so mlbdp_full(g, s, [d])
    answers d as mlbdp_full(g, s) does, and a destination left out gets
    no run or search of its own. A bad destination raises ValueError
    before any search.
    """
    check_endpoints(g.n, s)
    if dests is None:
        wanted: Container[int] = range(g.n)
    else:
        wanted = set()
        for d in dests:
            check_endpoints(g.n, s, d)
            wanted.add(d)
    out: dict[int, DisjointResult] = {}
    if len(g.adjacency()[s]) < 2:  # no block of 3 or more nodes holds s
        return out
    tree = max_bandwidth_tree(g, s)
    for links, max_min in _blocks_and_bounds(tree, g.adjacency()):
        bounds = {d: (tree.maxbw[d] + m, m) for d, m in sorted(max_min.items()) if d in wanted}
        if not bounds:
            continue
        block = _block_graph(g.n, links)
        search = None
        best: dict[int, PathPair] = {}
        started: dict[int, int] = {}  # per destination, where its last search started
        lowest = min(bw for _, _, bw in links)
        runs = [(lowest, list(bounds))]
        for limit, taking in runs:
            # the table is freed before the next run allocates its own
            _keep_improved(run_limit_search(block, s, limit), taking, best)
            for d in taking:
                ub, m = bounds[d]
                pair = best.get(d)
                # from its last start a search would only repeat itself; one that
                # raised the incumbent and ran out of budget may prove it from there
                if pair is None or pair.combined != ub and pair.combined > started.get(d, -1):
                    search = search or _BlockSearch(block, s)
                    if pair is None or pair.combined < 2 * m:
                        pair = search.max_min_pair(d, m)
                    started[d] = pair.combined
                    best[d], ub = search.improve(d, pair, ub, m, FALLBACK_BUDGET)
                if best[d].combined == ub:
                    out[d] = DisjointResult(best[d], ub)
                    del bounds[d]
            if limit == lowest:
                # round two: one run per distinct M_d left in bounds, for those destinations
                ms = sorted({m for _, m in bounds.values()} - {lowest})
                runs += [(m, [d for d, (_, dm) in bounds.items() if dm == m]) for m in ms]
        for d, (ub, _) in bounds.items():
            out[d] = DisjointResult(best[d], ub)
    return dict(sorted(out.items()))


class _BlockSearch:
    """Exact pair search inside one source block.

    The wider path P1 of a pair better than an incumbent of combined
    bandwidth inc carries more than inc / 2 and more than inc - M_d, so a
    depth-first search grows P1 from s over the links that wide only,
    widest links first. A prefix of bottleneck a is dropped when it
    cannot reach d over the links P1 may use, or when no partner of
    bandwidth inc - a + 1 or more (else a + min(a, partner) <= inc)
    avoids both the prefix and the nodes every completion of P1 is
    forced through: one partner test per step. The converse test
    (P1 avoiding the partner's forced nodes) is implied: the partner's
    threshold is at most P1's, so completions of P1 run in the partner's
    graph, whose forced nodes are cut vertices that d reaches only through
    the last; a completion avoiding it avoids them all, and if none does,
    P1 is forced through it too. At d, the pair is P1 with that partner,
    from one widest_tree search that closes the prefix and stops at d.
    Reachability tests walk node bitmasks, one neighbor mask per node and
    threshold, built once per threshold and block.
    """

    def __init__(self, block: Graph, s: int):
        self.block = block
        self.s = s
        self.adj = block.adjacency()
        self.desc = [sorted(a, key=lambda e: (-e[1], e[0])) for a in self.adj]
        self.bws = unique_bandwidths(block)
        self._masks: dict[int, list[int]] = {}

    def masks(self, t: int) -> list[int]:
        """Per-node neighbor masks over the links >= t."""
        i = bisect.bisect_left(self.bws, t)
        key = self.bws[i] if i < len(self.bws) else None
        nb = self._masks.get(key)
        if nb is None:
            nb = self._masks[key] = [sum(1 << v for v, bw in a if bw >= t) for a in self.adj]
        return nb

    def reaches(self, t: int, start: int, goal: int, allowed: int) -> bool:
        """Whether start reaches goal over links >= t through allowed nodes."""
        nb = self.masks(t)
        goal_bit = 1 << goal
        seen = frontier = 1 << start
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= nb[low.bit_length() - 1]
                frontier ^= low
            if nxt & goal_bit:
                return True
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return False

    def forced(self, t: int, start: int, goal: int, allowed: int) -> int | None:
        """Mask of the nodes, endpoints excluded, on every start-goal path
        over links >= t through allowed nodes; None when there is no path.

        Such a node lies on every path, so it is found by taking one
        shortest path (breadth-first layers, walked back from goal) and
        testing each of its interior nodes for removal.
        """
        nb = self.masks(t)
        goal_bit = 1 << goal
        layers = []
        seen = frontier = 1 << start
        while frontier and not frontier & goal_bit:
            layers.append(frontier)
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= nb[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & (allowed | goal_bit) & ~seen
            seen |= frontier
        if not frontier:
            return None
        out = 0
        cur = goal
        for layer in reversed(layers[1:]):
            step = nb[cur] & layer
            cur = (step & -step).bit_length() - 1
            if not self.reaches(t, start, goal, allowed & ~(1 << cur)):
                out |= 1 << cur
        return out

    def max_min_pair(self, d: int, t: int) -> PathPair:
        """Two internally node-disjoint s-d paths on the links >= t, by two
        augmentations of a unit-capacity node-split flow (the two-path flow
        of Suurballe & Tarjan 1984). Node v enters at 2v and leaves at
        2v + 1; t must not exceed M_d."""
        s, adj = self.s, self.adj
        cap: dict[tuple[int, int], int] = {}
        arcs: list[list[int]] = [[] for _ in range(2 * len(adj))]

        def arc(a: int, b: int) -> None:
            cap[a, b] = 1
            cap.setdefault((b, a), 0)
            arcs[a].append(b)
            arcs[b].append(a)

        for v, a in enumerate(adj):
            if v != s and v != d:
                arc(2 * v, 2 * v + 1)
            for u, bw in a:
                if bw >= t and u != s and v != d:
                    arc(2 * v + 1, 2 * u)
        src, sink = 2 * s + 1, 2 * d
        for _ in range(2):
            prev = {src: src}
            queue = [src]
            for a in queue:
                for b in arcs[a]:
                    if b not in prev and cap[a, b]:
                        prev[b] = a
                        queue.append(b)
            b = sink
            while b != src:
                a = prev[b]
                cap[a, b] -= 1
                cap[b, a] += 1
                b = a
        paths = []
        for b in arcs[src]:
            if cap.get((b, src)) == 1 and b % 2 == 0:
                path = [s]
                while b != sink:
                    path.append(b // 2)
                    out = b + 1
                    b = next(c for c in arcs[out] if c % 2 == 0 and cap.get((c, out)) == 1)
                path.append(d)
                paths.append(tuple(path))
        return self._pair(*paths)

    def _pair(self, p: tuple[int, ...], q: tuple[int, ...]) -> PathPair:
        """The pair with the wider path red."""
        bp, bq = bottleneck(self.block, p), bottleneck(self.block, q)
        return PathPair(p, q, bp, bq) if bp >= bq else PathPair(q, p, bq, bp)

    def improve(
        self, d: int, pair: PathPair, ub: int, m: int, budget: int
    ) -> tuple[PathPair, int]:
        """A pair to d at least as good as pair, and a proven bound on
        every pair to d: the returned pair's combined bandwidth when the
        search finished within budget steps (it is then optimal), else ub.
        """
        s, desc = self.s, self.desc
        inc = pair.combined
        thr = max(inc // 2 + 1, inc - m + 1)
        steps = 0
        path = [s]
        on = 1 << s
        # one (neighbor iterator, prefix bottleneck) per path node
        stack: list[tuple] = [(iter(desc[s]), None)]
        while stack and inc < ub:
            it, a = stack[-1]
            pushed = False
            if a is None or a >= thr:
                for v, bw in it:
                    if bw < thr:
                        break
                    if on >> v & 1:
                        continue
                    a2 = bw if a is None or bw < a else a
                    steps += 1
                    if steps > budget:
                        return pair, ub
                    if v == d:
                        # a direct P1 leaves the partner every link but s-d
                        adj = self.adj if len(path) > 1 else without_link(self.adj, s, d)
                        tree = widest_tree(adj, s, path, d)
                        if tree.maxbw[d] and a2 + tree.maxbw[d] > inc:
                            pair = self._pair((*path, d), extract_widest_path(tree, d))
                            inc = pair.combined
                            thr = max(inc // 2 + 1, inc - m + 1)
                            if inc >= ub or a2 < thr:
                                break
                        continue
                    on2 = on | 1 << v
                    # None: P1 cannot reach d; its forced nodes are closed to the partner
                    forced = self.forced(thr, v, d, ~on2)
                    if forced is None or not self.reaches(inc - a2 + 1, s, d, ~(on2 | forced)):
                        continue
                    path.append(v)
                    on = on2
                    stack.append((iter(desc[v]), a2))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                on ^= 1 << path.pop()
        return pair, inc

