import heapq
import sys
import threading

import pytest

from widestpair import mba
from widestpair.exact import optimal_pair_bruteforce
from widestpair.graph import (
    Graph,
    PathPair,
    assign_random_bandwidths,
    bottleneck,
    generate_random_graph,
    parse_topology,
    serialize_topology,
    validate_pair,
)
from widestpair.mba import _levels, _round_path, mba_pair
from widestpair.mlbdp import mlbdp_full
from widestpair.widest import widest_tree

from .conftest import TRAP_LINKS, make_graph, suite_graphs, widest_by_enum

# Reference: the per-threshold sweep that one widest search per round
# replaced, kept line for line (names prefixed, type annotations and the
# pool dataclass dropped) so the new rounds can be checked against it.


def _ref_split_pools(links, s):
    es = []
    bs = []
    for u, v, bw in links:
        (es if s in (u, v) else bs).append((u, v, bw))
    es.sort(key=lambda l: (-l[2], l[0], l[1]))
    bs.sort(key=lambda l: (-l[2], l[0], l[1]))
    return tuple(es), tuple(bs)


def _ref_cheapest_path(links, tau, s, t):
    kept = [(u, v, bw) for u, v, bw in links if bw >= tau]
    if not kept:
        return None
    c = 1 + max(bw for _, _, bw in kept)
    adj = {}
    for u, v, bw in kept:
        adj.setdefault(u, []).append((v, c - bw))
        adj.setdefault(v, []).append((u, c - bw))
    for lst in adj.values():
        lst.sort()
    dist = {s: (0, 0)}
    pred = {}
    done = set()
    heap = [(0, 0, s)]
    while heap:
        cost, hops, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        if x == t:
            break
        for v, w in adj.get(x, ()):
            if v in done:
                continue
            cand = (cost + w, hops + 1)
            if v not in dist or cand < dist[v]:
                dist[v] = cand
                pred[v] = x
                heapq.heappush(heap, (cand[0], cand[1], v))
    if t not in done:
        return None
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    path.reverse()
    return tuple(path)


def _ref_round_path(links, s, t):
    pools = _ref_split_pools(links, s)
    for pool in pools:
        for tau in sorted({bw for _, _, bw in pool}, reverse=True):
            p = _ref_cheapest_path(links, tau, s, t)
            if p is not None:
                return p
    return None


def _ref_mba_pair(g, s, t):
    links = g.links()
    first = _ref_round_path(links, s, t)
    if first is None:
        return None
    removed = set(first[1:-1])
    used = {frozenset(l) for l in zip(first, first[1:])}
    reduced = [
        (u, v, bw)
        for u, v, bw in links
        if u not in removed and v not in removed and frozenset((u, v)) not in used
    ]
    second = _ref_round_path(reduced, s, t)
    if second is None:
        return None
    return PathPair(first, second, bottleneck(g, first), bottleneck(g, second))


# query 0-1: both links of bandwidth 100 make up round one's path
TOP_ON_FIRST_PATH = [(0, 2, 100), (2, 1, 100), (0, 3, 4), (3, 1, 4), (0, 4, 4), (4, 5, 9), (5, 1, 9)]


def _equality_graphs():
    yield make_graph(4, TRAP_LINKS)
    yield make_graph(3, [(0, 1, 34), (0, 2, 14), (1, 2, 1)])
    yield from suite_graphs(60, seed=94)
    yield from suite_graphs(60, seed=95, max_bw=2)
    yield from suite_graphs(60, seed=96, max_bw=3)


class TestPairSearch:
    def test_five_node(self, five_node):
        pair = mba_pair(five_node, 0, 3)
        assert pair.red == (0, 2, 4, 3) and pair.red_bw == 12
        assert pair.blue == (0, 1, 3) and pair.blue_bw == 7
        assert pair.combined == 19

    def test_trap_graph_first_path_is_unique_widest(self, trap):
        # node map: source 0, t 3, the widest route runs 0-2-1-3
        assert _round_path(trap.adjacency(), 0, 3, set(), _levels(trap.adjacency())[0][0] + 1) == (0, 2, 1, 3)

    def test_trap_graph_misses_pair(self, trap):
        # removing the widest path's interior disconnects the endpoints,
        # although the pair (0-1-3, 0-2-3) exists
        assert mba_pair(trap, 0, 3) is None
        assert optimal_pair_bruteforce(trap, 0, 3)[1] == 11

    def test_tree_graph(self, path4):
        assert mba_pair(path4, 0, 3) is None

    def test_direct_link_not_reused(self):
        from .conftest import make_graph

        # the only s-t path is the direct link; reusing it is not a pair
        g = make_graph(3, [(0, 1, 34), (0, 2, 14), (1, 2, 1)])
        pair = mba_pair(g, 0, 1)
        if pair is not None:
            validate_pair(g, pair)
            assert pair.red != pair.blue

    def test_round_two_loses_every_top_link(self):
        # both links of bandwidth 100 lie on the first path, so round two's
        # C falls to 10; round one's C of 101 would make 0-3-1 the cheaper
        # blue path
        g = make_graph(6, TOP_ON_FIRST_PATH)
        assert mba_pair(g, 0, 1) == PathPair((0, 2, 1), (0, 4, 5, 1), 100, 4)
        # the only top link joins two removed nodes; counted twice, round
        # two would keep C = 101 and take 0-4-1
        g = make_graph(7, [(0, 2, 20), (2, 3, 100), (3, 1, 20), (0, 4, 3), (4, 1, 3), (0, 5, 3), (5, 6, 9), (6, 1, 9)])
        assert mba_pair(g, 0, 1) == PathPair((0, 2, 3, 1), (0, 5, 6, 1), 20, 3)

    def test_direct_link_is_the_only_top_link(self):
        g = make_graph(4, [(0, 1, 50), (0, 2, 3), (2, 3, 3), (3, 1, 3), (0, 3, 1)])
        assert mba_pair(g, 0, 1) == PathPair((0, 1), (0, 2, 3, 1), 50, 3)
        # here round two's C decides: 10 picks 0-2-4-1, 51 would pick 0-3-1
        g = make_graph(5, [(0, 1, 50), (0, 2, 3), (2, 4, 9), (4, 1, 9), (0, 3, 3), (3, 1, 3)])
        assert mba_pair(g, 0, 1) == PathPair((0, 1), (0, 2, 4, 1), 50, 3)

    def test_new_widest_link_is_seen(self):
        # answers after add_link equal those on a freshly parsed copy
        g = make_graph(6, TOP_ON_FIRST_PATH)
        queries = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        before = [mba_pair(g, s, t) for s, t in queries]
        g.add_link(3, 4, 300)
        after = [mba_pair(g, s, t) for s, t in queries]
        fresh = parse_topology(serialize_topology(g))
        assert after == [mba_pair(fresh, s, t) for s, t in queries]
        assert after != before

    def test_memo_dies_with_add_link(self):
        # the second query from source 0 fills g's round-one memo; the new
        # direct link then changes round one for 0-1, and every answer from
        # the same source must see it
        g = make_graph(6, TOP_ON_FIRST_PATH)
        before = [mba_pair(g, 0, 1) for _ in range(2)]
        g.add_link(0, 1, 300)
        after = [mba_pair(g, 0, t) for t in range(1, g.n)]
        fresh = parse_topology(serialize_topology(g))
        assert after == [mba_pair(fresh, 0, t) for t in range(1, g.n)]
        assert before[1].red == (0, 2, 1) and after[0].red == (0, 1)

    def test_levels_follow_add_link(self):
        g = Graph(4)
        assert _levels(g.adjacency()) == ([], [])
        g.add_link(0, 1, 5)
        assert _levels(g.adjacency()) == ([5], [1])
        g.add_link(1, 2, 3)
        assert _levels(g.adjacency()) == ([5, 3], [1, 1])
        g.add_link(2, 3, 5)
        assert _levels(g.adjacency()) == ([5, 3], [2, 1])
        g.add_link(0, 3, 8)
        assert _levels(g.adjacency()) == ([8, 5, 3], [1, 2, 1])
        for g in suite_graphs(20, max_bw=3):
            links = [bw for _, _, bw in g.links()]
            bws = sorted(set(links), reverse=True)
            assert _levels(g.adjacency()) == (bws, [links.count(bw) for bw in bws])

    def test_one_round_one_widest_search_per_source(self, monkeypatch):
        # round one's searches run on the graph's own adjacency with no
        # node closed; round two closes the first path's interior or
        # drops the direct link from a copy
        g = make_graph(6, TOP_ON_FIRST_PATH)
        round_one = []

        def counted(adj, s, closed=(), stop=-1):
            if adj is g.adjacency() and not closed:
                round_one.append((s, stop))
            return widest_tree(adj, s, closed, stop)

        monkeypatch.setattr(mba, "widest_tree", counted)
        for t in range(1, g.n):
            mba_pair(g, 0, t)
        assert round_one == [(0, -1)]

    def test_threads_sharing_a_graph_agree(self):
        # each thread asks every pair source-major from its own first
        # source, so the threads keep replacing the graph's memo under one
        # another; every answer must equal that of a graph of its own
        g = assign_random_bandwidths(generate_random_graph(20, 40, 5), 50, 6)
        fresh = parse_topology(serialize_topology(g))
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        expected = {p: mba_pair(fresh, *p) for p in pairs}
        results = {}

        def ask(k):
            start = 19 * 5 * k  # 19 pairs per source
            results[k] = [(p, mba_pair(g, *p)) for p in pairs[start:] + pairs[:start]]

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 4
        for answers in results.values():
            assert dict(answers) == expected

    def test_bad_endpoints(self, five_node):
        with pytest.raises(ValueError):
            mba_pair(five_node, 0, 0)
        with pytest.raises(ValueError):
            mba_pair(five_node, 0, 9)


class TestSuiteProperties:
    def test_equals_threshold_sweep(self):
        # every field of every ordered pair, ties and pendant sources included
        queries = 0
        for g in _equality_graphs():
            for s in range(g.n):
                for t in range(g.n):
                    if t != s:
                        assert mba_pair(g, s, t) == _ref_mba_pair(g, s, t), (g, s, t)
                        queries += 1
        assert queries == 8058

    def test_round_two_c_is_one_above_the_largest_bandwidth_left(self, monkeypatch):
        # C is 1 + the largest bandwidth on a link between two open nodes
        # of the adjacency round two searches, and 1 when no such link is
        # left; some queries lose every link of the graph's top two levels
        cs = []

        def checked(adj, s, t, closed, c):
            left = (bw for u, row in enumerate(adj) if u not in closed for v, bw in row if v not in closed)
            assert c == 1 + max(left, default=0)
            cs.append(c)
            return _round_path(adj, s, t, closed, c)

        def round_two_cs(g):
            cs.clear()
            for s in range(g.n):
                for t in range(g.n):
                    if t != s:
                        mba_pair(g, s, t)
            return cs

        monkeypatch.setattr(mba, "_round_path", checked)
        counts = []
        for graphs in (suite_graphs(60, seed=96, max_bw=3), suite_graphs(40, seed=97, max_bw=5000)):
            below = ones = 0
            for g in graphs:
                second = ([0] + sorted({bw for _, _, bw in g.links()}))[-2]
                below += sum(c - 1 < second for c in round_two_cs(g))
                ones += cs.count(1)
            counts.append((below, ones))
        assert counts == [(88, 10), (509, 24)]
        # query 0-1 loses both links of bandwidth 100: C falls to 10
        assert 10 in round_two_cs(make_graph(6, TOP_ON_FIRST_PATH))

    def test_pairs_valid_and_never_beat_oracle(self):
        for g in suite_graphs(40, seed=92):
            for s in range(g.n):
                for t in range(g.n):
                    if t == s:
                        continue
                    pair = mba_pair(g, s, t)
                    if pair is None:
                        continue
                    validate_pair(g, pair)
                    best = optimal_pair_bruteforce(g, s, t)
                    assert best is not None and pair.combined <= best[1]

    def test_first_path_widest_when_threshold_reachable(self):
        # the threshold sweep provably hits the widest value whenever that
        # value appears among the source-incident links; assert exactly that
        for g in suite_graphs(40, seed=93):
            for s in range(g.n):
                s_bws = {g.bandwidth(s, v) for v in g.neighbors(s)}
                for t in range(g.n):
                    if t == s:
                        continue
                    pair = mba_pair(g, s, t)
                    if pair is None:
                        continue
                    w = widest_by_enum(g, s, t)
                    assert pair.red_bw <= w
                    if w in s_bws:
                        assert pair.red_bw == w
                    # the sweep's threshold: the largest source-incident
                    # bandwidth <= w, else w itself
                    tau = max((bw for bw in s_bws if bw <= w), default=w)
                    assert pair.red_bw >= tau

    def test_never_beats_certified_answer(self):
        proven = 0
        graphs = [*suite_graphs(40, seed=97), *suite_graphs(40, seed=98, max_bw=3)]
        for g in graphs:
            for s in range(g.n):
                full = mlbdp_full(g, s)
                for t in range(g.n):
                    if t == s:
                        continue
                    pair = mba_pair(g, s, t)
                    if t not in full:
                        assert pair is None
                    elif full[t].upper_bound == full[t].combined:
                        proven += 1
                        assert pair is None or pair.combined <= full[t].combined
        assert proven > 0

    def test_first_path_widest_on_fixture(self, five_node):
        for t in range(1, 5):
            pair = mba_pair(five_node, 0, t)
            if pair is not None:
                assert pair.red_bw == widest_by_enum(five_node, 0, t)
