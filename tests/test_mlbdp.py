import pytest

from widestpair import mlbdp
from widestpair.exact import optimal_pair_bruteforce
from widestpair.graph import (
    PathPair,
    SplitMix64,
    assign_random_bandwidths,
    generate_random_graph,
    validate_pair,
)
from widestpair.mlbdp import (
    FALLBACK_BUDGET,
    VNodeTable,
    _blocks_and_bounds,
    _BlockSearch,
    _block_graph,
    _initialize,
    mlbdp_full,
    reconstruct_pair,
    run_limit_search,
    unique_bandwidths,
)
from widestpair.widest import max_bandwidth_tree

from .conftest import make_graph, path_bottleneck, ref_simple_paths, suite_graphs
from .helpers import limit_sweep, max_min_bounds_reference, mlbdp_single, source_blocks, virtual_link_count


class TestUniqueBandwidths:
    def test_five_node(self, five_node):
        assert unique_bandwidths(five_node) == [1, 2, 5, 7, 9, 12]

    def test_all_equal(self, path4):
        from widestpair.graph import assign_random_bandwidths

        g = assign_random_bandwidths(path4, 1, seed=0)
        assert unique_bandwidths(g) == [1]

    def test_no_links(self):
        from widestpair.graph import Graph

        assert unique_bandwidths(Graph(3)) == []


class TestInitialization:
    def test_five_node_limit_7(self, five_node):
        table = VNodeTable(5, 0, 7)
        _initialize(table, five_node.adjacency())
        # vnode (i, j) sits at flat index i * 5 + j
        # ordered neighbor pairs of the source whose second link is >= 7
        assert (table.r[1 * 5 + 2], table.b[1 * 5 + 2]) == (9, 12)
        assert (table.r[2 * 5 + 1], table.b[2 * 5 + 1]) == (12, 9)
        assert (table.r[4 * 5 + 1], table.b[4 * 5 + 1]) == (2, 9)
        assert (table.r[4 * 5 + 2], table.b[4 * 5 + 2]) == (2, 12)
        for i, j in [(1, 2), (2, 1), (4, 1), (4, 2)]:
            idx = i * 5 + j
            assert divmod(table.prev[idx], 5) == (0, 0)
            assert table.visited[idx] == 1 << 0 | 1 << i | 1 << j
        # second-hop bandwidth 2 < 7 keeps these out
        for i, j in [(2, 4), (1, 4)]:
            idx = i * 5 + j
            assert (table.r[idx], table.b[idx]) == (0, 0) and table.prev[idx] == -1

    def test_source_row_and_column_permanent(self, five_node):
        table = VNodeTable(5, 0, 7)
        _initialize(table, five_node.adjacency())
        for i in range(5):
            assert table.permanent[i * 5 + 0]
            assert table.permanent[0 * 5 + i]


class TestSingleRun:
    def test_five_node_dest_pair(self, five_node):
        res = mlbdp_single(five_node, 0, 7)[3]
        assert res.pair.red == (0, 2, 4, 3) and res.pair.red_bw == 12
        assert res.pair.blue == (0, 1, 3) and res.pair.blue_bw == 7
        assert res.combined == 19

    def test_five_node_settle_order(self, five_node):
        # the narrated extraction order: (2,1) first, then (4,1) over
        # (2,3) on the larger partner bandwidth, then (3,1)
        table = run_limit_search(five_node, 0, 7)
        assert table.settled[:3] == [2 * 5 + 1, 4 * 5 + 1, 3 * 5 + 1]

    def test_five_node_predecessor_chain(self, five_node):
        table = run_limit_search(five_node, 0, 7)
        assert divmod(table.prev[3 * 5 + 3], 5) == (3, 1)
        assert divmod(table.prev[3 * 5 + 1], 5) == (4, 1)
        assert divmod(table.prev[4 * 5 + 1], 5) == (2, 1)
        assert divmod(table.prev[2 * 5 + 1], 5) == (0, 0)

    def test_blocked_vnodes_only_reached_by_other_routes(self, five_node):
        # (2,4) and (1,4) are never seeded and never relaxed through the
        # low second hop; any state they end up with descends elsewhere
        table = run_limit_search(five_node, 0, 7)
        for i, j in [(2, 4), (1, 4)]:
            # -1 (never reached) or any predecessor but (0, 0)
            assert table.prev[i * 5 + j] != 0

    def test_blue_side_respects_limit(self, five_node):
        for limit in unique_bandwidths(five_node):
            for res in mlbdp_single(five_node, 0, limit).values():
                assert res.pair.blue_bw >= limit

    def test_triangle(self, triangle):
        res = mlbdp_single(triangle, 0, 3)[1]
        assert res.pair.red == (0, 1) and res.pair.red_bw == 5
        assert res.pair.blue == (0, 2, 1) and res.pair.blue_bw == 3
        assert res.combined == 8

    def test_bad_args(self, five_node):
        with pytest.raises(ValueError):
            mlbdp_single(five_node, 9, 1)
        with pytest.raises(ValueError):
            mlbdp_single(five_node, 0, 0)


class TestFullSweep:
    def test_five_node_dest(self, five_node):
        res = mlbdp_full(five_node, 0)[3]
        assert res.combined == 19
        assert {frozenset(res.pair.red), frozenset(res.pair.blue)} == {
            frozenset({0, 2, 4, 3}),
            frozenset({0, 1, 3}),
        }

    def test_trap_graph(self, trap):
        res = mlbdp_full(trap, 0)[3]
        assert res.combined == 11
        assert {res.pair.red, res.pair.blue} == {(0, 1, 3), (0, 2, 3)}

    def test_tree_has_no_pairs(self, path4):
        for s in range(4):
            assert mlbdp_full(path4, s) == {}

    def test_never_beats_oracle_and_pairs_valid(self):
        for g in suite_graphs(40, seed=555):
            for s in range(g.n):
                for d, res in mlbdp_full(g, s).items():
                    validate_pair(g, res.pair)
                    assert res.pair.red[0] == s and res.pair.red[-1] == d
                    best = optimal_pair_bruteforce(g, s, d)
                    assert best is not None
                    assert res.combined <= best[1]

    def test_feasibility_over_suite(self):
        for g in suite_graphs(15, seed=556):
            for s in range(g.n):
                for res in mlbdp_full(g, s).values():
                    assert res.combined == res.pair.red_bw + res.pair.blue_bw


def _rank(res):
    return res.combined, min(res.pair.red_bw, res.pair.blue_bw)


def _reference_sweep(g, s):
    """Whole-graph sweep: every distinct bandwidth as a limit, ascending;
    larger combined, then larger min bottleneck, earlier limit on ties."""
    best = {}
    for limit in unique_bandwidths(g):
        for d, res in mlbdp_single(g, s, limit).items():
            if d not in best or _rank(res) > _rank(best[d]):
                best[d] = res
    return best


def _fields(results):
    return {
        d: (r.pair.red, r.pair.blue, r.pair.red_bw, r.pair.blue_bw, r.combined)
        for d, r in results.items()
    }


# s = 0 is the cut vertex of two triangles
BOWTIE = [(0, 1, 4), (0, 2, 9), (1, 2, 6), (0, 3, 2), (0, 4, 7), (3, 4, 5)]
# a 4-cycle with a tree hanging off node 2
PENDANT_TREE = [(0, 1, 3), (1, 2, 8), (2, 3, 5), (3, 0, 6), (2, 4, 9), (4, 5, 2), (4, 6, 7)]
# s = 0 sits on a triangle and reaches another triangle over the bridge 0-3
BRIDGE = [(0, 1, 5), (1, 2, 3), (2, 0, 8), (0, 3, 9), (3, 4, 4), (4, 5, 6), (5, 3, 1)]
# the pendant link 1-5 carries 14, which no link of the source's block
# does; the best 0-2 pair first appears at block limit 15, which answers
# for graph-wide limits 14 and 15
SKIPPED_LIMITS = [
    (0, 3, 27), (0, 6, 19), (1, 2, 3), (1, 4, 19), (1, 5, 14), (1, 6, 16),
    (2, 3, 16), (2, 4, 27), (2, 6, 2), (3, 4, 25), (3, 6, 15),
]
# whole-graph M_d regressions (see test_max_min_bounds_hand_cases)
MM_BOWTIE = [(0, 1, 3), (0, 2, 4), (1, 2, 5), (2, 3, 6), (2, 4, 7), (3, 4, 8)]
MM_WIDE_CHORD = [(0, 1, 3), (0, 2, 3), (1, 2, 9), (1, 3, 9), (2, 3, 9)]
MM_PAST_ANCESTOR = [(0, 1, 10), (1, 2, 10), (1, 3, 10), (0, 2, 8), (2, 3, 5)]
# two unlinked triangles: the widest tree from 0 leaves 3, 4 and 5 unreached
TWO_TRIANGLES = [(0, 1, 3), (0, 2, 5), (1, 2, 4), (3, 4, 6), (3, 5, 7), (4, 5, 8)]
HAND_GRAPHS = [
    make_graph(5, BOWTIE),
    make_graph(7, PENDANT_TREE),
    make_graph(6, BRIDGE),
    make_graph(7, SKIPPED_LIMITS),
    make_graph(6, TWO_TRIANGLES),
]


def _blocks(g, s):
    """The source blocks of s with their M_d, from one widest tree."""
    return _blocks_and_bounds(max_bandwidth_tree(g, s), g.adjacency())


def _fifty_node_graphs():
    """Ten 50-node graphs, too large to enumerate; bandwidths 1..10 force ties."""
    return [
        assign_random_bandwidths(generate_random_graph(50, m, seed=k), max_bw, seed=k)
        for k in range(5)
        for m, max_bw in [(100, 5000), (200, 10)]
    ]


def _sparse_graphs(count, seed):
    """Seeded random graphs of 2..12 nodes with each pair linked at a fixed
    rate, so that many are disconnected."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = 2 + rng.below(11)
        rate = 2 + rng.below(4)  # in tenths
        max_bw = (3, 50)[rng.below(2)]
        links = [
            (u, v, 1 + rng.below(max_bw))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.below(10) < rate
        ]
        yield make_graph(n, links)


def _link_sets(blocks):
    return {frozenset((min(u, v), max(u, v), bw) for u, v, bw in links) for links in blocks}


class TestBlockSweep:
    def test_matches_whole_graph_sweep(self):
        for g in [*HAND_GRAPHS, *suite_graphs(60, seed=562)]:
            for s in range(g.n):
                assert _fields(limit_sweep(g, s)) == _fields(_reference_sweep(g, s))

    def test_skipped_limits_are_mapped(self):
        g = HAND_GRAPHS[3]
        block_bws = {bw for links, _ in _blocks(g, 0) for _, _, bw in links}
        assert 14 in unique_bandwidths(g) and 14 not in block_bws
        res = mlbdp_full(g, 0)[2]
        assert res.combined == 32
        assert res.pair.blue_bw >= 15

    def test_blocks_hold_every_feasible_destination(self):
        for g in [*HAND_GRAPHS, *suite_graphs(40, seed=563)]:
            for s in range(g.n):
                in_block = {d for _, bounds in _blocks(g, s) for d in bounds}
                for d in range(g.n):
                    if d != s:
                        assert (d in in_block) == (optimal_pair_bruteforce(g, s, d) is not None)

    def test_large_bandwidths(self):
        # an increasing affine map keeps every comparison, including
        # combined sums; bandwidths then differ by up to 2**46, so every
        # key field must take its width from the largest bandwidth
        def big(bw):
            return 10**15 + bw * 10**12

        for g in [*HAND_GRAPHS, *suite_graphs(20, seed=564)]:
            h = make_graph(g.n, [(u, v, big(bw)) for u, v, bw in g.links()])
            for s in range(g.n):
                want = {
                    d: (
                        r.pair.red,
                        r.pair.blue,
                        big(r.pair.red_bw),
                        big(r.pair.blue_bw),
                        big(r.pair.red_bw) + big(r.pair.blue_bw),
                    )
                    for d, r in limit_sweep(g, s).items()
                }
                assert _fields(limit_sweep(h, s)) == want


# the sweep keeps 27 for 3 -> 0: at limit 8 the vnode (1, 0) state that
# leads on to 1-2-0 is overwritten by one whose visited set holds 2
WITNESS = [(0, 2, 47), (0, 3, 8), (1, 2, 49), (1, 3, 34), (2, 3, 19)]


def _pairs_by_enum(g, s, d):
    """(bw1, bw2) of every internally node-disjoint s-d path pair."""
    paths = [(p, path_bottleneck(g, p)) for p in ref_simple_paths(g, s, d)]
    out = []
    for i, (p, bp) in enumerate(paths):
        for q, bq in paths[i + 1 :]:
            if set(p[1:-1]).isdisjoint(q[1:-1]):
                out.append((bp, bq))
    return out


class TestCertified:
    def test_witness(self):
        g = make_graph(4, WITNESS)
        assert limit_sweep(g, 3)[0].combined == 27
        res = mlbdp_full(g, 3)[0]
        assert (res.pair.red, res.pair.blue) == ((3, 1, 2, 0), (3, 0))
        assert res.combined == res.upper_bound == 42
        assert res.pair.blue_bw == 8

    def test_witness_without_budget(self, monkeypatch):
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", 0)
        g = make_graph(4, WITNESS)
        res = mlbdp_full(g, 3)[0]
        validate_pair(g, res.pair)
        assert res.combined <= optimal_pair_bruteforce(g, 3, 0)[1] == 42 <= res.upper_bound

    def test_never_below_sweep(self):
        for g in [*HAND_GRAPHS, *suite_graphs(60, seed=565)]:
            for s in range(g.n):
                full = mlbdp_full(g, s)
                for d, res in limit_sweep(g, s).items():
                    assert full[d].combined >= res.combined

    @pytest.mark.parametrize("budget", [0, 3])
    def test_never_below_sweep_on_any_budget(self, budget, monkeypatch):
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", budget)
        for g in [*HAND_GRAPHS, *suite_graphs(60, seed=565)]:
            for s in range(g.n):
                full = mlbdp_full(g, s)
                for d, res in limit_sweep(g, s).items():
                    assert full[d].combined >= res.combined

    def test_second_search_after_first_search_raised_incumbent(self):
        # the first search raises these to their optimum and runs out of
        # budget; the sweep raises nothing, and only a second search from
        # the raised incumbent proves them
        g = assign_random_bandwidths(generate_random_graph(50, 100, 4243), 5000, 4243)
        full = mlbdp_full(g, 42)
        for d in (2, 12, 23, 27):
            assert (full[d].combined, full[d].upper_bound) == (3106, 3106)
        assert (full[38].combined, full[38].upper_bound) == (2994, 3124)

    @pytest.mark.parametrize(
        "k, s, d, want",
        [(11, 1, 85, (3643, 3700)), (11, 3, 65, (2282, 2687)), (11, 5, 49, (3851, 3851)), (12, 35, 25, (3937, 4359))],
    )
    def test_hard_set(self, k, s, d, want):
        # 100-node queries the search cannot close, or closes only after
        # the run at M_d; an ILP found each answer optimal
        g = assign_random_bandwidths(generate_random_graph(100, 200, k), 5000, k + 1)
        res = mlbdp_full(g, s, [d])[d]
        validate_pair(g, res.pair)
        assert (res.combined, res.upper_bound) == want

    def test_run_at_m_lifts_what_the_first_search_left_open(self, monkeypatch):
        improve = _BlockSearch.improve
        searches = []

        def recorded(self, d, *args):
            found, proven = improve(self, d, *args)
            searches.append((found.combined, proven))
            return found, proven

        monkeypatch.setattr(_BlockSearch, "improve", recorded)
        g = assign_random_bandwidths(generate_random_graph(50, 100, 7923), 5000, 7924)
        res = mlbdp_full(g, 1, [8])[8]
        # the first search stops at 2553 of 3070; the run at M_d lifts it
        # to 2943, and the search from there proves it
        assert searches == [(2553, 3070), (2943, 2943)]
        assert (res.combined, res.upper_bound) == (2943, 2943)

    def test_sweep_only_for_open_destinations(self, monkeypatch):
        runs = []

        def counted(*args):
            runs.append(args[1])
            return run_limit_search(*args)

        monkeypatch.setattr(mlbdp, "run_limit_search", counted)
        g = assign_random_bandwidths(generate_random_graph(50, 100, 4243), 5000, 4243)
        for s in range(g.n):
            mlbdp_full(g, s)
        # the sweep before the search made 1,755 runs here
        assert len(runs) <= 200
        # source 42 leaves destinations open after the search: the ascending
        # sweep up to their M_d made 27 runs, one run per M_d makes 3
        assert runs.count(42) == 3

    @pytest.mark.parametrize("budget", [0, 3, 2000])
    def test_later_runs_one_per_open_m(self, budget, monkeypatch):
        # in a block, every run after the first is at the M_d of a
        # destination that its first search left open, one run per M_d
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", budget)
        improve = _BlockSearch.improve
        events = []

        def counted(block, s, limit):
            events.append(("run", frozenset(block.links()), limit))
            return run_limit_search(block, s, limit)

        def recorded(self, d, pair, ub, *args):
            found, proven = improve(self, d, pair, ub, *args)
            events.append(("search", frozenset(self.block.links()), d, found.combined < proven))
            return found, proven

        monkeypatch.setattr(mlbdp, "run_limit_search", counted)
        monkeypatch.setattr(_BlockSearch, "improve", recorded)
        queries = [(g, s) for g in suite_graphs(60, seed=576) for s in range(g.n)]
        queries.append((assign_random_bandwidths(generate_random_graph(50, 100, 4243), 5000, 4243), 42))
        later = 0
        for g, s in queries:
            m_of = {d: m for links in source_blocks(g.adjacency(), s) for d, m in max_min_bounds_reference(g.n, links, s).items()}
            events.clear()
            mlbdp_full(g, s)
            limits: dict[frozenset, list[int]] = {}
            left_open: dict[frozenset, set[int]] = {}
            for kind, block, *rest in events:
                if kind == "run":
                    limits.setdefault(block, []).append(rest[0])
                elif len(limits[block]) == 1 and rest[1]:
                    left_open.setdefault(block, set()).add(rest[0])
            for block, runs in limits.items():
                lowest = min(bw for _, _, bw in block)
                assert runs[0] == lowest
                assert sorted(runs[1:]) == sorted({m_of[d] for d in left_open.get(block, ())} - {lowest})
                later += len(runs) - 1
        assert later

    @pytest.mark.parametrize("budget", [0, 3, 2000])
    def test_one_destination_matches_all(self, budget, monkeypatch):
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", budget)
        queries = [(g, s) for g in [*HAND_GRAPHS, *suite_graphs(60, seed=574)] for s in range(g.n)]
        # runs past d's M_d, made for other destinations, would lift the
        # all-destination answer here: 2 -> 8 at budget 0, 28 -> 21 at budget 3
        queries += [
            (assign_random_bandwidths(generate_random_graph(30, 60, 11), 5000, 12), 2),
            (assign_random_bandwidths(generate_random_graph(30, 45, 14), 50, 15), 28),
        ]
        for g, s in queries:
            full = mlbdp_full(g, s)
            for d in range(g.n):
                if d != s:
                    assert mlbdp_full(g, s, [d]) == ({d: full[d]} if d in full else {})

    @pytest.mark.parametrize("budget", [0, 3, 2000])
    def test_searches_follow_runs_up_to_m(self, budget, monkeypatch):
        # each search of a destination starts above where its last one
        # started, right after a run at a limit no higher than its M_d
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", budget)
        improve = _BlockSearch.improve
        limits, searches = [], []

        def counted(block, s, limit):
            limits.append(limit)
            return run_limit_search(block, s, limit)

        def recorded(self, d, pair, *args):
            searches.append((d, pair.combined, limits[-1]))
            return improve(self, d, pair, *args)

        monkeypatch.setattr(mlbdp, "run_limit_search", counted)
        monkeypatch.setattr(_BlockSearch, "improve", recorded)
        queries = [(g, s) for g in [*HAND_GRAPHS, *suite_graphs(60, seed=575)] for s in range(g.n)]
        # a source whose first searches raise incumbents they cannot prove
        queries.append((assign_random_bandwidths(generate_random_graph(50, 100, 4243), 5000, 4243), 42))
        repeated = 0
        for g, s in queries:
            blocks = source_blocks(g.adjacency(), s)
            m_of = {d: m for links in blocks for d, m in max_min_bounds_reference(g.n, links, s).items()}
            searches.clear()
            mlbdp_full(g, s)
            started = {}
            for d, start, limit in searches:
                assert limit <= m_of[d]
                assert start > started.get(d, -1)
                if d in started:
                    # a search after a later run follows the run at d's own M_d
                    assert limit == m_of[d]
                repeated += d in started
                started[d] = start
        assert repeated

    def test_one_destination_skips_other_blocks(self, monkeypatch):
        runs = []

        def counted(block, s, limit):
            runs.append(frozenset(x for u, v, _ in block.links() for x in (u, v)))
            return run_limit_search(block, s, limit)

        monkeypatch.setattr(mlbdp, "run_limit_search", counted)
        # source 0 is the cut vertex between the triangles 0-1-2 and 0-3-4
        g = make_graph(5, BOWTIE)
        mlbdp_full(g, 0)
        assert runs.count({0, 1, 2}) >= 1 and runs.count({0, 3, 4}) >= 1
        runs.clear()
        assert set(mlbdp_full(g, 0, [1])) == {1}
        assert runs.count({0, 1, 2}) >= 1 and runs.count({0, 3, 4}) == 0

    def test_matches_oracle(self):
        # the acceptance suite's differential check uses seed 999
        for g in suite_graphs(100, seed=1234):
            for s in range(g.n):
                full = mlbdp_full(g, s)
                for d in range(g.n):
                    if d == s:
                        continue
                    best = optimal_pair_bruteforce(g, s, d)
                    assert (best is None) == (d not in full)
                    if best is not None:
                        assert full[d].combined == full[d].upper_bound == best[1]

    @pytest.mark.parametrize("budget", [0, 3])
    def test_bound_holds_on_any_budget(self, budget, monkeypatch):
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", budget)
        for g in suite_graphs(60, seed=566):
            for s in range(g.n):
                for d, res in mlbdp_full(g, s).items():
                    validate_pair(g, res.pair)
                    assert res.pair.red[0] == s and res.pair.red[-1] == d
                    assert res.combined <= optimal_pair_bruteforce(g, s, d)[1] <= res.upper_bound

    def test_max_min_bounds(self):
        for g in [*HAND_GRAPHS, *suite_graphs(40, seed=567, n_hi=7)]:
            for s in range(g.n):
                for links, bounds in _blocks(g, s):
                    search = _BlockSearch(_block_graph(g.n, links), s)
                    for d, m in bounds.items():
                        assert m == max(min(pair) for pair in _pairs_by_enum(g, s, d))
                        pair = search.max_min_pair(d, m)
                        validate_pair(g, pair)
                        assert pair.red[0] == s and pair.red[-1] == d
                        assert pair.red_bw >= pair.blue_bw >= m

    def test_max_min_bounds_match_thresholds(self):
        # the one-pass M_d against the block search repeated per threshold,
        # on graphs too large to enumerate
        for g in [*HAND_GRAPHS, *suite_graphs(60, seed=571), *_fifty_node_graphs()]:
            for s in range(g.n):
                for links, bounds in _blocks(g, s):
                    assert bounds == max_min_bounds_reference(g.n, links, s)

    def test_blocks_match_reference_dfs(self):
        # the union-find pass against the Tarjan DFS, as link sets (the
        # two orient links differently); the sparse graphs are often
        # disconnected, and every block's bounds cover exactly its nodes
        for g in [*HAND_GRAPHS, *suite_graphs(60, seed=572), *_fifty_node_graphs(), *_sparse_graphs(300, seed=573)]:
            for s in range(g.n):
                blocks = _blocks(g, s)
                assert _link_sets(links for links, _ in blocks) == _link_sets(source_blocks(g.adjacency(), s))
                for links, bounds in blocks:
                    assert set(bounds) == {x for u, v, _ in links for x in (u, v)} - {s}

    def test_two_triangles_match_oracle(self):
        # the pass runs over s's component only (see the two-triangles hand case)
        g = make_graph(6, TWO_TRIANGLES)
        for s in range(g.n):
            full = mlbdp_full(g, s)
            for d in range(g.n):
                if d != s:
                    best = optimal_pair_bruteforce(g, s, d)
                    assert (best is None) == (d not in full)
                    if best is not None:
                        assert full[d].combined == full[d].upper_bound == best[1]

    @pytest.mark.parametrize(
        "n, links, want",
        [
            # two triangles sharing node 2, s = 0 in one of them: the graph
            # is 2-edge-connected but 3 and 4 share no block with s
            (5, MM_BOWTIE, {1: 3, 2: 3}),
            # the non-tree links 1-2 and 2-3 carry 9 but hang below s's links
            # of 3: a key of bw, not min(bw, W_u, W_v), would give M = 9
            (4, MM_WIDE_CHORD, {1: 3, 2: 3, 3: 3}),
            # the cycle of 0-2 (key 8) merges the tree links 0-1 and 1-2, so
            # the climb of the cycle of 2-3 (key 5) from 2 passes their tree
            # ancestor 1 and the merged class tops at s, not at 1
            (4, MM_PAST_ANCESTOR, {1: 8, 2: 8, 3: 5}),
            # the other triangle is another component, which the pass leaves out
            (6, TWO_TRIANGLES, {1: 3, 2: 3}),
        ],
        ids=["bowtie", "wide-chord", "past-ancestor", "two-triangles"],
    )
    def test_max_min_bounds_hand_cases(self, n, links, want):
        # s = 0, then every source against path enumeration
        g = make_graph(n, links)

        def max_min_bounds(s):
            return {d: m for _, bounds in _blocks(g, s) for d, m in bounds.items()}

        assert max_min_bounds(0) == want
        for src in range(n):
            bounds = max_min_bounds(src)
            for d in range(n):
                if d != src:
                    pairs = _pairs_by_enum(g, src, d)
                    assert bounds.get(d) == max((min(p) for p in pairs), default=None)

    def test_forced_nodes(self):
        # the nodes on every simple path over the links >= t, endpoints excluded
        for g in suite_graphs(30, seed=568, n_hi=7):
            search = _BlockSearch(g, 0)
            for t in unique_bandwidths(g)[::3]:
                h = make_graph(g.n, [(u, v, bw) for u, v, bw in g.links() if bw >= t])
                for goal in range(1, g.n):
                    paths = ref_simple_paths(h, 0, goal)
                    if not paths:
                        assert search.forced(t, 0, goal, -1) is None
                        continue
                    common = set.intersection(*(set(p[1:-1]) for p in paths))
                    assert search.forced(t, 0, goal, -1) == sum(1 << v for v in common)

    def test_partner_forced_test_implied(self):
        # improve tests only P1's forced nodes against the partner (see
        # _BlockSearch): on random prefixes s..v and thresholds need <= thr,
        # whenever that test and both reachability tests pass, P1 can also
        # avoid the partner's forced nodes
        rng = SplitMix64(570)
        premises = with_forced = 0
        for g in suite_graphs(60, seed=570):
            search = _BlockSearch(g, 0)
            adj, bws = g.adjacency(), unique_bandwidths(g)
            for _ in range(100):
                path = [0]
                for _ in range(rng.below(g.n)):
                    nxt = [u for u, _ in adj[path[-1]] if u not in path]
                    if not nxt:
                        break
                    path.append(nxt[rng.below(len(nxt))])
                if len(path) < 2:
                    continue
                v = path[-1]
                rest = [d for d in range(g.n) if d not in path]
                if not rest:
                    continue
                d = rest[rng.below(len(rest))]
                need, thr = sorted(bws[rng.below(len(bws))] for _ in range(2))
                on2 = sum(1 << u for u in path)
                if not search.reaches(need, 0, d, ~on2):
                    continue
                forced = search.forced(thr, v, d, ~on2)
                if forced is None or forced and not search.reaches(need, 0, d, ~(on2 | forced)):
                    continue
                premises += 1
                partner = search.forced(need, 0, d, ~on2)
                assert partner is not None
                with_forced += partner != 0
                assert not partner or search.reaches(thr, v, d, ~(on2 | partner))
        assert premises >= 500 and with_forced >= 100

    def test_direct_link_partner_avoids_it(self):
        # the best pair's wider path is the direct link 0-1, so its partner
        # must be found without that link
        g = make_graph(4, [(0, 1, 10), (0, 2, 5), (2, 1, 5), (0, 3, 4), (3, 1, 4)])
        pair, bound = _BlockSearch(g, 0).improve(1, PathPair((0, 2, 1), (0, 3, 1), 5, 4), 15, 5, FALLBACK_BUDGET)
        validate_pair(g, pair)
        assert (pair.red, pair.blue, bound) == ((0, 1), (0, 2, 1), 15)

    def test_relabelling_invariant(self):
        rng = SplitMix64(569)
        for g in suite_graphs(40, seed=569):
            perm = list(range(g.n))
            for i in range(g.n - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            h = make_graph(g.n, [(perm[u], perm[v], bw) for u, v, bw in g.links()])
            for s in range(g.n):
                full, mapped = mlbdp_full(g, s), mlbdp_full(h, perm[s])
                assert set(mapped) == {perm[d] for d in full}
                for d, res in full.items():
                    other = mapped[perm[d]]
                    validate_pair(h, other.pair)
                    # both proven here, so the bounds match too
                    assert other.combined == res.combined
                    assert other.upper_bound == res.upper_bound

    def test_large_bandwidths(self, monkeypatch):
        # as TestBlockSweep.test_large_bandwidths: every bound and search
        # threshold compares sums of two bandwidths, which the map keeps
        def big(bw):
            return 10**15 + bw * 10**12

        def big_sum(total):
            return 2 * 10**15 + total * 10**12

        for g in [*HAND_GRAPHS, make_graph(4, WITNESS), *suite_graphs(20, seed=564)]:
            h = make_graph(g.n, [(u, v, big(bw)) for u, v, bw in g.links()])
            for budget in (0, 3, 2000):
                monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", budget)
                for s in range(g.n):
                    want = {
                        d: (r.pair.red, r.pair.blue, big(r.pair.red_bw), big(r.pair.blue_bw),
                            big_sum(r.combined), big_sum(r.upper_bound))
                        for d, r in mlbdp_full(g, s).items()
                    }
                    got = {
                        d: (*_fields({d: r})[d], r.upper_bound)
                        for d, r in mlbdp_full(h, s).items()
                    }
                    assert got == want


class TestReconstruct:
    def test_unreached_destination_rejected(self, path4):
        table = run_limit_search(path4, 0, 1)
        with pytest.raises(ValueError):
            reconstruct_pair(table, 3)

    def test_source_rejected(self, five_node):
        table = run_limit_search(five_node, 0, 1)
        with pytest.raises(ValueError):
            reconstruct_pair(table, 0)

    def test_two_hop_meeting_shape(self):
        from .conftest import make_graph

        # both routes are 2-hop through distinct intermediates
        g = make_graph(4, [(0, 1, 5), (1, 3, 4), (0, 2, 3), (2, 3, 2)])
        res = mlbdp_full(g, 0)[3]
        assert {res.pair.red, res.pair.blue} == {(0, 1, 3), (0, 2, 3)}

    def test_trap_reconstruction(self, trap):
        table = run_limit_search(trap, 0, 1)
        pair = reconstruct_pair(table, 3)
        assert pair.red == (0, 1, 3) and pair.blue == (0, 2, 3)


class TestSearchInvariants:
    def test_settlement_bounded_and_unique(self):
        for g in suite_graphs(10, seed=557):
            for limit in unique_bandwidths(g)[:3]:
                table = run_limit_search(g, 0, limit)
                assert len(table.settled) <= g.n * g.n
                assert len(set(table.settled)) == len(table.settled)

    def test_settled_rb_non_increasing(self):
        # the packed heap key orders like (-r, -b, idx)
        for g in suite_graphs(10, seed=558):
            for s in range(g.n):
                for limit in unique_bandwidths(g):
                    table = run_limit_search(g, s, limit)
                    values = [(table.r[idx], table.b[idx]) for idx in table.settled]
                    assert all(a >= b for a, b in zip(values, values[1:]))

    def test_visited_covers_previous_chain(self, five_node):
        table = run_limit_search(five_node, 0, 7)
        n = table.n
        for idx in table.settled:
            mask = table.visited[idx]
            cur = idx
            while cur >= 0 and cur != 0:
                x, y = divmod(cur, n)
                assert mask >> x & 1 and mask >> y & 1
                cur = table.prev[cur]


class TestVirtualTopology:
    def test_matches_closed_form(self):
        for g in suite_graphs(50, seed=559):
            assert virtual_link_count(g) == 2 * g.m * g.n

    def test_matches_explicit_walk(self):
        for g in suite_graphs(8, seed=560, n_hi=6):
            links = set()
            for i in range(g.n):
                for j in range(g.n):
                    for v in g.neighbors(i):
                        links.add(frozenset([(i, j), (v, j)]))
                    for u in g.neighbors(j):
                        links.add(frozenset([(i, j), (i, u)]))
            assert len(links) == virtual_link_count(g)
