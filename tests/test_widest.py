import pytest

from widestpair.graph import Graph, SplitMix64, bottleneck
from widestpair.widest import extract_widest_path, max_bandwidth_tree, widest_tree, without_link

from .conftest import make_graph, suite_graphs, widest_by_enum
from .helpers import widest_tree_reference


def test_five_node_values(five_node):
    # frozen from exhaustive path enumeration on the fixture
    tree = max_bandwidth_tree(five_node, 0)
    assert tree.maxbw[1] == 9
    assert tree.maxbw[2] == 12
    assert tree.maxbw[3] == 12
    assert tree.maxbw[4] == 12


def test_two_node_graph():
    g = make_graph(2, [(0, 1, 5)])
    tree = max_bandwidth_tree(g, 0)
    assert tree.maxbw[1] == 5
    assert extract_widest_path(tree, 1) == (0, 1)


def test_unreachable_node():
    g = Graph(3)
    g.add_link(0, 1, 4)
    tree = max_bandwidth_tree(g, 0)
    assert tree.maxbw[2] == 0
    assert 2 not in tree.settled
    assert extract_widest_path(tree, 2) is None


def test_invalid_source(five_node):
    with pytest.raises(ValueError):
        max_bandwidth_tree(five_node, 9)


def test_matches_enumeration_oracle():
    for g in suite_graphs(40, seed=31, n_lo=2, n_hi=8):
        for s in range(g.n):
            tree = max_bandwidth_tree(g, s)
            for t in range(g.n):
                if t != s:
                    assert tree.maxbw[t] == widest_by_enum(g, s, t)


def test_settlement_order_non_increasing():
    for g in suite_graphs(20, seed=77, n_lo=2, n_hi=8):
        for s in range(g.n):
            tree = max_bandwidth_tree(g, s)
            values = [tree.maxbw[v] for v in tree.settled[1:]]  # source first, stores 0
            assert all(a >= b for a, b in zip(values, values[1:]))


def test_no_tentative_improvement_remains():
    # relaxation postcondition: min(maxbw[u], bw) <= maxbw[v] everywhere
    for g in suite_graphs(20, seed=78, n_lo=2, n_hi=8):
        for s in range(g.n):
            tree = max_bandwidth_tree(g, s)
            for u, v, bw in g.links():
                for a, b in ((u, v), (v, u)):
                    if b == s:
                        continue  # the source needs no incoming improvement
                    reach = bw if a == s else min(tree.maxbw[a], bw)
                    assert reach <= tree.maxbw[b] or a not in tree.settled


def test_predecessor_chain_consistent():
    for g in suite_graphs(20, seed=79, n_lo=2, n_hi=8):
        for s in range(g.n):
            tree = max_bandwidth_tree(g, s)
            assert tree.previous[s] is None
            for v in range(g.n):
                if v == s or tree.maxbw[v] == 0:
                    continue
                p = tree.previous[v]
                expect = g.bandwidth(p, v) if p == s else min(tree.maxbw[p], g.bandwidth(p, v))
                assert tree.maxbw[v] == expect


def test_closed_nodes_stop_and_dropped_link():
    # the partner search of mlbdp_full and both MBA rounds: closed nodes,
    # a stop node and, on linked endpoints, the link between them dropped
    rng = SplitMix64(81)
    for g in suite_graphs(40, seed=81, n_lo=3, n_hi=8):
        adj = g.adjacency()
        for s in range(g.n):
            for t in range(g.n):
                if t == s:
                    continue
                closed = {v for v in range(g.n) if v not in (s, t) and rng.below(3) == 0}
                drop = g.has_link(s, t) and rng.below(2) == 0
                links = [
                    (u, v, bw) for u, v, bw in g.links()
                    if u not in closed and v not in closed and not (drop and {u, v} == {s, t})
                ]
                tree = widest_tree(without_link(adj, s, t) if drop else adj, s, closed, t)
                assert tree.maxbw[t] == widest_by_enum(make_graph(g.n, links), s, t)
                path = extract_widest_path(tree, t)
                if path is None:
                    assert tree.maxbw[t] == 0
                    continue
                assert tree.settled[-1] == t
                assert path[0] == s and path[-1] == t and not closed & set(path)
                assert not (drop and path == (s, t))
                assert bottleneck(g, path) == tree.maxbw[t]


def test_tie_order_matches_tuple_keys():
    # bandwidths 1..2 and 1..3 tie almost everywhere, so every result field
    # depends on the extraction order
    rng = SplitMix64(83)
    graphs = [*suite_graphs(40, seed=83, max_bw=2), *suite_graphs(40, seed=84, max_bw=3)]
    searches = 0
    for g in graphs:
        adj = g.adjacency()
        for s in range(g.n):
            closed = {v for v in range(g.n) if v != s and rng.below(4) == 0}
            stop = (s + 1 + rng.below(g.n - 1)) % g.n
            for args in [(), (closed,), ((), stop), (closed, stop)]:
                got = widest_tree(adj, s, *args)
                want = widest_tree_reference(adj, s, *args)
                assert (got.maxbw, got.previous, got.settled) == (want.maxbw, want.previous, want.settled), (g, s, args)
                searches += 1
    assert searches == 4 * sum(g.n for g in graphs)


def test_equal_widths_settle_lowest_id_first():
    # node 3 is reached at width 5 before node 2 is, yet 2 settles first
    g = make_graph(4, [(0, 3, 5), (0, 1, 9), (1, 2, 5)])
    tree = widest_tree(g.adjacency(), 0)
    assert tree.settled == [0, 1, 2, 3]
    assert tree.previous == [None, 0, 1, 0]


def test_without_link_leaves_adjacency_unchanged(five_node):
    adj = five_node.adjacency()
    before = [list(a) for a in adj]
    out = without_link(adj, 0, 2)
    assert [list(a) for a in adj] == before
    assert [v for v, _ in out[0]] == [1, 4] and [v for v, _ in out[2]] == [3, 4]
    assert out[1:2] + out[3:] == adj[1:2] + adj[3:]


class TestExtract:
    def test_fixture_widest_path(self, five_node):
        tree = max_bandwidth_tree(five_node, 0)
        path = extract_widest_path(tree, 3)
        assert path == (0, 2, 4, 3)
        assert bottleneck(five_node, path) == 12

    def test_bottleneck_always_matches(self):
        for g in suite_graphs(15, seed=80, n_lo=2, n_hi=8):
            for s in range(g.n):
                tree = max_bandwidth_tree(g, s)
                for t in range(g.n):
                    if t == s:
                        continue
                    path = extract_widest_path(tree, t)
                    if path is None:
                        assert tree.maxbw[t] == 0
                    else:
                        assert path[0] == s and path[-1] == t
                        assert len(set(path)) == len(path)
                        assert bottleneck(g, path) == tree.maxbw[t]

    def test_dest_equals_source_rejected(self, five_node):
        tree = max_bandwidth_tree(five_node, 0)
        with pytest.raises(ValueError):
            extract_widest_path(tree, 0)

    def test_adjacent_unique_widest_link(self):
        g = make_graph(3, [(0, 1, 9), (0, 2, 2), (2, 1, 3)])
        tree = max_bandwidth_tree(g, 0)
        assert extract_widest_path(tree, 1) == (0, 1)
