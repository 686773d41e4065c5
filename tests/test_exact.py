import itertools

import pytest

from widestpair import exact
from widestpair.exact import (
    EnumerationCapError,
    build_ilp,
    delta,
    enumerate_simple_paths,
    export_ilp,
    optimal_pair_bruteforce,
    render_lp,
)
from widestpair.graph import Graph, PathPair, validate_pair

from .conftest import make_graph, path_bottleneck, ref_simple_paths, suite_graphs
from .helpers import group_counts, pair_to_assignment, violations


class TestDelta:
    def test_source(self):
        assert delta(2, 2, 5) == 1

    def test_dest(self):
        assert delta(5, 2, 5) == -1

    def test_other(self):
        assert delta(3, 2, 5) == 0


class TestEnumeration:
    def test_five_node_count(self, five_node):
        # exhaustive count, hand-checked: 3 one-intermediate routes,
        # 4 two-intermediate, 2 three-intermediate
        assert len(enumerate_simple_paths(five_node, 0, 3)) == 9

    def test_single_link(self):
        g = make_graph(2, [(0, 1, 4)])
        assert enumerate_simple_paths(g, 0, 1) == [(0, 1)]

    def test_disconnected(self):
        g = Graph(4)
        g.add_link(0, 1, 2)
        g.add_link(2, 3, 2)
        assert enumerate_simple_paths(g, 0, 3) == []

    def test_matches_reference_order(self):
        for g in suite_graphs(15, seed=41, n_hi=7):
            for s in range(g.n):
                for t in range(g.n):
                    if t != s:
                        assert enumerate_simple_paths(g, s, t) == ref_simple_paths(g, s, t)

    def test_long_cycle_beyond_recursion_limit(self):
        # far more path nodes than the interpreter's default recursion limit
        n = 2400
        g = make_graph(n, [(i, (i + 1) % n, 1) for i in range(n)])
        paths = enumerate_simple_paths(g, 0, n // 2)
        assert paths == [tuple(range(n // 2 + 1)), (0, *range(n - 1, n // 2 - 1, -1))]

    def test_cap_enforced(self, five_node, monkeypatch):
        monkeypatch.setattr(exact, "PATH_CAP", 3)
        with pytest.raises(EnumerationCapError):
            enumerate_simple_paths(five_node, 0, 3)

    def test_bad_args(self, five_node):
        with pytest.raises(ValueError):
            enumerate_simple_paths(five_node, 0, 0)


class TestBruteForce:
    def test_five_node(self, five_node):
        pair, combined = optimal_pair_bruteforce(five_node, 0, 3)
        assert combined == 19
        assert {frozenset(pair.red), frozenset(pair.blue)} == {
            frozenset({0, 2, 4, 3}),
            frozenset({0, 1, 3}),
        }

    def test_trap(self, trap):
        pair, combined = optimal_pair_bruteforce(trap, 0, 3)
        assert combined == 11
        assert {pair.red, pair.blue} == {(0, 1, 3), (0, 2, 3)}

    def test_tree(self, path4):
        assert optimal_pair_bruteforce(path4, 0, 3) is None

    def test_symmetric_and_valid(self):
        for g in suite_graphs(25, seed=42):
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    fwd = optimal_pair_bruteforce(g, s, t)
                    rev = optimal_pair_bruteforce(g, t, s)
                    assert (fwd is None) == (rev is None)
                    if fwd is not None:
                        assert fwd[1] == rev[1]
                        validate_pair(g, fwd[0])
                        validate_pair(g, rev[0])

    def test_matches_naive_scan(self):
        # independent quadratic scan without pruning
        for g in suite_graphs(10, seed=43, n_hi=6):
            for s in range(g.n):
                for t in range(g.n):
                    if t == s:
                        continue
                    paths = ref_simple_paths(g, s, t)
                    best = None
                    for p, q in itertools.combinations(paths, 2):
                        if set(p) & set(q) == {s, t}:
                            c = path_bottleneck(g, p) + path_bottleneck(g, q)
                            best = c if best is None or c > best else best
                    got = optimal_pair_bruteforce(g, s, t)
                    assert (got is None) == (best is None)
                    if best is not None:
                        assert got[1] == best

    def test_deterministic(self, five_node):
        assert optimal_pair_bruteforce(five_node, 0, 3) == optimal_pair_bruteforce(
            five_node, 0, 3
        )


class TestIlpModel:
    def test_triangle_variable_count(self, triangle):
        model = build_ilp(triangle, 0, 1)
        assert len(model.binaries) == 12
        assert len(model.continuous) == 2  # 14 variables in total

    def test_triangle_constraint_counts(self, triangle):
        model = build_ilp(triangle, 0, 1)
        n, m = 3, 3
        assert group_counts(model) == {
            "red_flow": n,
            "blue_flow": n,
            "enter_dest": 1,
            "enter_source": 1,
            "node_once": n - 2,
            "red_bw": m,
            "blue_bw": m,
            "link_once": m,
        }

    def test_counts_on_random_graphs(self):
        for g in suite_graphs(5, seed=44):
            model = build_ilp(g, 0, 1)
            counts = group_counts(model)
            assert counts["red_flow"] == counts["blue_flow"] == g.n
            assert counts["node_once"] == g.n - 2
            assert counts["red_bw"] == counts["blue_bw"] == counts["link_once"] == g.m
            assert len(model.binaries) == 4 * g.m

    def test_big_m(self, five_node):
        assert build_ilp(five_node, 0, 3).big_m == 13

    def test_known_pair_satisfies_model(self, five_node):
        model = build_ilp(five_node, 0, 3)
        pair = PathPair((0, 2, 4, 3), (0, 1, 3), 12, 7)
        assert violations(model, pair_to_assignment(pair)) == []

    def test_oracle_pairs_satisfy_model(self):
        for g in suite_graphs(12, seed=45):
            for t in range(1, g.n):
                res = optimal_pair_bruteforce(g, 0, t)
                if res is None:
                    continue
                model = build_ilp(g, 0, t)
                assert violations(model, pair_to_assignment(res[0])) == []

    def test_inflated_bandwidth_violates(self, five_node):
        model = build_ilp(five_node, 0, 3)
        assignment = pair_to_assignment(PathPair((0, 2, 4, 3), (0, 1, 3), 12, 7))
        assignment["yr"] = 13
        bad = violations(model, assignment)
        assert any(name.startswith("red_bw") for name in bad)

    def test_overlapping_paths_violate(self, five_node):
        # both colors entering node 4 breaks the exclusive-use row
        bad_pair = PathPair((0, 2, 4, 3), (0, 4, 3), 12, 2)
        model = build_ilp(five_node, 0, 3)
        bad = violations(model, pair_to_assignment(bad_pair))
        assert any(name.startswith("node_once") for name in bad)

    def test_two_node_model_infeasible(self):
        # a single link cannot host two link-disjoint colored arcs into t
        g = make_graph(2, [(0, 1, 5)])
        model = build_ilp(g, 0, 1)
        names = ("r_0_1", "r_1_0", "b_0_1", "b_1_0")
        for bits in itertools.product((0, 1), repeat=4):
            assignment = dict(zip(names, bits))
            assignment.update(yr=0, yb=0)
            assert violations(model, assignment)

    @staticmethod
    def _model_optimum(g, s, t):
        """Solve the emitted model by exhaustion.

        Per link only five variable combinations survive the exclusivity
        row (all zero or exactly one direction of one color), which keeps
        full enumeration feasible on tiny graphs.
        """
        model = build_ilp(g, s, t)
        links = g.links()
        per_link = []
        for u, v, _ in links:
            names = (f"r_{u}_{v}", f"r_{v}_{u}", f"b_{u}_{v}", f"b_{v}_{u}")
            options = [{}] + [{name: 1} for name in names]
            per_link.append(options)
        best = None
        for combo in itertools.product(*per_link):
            assignment = {"yr": 0, "yb": 0}
            for chosen in combo:
                assignment.update(chosen)
            if violations(model, assignment):
                continue
            yr = min(
                (bw for u, v, bw in links
                 if assignment.get(f"r_{u}_{v}", 0) or assignment.get(f"r_{v}_{u}", 0)),
                default=0,
            )
            yb = min(
                (bw for u, v, bw in links
                 if assignment.get(f"b_{u}_{v}", 0) or assignment.get(f"b_{v}_{u}", 0)),
                default=0,
            )
            assignment.update(yr=yr, yb=yb)
            assert not violations(model, assignment)
            if best is None or yr + yb > best:
                best = yr + yb
        return best

    def test_model_optimum_matches_oracle(self, triangle, trap):
        cases = [
            (triangle, 0, 1),
            (trap, 0, 3),
            (make_graph(4, [(0, 1, 5), (1, 3, 4), (0, 2, 3), (2, 3, 2)]), 0, 3),
        ]
        for g, s, t in cases:
            expect = optimal_pair_bruteforce(g, s, t)[1]
            assert self._model_optimum(g, s, t) == expect

    def test_model_infeasible_without_disjoint_pair(self):
        g = make_graph(3, [(0, 1, 5), (1, 2, 6)])
        assert self._model_optimum(g, 0, 2) is None


class TestLpText:
    def test_sections_and_names(self, triangle):
        text = export_ilp(triangle, 0, 2)
        for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text
        assert " obj: yr + yb" in text
        assert "r_0_1" in text and "b_2_1" not in text.split("Binaries")[0].split("Subject To")[0]
        assert text.endswith("End\n")

    def test_bottleneck_row_shape(self, triangle):
        model = build_ilp(triangle, 0, 2)
        text = render_lp(model)
        slack = model.big_m - triangle.bandwidth(0, 2)
        assert slack > 1
        assert f"red_bw_0_2: yr + {slack} r_0_2 + {slack} r_2_0 <= {model.big_m}" in text

    def test_deterministic(self, five_node):
        assert export_ilp(five_node, 0, 3) == export_ilp(five_node, 0, 3)

    def test_source_equals_dest_rejected(self, five_node):
        with pytest.raises(ValueError):
            export_ilp(five_node, 2, 2)
