"""Property tests on random small graphs (hypothesis, test-only).

The profile is derandomized and keeps no example database, so every run
draws the same examples and the suite stays deterministic.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from widestpair import mlbdp
from widestpair.exact import optimal_pair_bruteforce
from widestpair.graph import parse_topology, serialize_topology, validate_pair
from widestpair.mba import mba_pair
from widestpair.mlbdp import _blocks_and_bounds, mlbdp_full
from widestpair.widest import max_bandwidth_tree

from .conftest import make_graph
from .helpers import max_min_bounds_reference

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def queries(draw, max_nodes: int = 8):
    """A graph of 2..max_nodes nodes (not always connected) and a source.

    Bandwidths come from 1..3 (many ties) or 1..50.
    """
    n = draw(st.integers(2, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    max_bw = draw(st.sampled_from([3, 50]))
    links = [(u, v, draw(st.integers(1, max_bw))) for u, v in chosen]
    return make_graph(n, links), draw(st.integers(0, n - 1))


@PROFILE
@given(queries(), st.sampled_from([0, 3, mlbdp.FALLBACK_BUDGET]))
def test_full_answers_are_valid_and_bracket_the_optimum(query, budget):
    g, s = query
    with mock.patch.object(mlbdp, "FALLBACK_BUDGET", budget):
        full = mlbdp_full(g, s)
    for d in range(g.n):
        if d == s:
            continue
        best = optimal_pair_bruteforce(g, s, d)
        assert (best is None) == (d not in full)
        if best is not None:
            res = full[d]
            validate_pair(g, res.pair)
            assert res.pair.red[0] == s and res.pair.red[-1] == d
            assert res.combined <= best[1] <= res.upper_bound


@PROFILE
@given(queries())
def test_max_min_bounds_match_thresholds(query):
    g, s = query
    for links, bounds in _blocks_and_bounds(max_bandwidth_tree(g, s), g.adjacency()):
        assert bounds == max_min_bounds_reference(g.n, links, s)


@PROFILE
@given(queries())
def test_mba_answers_do_not_depend_on_query_order(query):
    g, _ = query
    pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
    # destination-major first: the source changes on every call, so the
    # graph's round-one memo is rebuilt on every call
    cold = {(s, t): mba_pair(g, s, t) for s, t in sorted(pairs, key=lambda p: p[::-1])}
    # source-major: every query after a source's first reads the memo
    warm = {(s, t): mba_pair(g, s, t) for s, t in pairs}
    fresh = parse_topology(serialize_topology(g))
    assert warm == cold == {(s, t): mba_pair(fresh, s, t) for s, t in pairs}
