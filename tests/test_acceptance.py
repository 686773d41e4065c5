"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[criterion N] PASS|FAIL`` line (run with
``pytest -s`` to see them on success). Criterion 2 holds the pair search
to the brute-force optimum on every ordered pair of 200 seeded graphs,
and criterion 4 checks that the two-step baseline never beats it. The
paper's limit sweep alone keeps one state per virtual node and misses
the optimum on some of these queries; mlbdp_full certifies its answers
and closes those gaps with an exact search. Should a disagreement
return, criterion 2 shrinks a failing instance to a minimal witness and
fails with the evidence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import pytest

from widestpair.bench import RunConfig, run_benchmark
from widestpair.cli import main
from widestpair.exact import build_ilp, optimal_pair_bruteforce
from widestpair.graph import (
    Graph,
    PathPair,
    generate_random_graph,
    serialize_topology,
)
from widestpair.mba import mba_pair
from widestpair.mlbdp import mlbdp_full, unique_bandwidths
from widestpair.sample import FIVE_NODE_TEXT, five_node_network
from widestpair.widest import max_bandwidth_tree

from .conftest import TRAP_LINKS, make_graph, suite_graphs, widest_by_enum
from .helpers import group_counts, mlbdp_single, pair_to_assignment, violations, virtual_link_count


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


# --- criterion 1: golden example ------------------------------------------


def test_c1_golden_example(tmp_path, capsys):
    topo = tmp_path / "five.topo"
    topo.write_text(FIVE_NODE_TEXT)
    rc = main(["solve", "--topology", str(topo), "--source", "0", "--dest", "3", "--algo", "mlbdp"])
    out = capsys.readouterr().out
    g = five_node_network()
    mlbdp_full(g, 0)  # warm caches before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res = mlbdp_full(g, 0)[3]
        best = min(best, time.perf_counter() - t0)
    node_sets = {frozenset(res.pair.red), frozenset(res.pair.blue)}
    ok = (
        rc == 0
        and "combined: 19" in out
        and res.combined == 19
        and node_sets == {frozenset({0, 2, 4, 3}), frozenset({0, 1, 3})}
        and best < 0.010
    )
    report(1, ok, f"combined 19, node sets 0-2-4-3 / 0-1-3, solve {best * 1000:.2f} ms")
    assert rc == 0 and "combined: 19" in out
    assert res.combined == 19
    assert node_sets == {frozenset({0, 2, 4, 3}), frozenset({0, 1, 3})}
    assert best < 0.010


# --- shared differential suite for criteria 2 and 4 ------------------------


@dataclass
class SuiteOutcome:
    graphs: list
    value_mismatches: list = field(default_factory=list)
    foundness_mismatches: list = field(default_factory=list)
    mba_beats: list = field(default_factory=list)
    mba_found_only: list = field(default_factory=list)
    mba_over_oracle: list = field(default_factory=list)
    trap_ok: bool = False
    c2_seconds: float = 0.0


@pytest.fixture(scope="module")
def suite() -> SuiteOutcome:
    graphs = list(suite_graphs(200, seed=999, n_lo=4, n_hi=10, max_bw=50))
    out = SuiteOutcome(graphs)
    t0 = time.perf_counter()
    mba_results = {}
    for gi, g in enumerate(graphs):
        for s in range(g.n):
            full = mlbdp_full(g, s)
            for d in range(g.n):
                if d == s:
                    continue
                oracle = optimal_pair_bruteforce(g, s, d)
                got = full.get(d)
                if (oracle is None) != (got is None):
                    out.foundness_mismatches.append((gi, s, d))
                elif oracle is not None and oracle[1] != got.combined:
                    out.value_mismatches.append((gi, s, d, oracle[1], got.combined))
                mba_results[(gi, s, d)] = (
                    mba_pair(g, s, d),
                    None if oracle is None else oracle[1],
                    None if got is None else got.combined,
                )
    out.c2_seconds = time.perf_counter() - t0
    for key, (pair, oracle_c, mlbdp_c) in mba_results.items():
        if pair is None:
            continue
        if oracle_c is not None and pair.combined > oracle_c:
            out.mba_over_oracle.append(key)
        if mlbdp_c is None:
            out.mba_found_only.append(key)
        elif pair.combined > mlbdp_c:
            out.mba_beats.append(key + (pair.combined, mlbdp_c))
    trap = make_graph(4, TRAP_LINKS)
    trap_res = mlbdp_full(trap, 0).get(3)
    out.trap_ok = (
        mba_pair(trap, 0, 3) is None and trap_res is not None and trap_res.combined == 11
    )
    return out


def _mismatch_holds(g: Graph, s: int, d: int) -> bool:
    try:
        oracle = optimal_pair_bruteforce(g, s, d)
    except Exception:
        return False
    got = mlbdp_full(g, s).get(d)
    if (oracle is None) != (got is None):
        return True
    return oracle is not None and oracle[1] != got.combined


def _shrink_counterexample(g: Graph, s: int, d: int) -> Graph:
    """Greedily drop links while the oracle disagreement persists."""
    links = g.links()
    changed = True
    while changed:
        changed = False
        for i in range(len(links)):
            cand = links[:i] + links[i + 1 :]
            gg = Graph(g.n)
            for u, v, bw in cand:
                gg.add_link(u, v, bw)
            if _mismatch_holds(gg, s, d):
                links = cand
                changed = True
                break
    gg = Graph(g.n)
    for u, v, bw in links:
        gg.add_link(u, v, bw)
    return gg


def _describe_counterexample(out: SuiteOutcome) -> str:
    records = [(r[0], r[1], r[2]) for r in out.value_mismatches]
    records += out.foundness_mismatches
    gi, s, d = min(records, key=lambda r: (out.graphs[r[0]].n, out.graphs[r[0]].m))
    g = _shrink_counterexample(out.graphs[gi], s, d)
    oracle = optimal_pair_bruteforce(g, s, d)
    got = mlbdp_full(g, s).get(d)
    lines = [
        "minimized counterexample (single state per virtual node loses the optimum):",
        serialize_topology(g).rstrip(),
        f"query: source {s} dest {d}",
        f"brute-force optimum: {oracle}",
        f"limit-sweep search:  {got}",
    ]
    for limit in unique_bandwidths(g):
        lines.append(f"  limit {limit}: {mlbdp_single(g, s, limit).get(d)}")
    return "\n".join(lines)


def test_c2_oracle_equivalence(suite):
    bad = len(suite.value_mismatches) + len(suite.foundness_mismatches)
    ok = bad == 0 and suite.c2_seconds < 300
    detail = (
        f"{bad} of the ordered-pair comparisons disagree with the brute-force optimum "
        f"over 200 graphs ({len(suite.value_mismatches)} value, "
        f"{len(suite.foundness_mismatches)} existence) in {suite.c2_seconds:.0f}s"
    )
    report(2, ok, detail)
    assert suite.c2_seconds < 300
    if bad:
        evidence = _describe_counterexample(suite)
        print(evidence)
        pytest.fail(f"{detail}\n{evidence}")


# --- criterion 3: widest-path correctness ----------------------------------


def test_c3_widest_path_correctness():
    checked = 0
    for g in suite_graphs(120, seed=333, n_lo=2, n_hi=8):
        for s in range(g.n):
            tree = max_bandwidth_tree(g, s)
            for t in range(g.n):
                if t == s:
                    continue
                assert tree.maxbw[t] == widest_by_enum(g, s, t)
                checked += 1
    report(3, True, f"exact equality with path enumeration on {checked} (s,t) queries, 120 seeds")


# --- criterion 4: MBA dominance and failure witness -------------------------


def test_c4_mba_dominance_and_witness(suite):
    beats = len(suite.mba_beats)
    found_only = len(suite.mba_found_only)
    ok = beats == 0 and found_only == 0 and suite.trap_ok and not suite.mba_over_oracle
    detail = (
        f"trap witness {'holds' if suite.trap_ok else 'BROKEN'}; two-step heuristic beat the "
        f"pair search on {beats} pairs and was the only finder on {found_only} "
        f"(pair search sub-optimality, see criterion 2); oracle never beaten: "
        f"{not suite.mba_over_oracle}"
    )
    report(4, ok, detail)
    assert suite.trap_ok
    assert not suite.mba_over_oracle
    if beats or found_only:
        pytest.fail(detail)


# --- criterion 5: virtual topology size ------------------------------------


def test_c5_virtual_topology_identity():
    count = 0
    for g in suite_graphs(50, seed=444):
        assert virtual_link_count(g) == 2 * g.m * g.n
        count += 1
    report(5, True, f"implicit adjacency walk equals 2mn on {count} graphs")


# --- criterion 6: scale smoke ----------------------------------------------


def _bench_seconds(n: int, m: int) -> float:
    g = generate_random_graph(n, m, seed=4242)
    cfg = RunConfig(graph=g, label=f"gen-{n}-{m}", sweep=(5000,), seed=4242, algos=("mlbdp",))
    t0 = time.perf_counter()
    run_benchmark(cfg)
    return time.perf_counter() - t0


def _cost_model(n: int, m: int) -> float:
    # per-source full sweep: limits x (virtual links + heap work), all sources
    return n * m * (2 * m * n + 2 * n * n * math.log2(n))


def test_c6_scale_smoke():
    points = [(10, 13), (20, 26), (35, 45)]
    times = {(n, m): _bench_seconds(n, m) for n, m in points}
    t35 = times[(35, 45)]
    growth_ok = True
    ratios = []
    for (a, b) in [(points[0], points[1]), (points[1], points[2]), (points[0], points[2])]:
        measured = times[b] / times[a]
        modeled = _cost_model(*b) / _cost_model(*a)
        ratios.append(f"{a[0]}->{b[0]}: {measured:.1f}x vs {modeled:.1f}x model")
        if measured > 4 * modeled:
            growth_ok = False
    ok = t35 < 60 and growth_ok
    report(6, ok, f"35-node full benchmark {t35:.1f}s (< 60s); growth {'; '.join(ratios)}")
    assert t35 < 60
    assert growth_ok


# --- criterion 7: ILP exporter structure ------------------------------------


def test_c7_ilp_structure_and_evaluator():
    triangle = make_graph(3, [(0, 1, 5), (0, 2, 3), (1, 2, 4)])
    model = build_ilp(triangle, 0, 1)
    var_count = len(model.binaries) + len(model.continuous)
    counts = group_counts(model)
    counts_ok = var_count == 14 and counts == {
        "red_flow": 3,
        "blue_flow": 3,
        "enter_dest": 1,
        "enter_source": 1,
        "node_once": 1,
        "red_bw": 3,
        "blue_bw": 3,
        "link_once": 3,
    }
    five = five_node_network()
    pair = PathPair((0, 2, 4, 3), (0, 1, 3), 12, 7)
    broken = violations(build_ilp(five, 0, 3), pair_to_assignment(pair))
    ok = counts_ok and broken == []
    report(7, ok, f"triangle model has 14 variables and the stated row counts; "
                  f"known optimal pair satisfies every row with yr=12 yb=7")
    assert counts_ok
    assert broken == []


# --- criterion 8: determinism ------------------------------------------------


def test_c8_bench_determinism(tmp_path, capsys):
    from .test_bench import strip_wall_times

    args = ["bench", "--gen", "8,12", "--sweep", "10,100", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "report.csv").read_text()
    b = (tmp_path / "b" / "report.csv").read_text()
    ok = strip_wall_times(a) == strip_wall_times(b)
    report(8, ok, "repeated bench runs byte-identical apart from wall_time_ms")
    assert ok
