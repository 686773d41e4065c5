import pytest

from widestpair import bench, mlbdp
from widestpair.bench import (
    DEFAULT_SWEEP,
    RunConfig,
    render_report_csv,
    run_benchmark,
    write_plot_data,
    write_report_csv,
)
from widestpair.exact import optimal_pair_bruteforce
from widestpair.graph import DisjointResult, PathPair, generate_random_graph, parse_topology
from widestpair.mba import mba_pair

from .conftest import suite_graphs


def strip_wall_times(csv_text: str) -> str:
    """Blank the wall_time_ms column so deterministic content can be compared."""
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("max_bw"):
            out.append(line)
            continue
        cells = line.split(",")
        cells[3] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def row_by_algo(row):
    return {a.algo: a for a in row.algos}


@pytest.fixture(scope="module")
def report():
    from widestpair.sample import five_node_network

    cfg = RunConfig(
        graph=five_node_network(),
        label="five_node",
        sweep=None,
        seed=1,
        algos=("mlbdp", "mba", "oracle"),
    )
    return run_benchmark(cfg)


class TestFixtureBench:
    def test_single_fixed_row(self, report):
        assert len(report.rows) == 1
        assert report.rows[0].max_bw is None

    def test_all_twenty_ordered_pairs(self, report):
        algos = row_by_algo(report.rows[0])
        assert algos["oracle"].pairs_found == 20
        assert algos["mlbdp"].pairs_found == 20

    def test_mlbdp_diff_zero(self, report):
        algos = row_by_algo(report.rows[0])
        assert algos["mlbdp"].diff_total == 0
        assert algos["mlbdp"].diff_avg == 0.0

    def test_diffs_non_negative_and_ordered_counts(self, report):
        algos = row_by_algo(report.rows[0])
        assert algos["mba"].diff_total >= 0
        assert algos["oracle"].pairs_found >= algos["mlbdp"].pairs_found
        assert algos["oracle"].diff_total is None

    def test_csv_shape(self, report):
        text = render_report_csv(report)
        lines = text.splitlines()
        assert lines[0].startswith("# seed=1 topology=five_node")
        assert lines[1].startswith("# miss_policy")
        assert lines[2] == "max_bw,algo,pairs_found,wall_time_ms,diff_total,diff_avg"
        data = lines[3:]
        assert len(data) == 3
        assert all(row.startswith("fixed,") for row in data)


class TestGeneratedBench:
    def test_oracle_dominates_on_generated_graph(self):
        g = generate_random_graph(10, 20, seed=1)
        cfg = RunConfig(graph=g, label="gen-10-20", sweep=(50,), seed=1)
        report = run_benchmark(cfg)
        algos = row_by_algo(report.rows[0])
        assert algos["oracle"].pairs_found >= algos["mlbdp"].pairs_found
        assert algos["mlbdp"].diff_total >= 0
        assert algos["mba"].diff_total >= algos["mlbdp"].diff_total >= 0

    def test_determinism_modulo_timing(self):
        g = generate_random_graph(8, 12, seed=5)
        cfg = RunConfig(graph=g, label="g", sweep=(10, 50), seed=5)
        a = render_report_csv(run_benchmark(cfg))
        b = render_report_csv(run_benchmark(cfg))
        assert strip_wall_times(a) == strip_wall_times(b)

    def test_heuristics_only_leave_diff_cells_empty(self):
        g = generate_random_graph(6, 8, seed=2)
        cfg = RunConfig(graph=g, label="g", sweep=(10,), seed=2, algos=("mlbdp",))
        report = run_benchmark(cfg)
        row = report.rows[0]
        assert row.algos[0].diff_total is None
        text = render_report_csv(report)
        assert text.splitlines()[-1].endswith(",,")

    def test_miss_policy_full_vs_zero(self, trap):
        # the full rule is the only one: a missed pair costs the whole
        # oracle value, a found one its shortfall
        report = run_benchmark(
            RunConfig(graph=trap, label="trap", sweep=None, algos=("mba", "oracle"))
        )
        # recompute the expected gap from the components directly
        gap = missed = 0
        for s in range(trap.n):
            for d in range(trap.n):
                if d == s:
                    continue
                best = optimal_pair_bruteforce(trap, s, d)
                if best is None:
                    continue
                pair = mba_pair(trap, s, d)
                if pair is None:
                    missed += best[1]
                else:
                    gap += best[1] - pair.combined
        assert missed > 0
        assert row_by_algo(report.rows[0])["mba"].diff_total == gap + missed


class TestOutputs:
    def test_write_report_csv(self, tmp_path, five_node):
        cfg = RunConfig(graph=five_node, label="five", sweep=None)
        path = write_report_csv(run_benchmark(cfg), tmp_path / "out" / "report.csv")
        assert path.exists()
        assert path.read_text().startswith("# seed=")

    def test_plot_data_files(self, tmp_path, five_node):
        cfg = RunConfig(graph=five_node, label="five", sweep=None)
        paths = write_plot_data(run_benchmark(cfg), tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["diff_avg.dat", "diff_total.dat", "pairs_found.dat", "wall_time_ms.dat"]
        body = (tmp_path / "pairs_found.dat").read_text()
        assert body.splitlines()[0] == "# max_bw mlbdp mba oracle"
        assert body.splitlines()[1].startswith("fixed ")


class TestConfigValidation:
    def test_unknown_algo(self, five_node):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunConfig(graph=five_node, algos=("mlbdp", "dijkstra"))

    def test_bad_sweep_value(self, five_node):
        with pytest.raises(ValueError, match="sweep"):
            RunConfig(graph=five_node, sweep=(10, 0))

    def test_empty_sweep(self, five_node):
        with pytest.raises(ValueError, match="empty sweep"):
            RunConfig(graph=five_node, sweep=())

    def test_duplicate_algo(self, five_node):
        with pytest.raises(ValueError, match="duplicate algorithm"):
            RunConfig(graph=five_node, algos=("mlbdp", "mlbdp"))

    def test_duplicate_sweep_value(self, five_node):
        with pytest.raises(ValueError, match=r"^duplicate sweep value in \(5, 10, 5\)$"):
            RunConfig(graph=five_node, sweep=(5, 10, 5))
        # cut as the duplicate-algorithm message is; a huge value is quoted cut too
        with pytest.raises(ValueError, match=r"^duplicate sweep value in \(1, 1, .*\.\.\. \(1000 values\)$"):
            RunConfig(graph=five_node, sweep=(1,) * 1000)
        with pytest.raises(ValueError, match=r"^duplicate sweep value in \(10{78}\.\.\. \(2 values\)$"):
            RunConfig(graph=five_node, sweep=(10**4999, 10**4999))

    def test_default_sweep_matches_protocol(self):
        assert DEFAULT_SWEEP == (10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


class TestSolverTable:
    @pytest.mark.parametrize("attr, algo, calls", [("mba_pair", "mba", 20), ("mlbdp_full", "mlbdp", 5)])
    def test_resolves_solvers_at_call_time(self, five_node, monkeypatch, attr, algo, calls):
        original = getattr(bench, attr)
        seen = []

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, attr, counting)
        report = run_benchmark(RunConfig(graph=five_node, label="five", sweep=None, algos=(algo,)))
        assert len(seen) == calls
        assert report.rows[0].algos[0].pairs_found == 20

    def test_every_solver_answers_with_disjoint_results(self, five_node):
        for g in [five_node, *suite_graphs(4, seed=41, n_hi=8)]:
            for s in range(g.n):
                dests = [d for d in range(g.n) if d != s]
                answers = {algo: solve(g, s, dests) for algo, solve in bench.SOLVERS.items()}
                for algo, res in answers.items():
                    assert set(res) <= set(dests), algo
                    assert all(type(r) is DisjointResult for r in res.values()), algo
                assert all(r.upper_bound is None for r in answers["mba"].values())
                assert all(r.upper_bound == r.combined for r in answers["oracle"].values())
                assert set(answers["mlbdp"]) == set(answers["oracle"])
                for d, r in answers["mlbdp"].items():
                    assert r.upper_bound is not None
                    assert r.combined <= answers["oracle"][d].combined <= r.upper_bound

    def test_oracle_unpacks_as_pair_and_optimum(self, five_node):
        # perfbench reads the oracle's answer as (pair, combined) and as res[1]
        for s in range(five_node.n):
            for d in range(five_node.n):
                if d != s:
                    res = optimal_pair_bruteforce(five_node, s, d)
                    pair, best = res
                    assert best == res[1] == pair.combined == res.upper_bound

    def test_unproven_counted_per_algorithm(self, monkeypatch):
        # without search steps mlbdp leaves 3 -> 0 at 27 below its bound 42
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", 0)
        g = parse_topology("nodes 4\nlink 0 2 47\nlink 0 3 8\nlink 1 2 49\nlink 1 3 34\nlink 2 3 19\n")
        report = run_benchmark(RunConfig(graph=g, label="witness", sweep=None))
        assert {a.algo: a.unproven for a in report.rows[0].algos} == {"mlbdp": 1, "mba": 0, "oracle": 0}

    def test_heuristic_beating_oracle_raises(self, five_node, monkeypatch):
        # the check must hold under python -O too, so it cannot be an assert
        def inflated(g, s, d):
            pair = mba_pair(g, s, d)
            return None if pair is None else PathPair(pair.red, pair.blue, pair.red_bw + 100, pair.blue_bw)

        monkeypatch.setattr(bench, "mba_pair", inflated)
        cfg = RunConfig(graph=five_node, label="five", sweep=None, algos=("mba", "oracle"))
        with pytest.raises(RuntimeError, match="mba beat the oracle"):
            run_benchmark(cfg)
