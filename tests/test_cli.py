import os
import subprocess
import sys
from pathlib import Path

import pytest

from widestpair import cli, exact, mlbdp
from widestpair.cli import main
from widestpair.graph import parse_topology
from widestpair.sample import FIVE_NODE_TEXT

from .helpers import connected

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def topo_file(tmp_path) -> str:
    path = tmp_path / "five.topo"
    path.write_text(FIVE_NODE_TEXT)
    return str(path)


@pytest.fixture
def tree_file(tmp_path) -> str:
    path = tmp_path / "tree.topo"
    path.write_text("nodes 4\nlink 0 1 5\nlink 1 2 6\nlink 2 3 7\n")
    return str(path)


def test_demo_topology_file_matches_packaged_text():
    assert (REPO_ROOT / "topologies" / "five_node.topo").read_text() == FIVE_NODE_TEXT


class TestSolve:
    def test_mlbdp(self, topo_file, capsys):
        rc = main(["solve", "--topology", topo_file, "--source", "0", "--dest", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "combined: 19" in out
        assert "red:  0-2-4-3  bandwidth 12" in out
        assert "blue: 0-1-3  bandwidth 7" in out

    @pytest.mark.parametrize("algo", ["mba", "oracle"])
    def test_other_algorithms_agree_on_fixture(self, topo_file, capsys, algo):
        rc = main(["solve", "--topology", topo_file, "--source", "0", "--dest", "3", "--algo", algo])
        assert rc == 0
        assert "combined: 19" in capsys.readouterr().out

    def test_gap_reported_when_not_proven(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "witness.topo"
        path.write_text("nodes 4\nlink 0 2 47\nlink 0 3 8\nlink 1 2 49\nlink 1 3 34\nlink 2 3 19\n")
        args = ["solve", "--topology", str(path), "--source", "3", "--dest", "0"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "combined: 42" in out and "not proven" not in out
        # without search steps the sweep's 27 stands against the bound 42
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", 0)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "combined: 27" in out
        assert "not proven optimal: upper bound 42, gap 15" in out

    def test_no_pair(self, tree_file, capsys):
        rc = main(["solve", "--topology", tree_file, "--source", "0", "--dest", "3"])
        assert rc == 0
        assert "no node-disjoint pair" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["solve", "--topology", str(tmp_path / "nope"), "--source", "0", "--dest", "3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_same_endpoints(self, topo_file, capsys):
        rc = main(["solve", "--topology", topo_file, "--source", "3", "--dest", "3"])
        assert rc == 2

    def test_malformed_topology(self, tmp_path, capsys):
        path = tmp_path / "bad.topo"
        path.write_text("nodes 2\nlink 0 0 5\n")
        rc = main(["solve", "--topology", str(path), "--source", "0", "--dest", "1"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_too_long_integer(self, tmp_path, capsys):
        path = tmp_path / "long.topo"
        path.write_text("nodes 2\nlink 0 1 " + "7" * 5000 + "\n")
        rc = main(["solve", "--topology", str(path), "--source", "0", "--dest", "1"])
        assert rc == 2
        assert "line 2: integer field is too long: 5000 digits" in capsys.readouterr().err

    def test_long_line_error_is_short(self, tmp_path, capsys):
        path = tmp_path / "long.topo"
        path.write_text("nodes 2\nlink 0 1 x" + "7" * 100_000 + "\n")
        rc = main(["solve", "--topology", str(path), "--source", "0", "--dest", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2: non-integer field in 'link 0 1 x777" in err
        assert len(err) < 300


class TestOracleCommand:
    SOLVE = ["solve", "--algo", "oracle"]

    def test_finds_optimum(self, topo_file, capsys):
        rc = main([*self.SOLVE, "--topology", topo_file, "--source", "0", "--dest", "3"])
        assert rc == 0
        assert "combined: 19" in capsys.readouterr().out

    def test_long_cycle(self, tmp_path, capsys):
        # a 2400-node ring has exactly two simple paths between any two nodes
        n = 2400
        path = tmp_path / "ring.topo"
        path.write_text(f"nodes {n}\n" + "".join(f"link {i} {(i + 1) % n} 1\n" for i in range(n)))
        rc = main([*self.SOLVE, "--topology", str(path), "--source", "0", "--dest", "1200"])
        assert rc == 0
        assert "combined: 2\n" in capsys.readouterr().out

    def test_cap_exceeded_exit_code(self, topo_file, capsys, monkeypatch):
        monkeypatch.setattr(exact, "PATH_CAP", 3)
        rc = main([*self.SOLVE, "--topology", topo_file, "--source", "0", "--dest", "3"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "topology, query, rc",
        [
            ("topo_file", ["--source", "0", "--dest", "3"], 0),
            ("tree_file", ["--source", "0", "--dest", "3"], 0),
            ("topo_file", ["--source", "0", "--dest", "3"], 3),
            ("topo_file", ["--source", "3", "--dest", "3"], 2),
        ],
    )
    def test_exit_codes(self, request, monkeypatch, topology, query, rc):
        path = request.getfixturevalue(topology)
        if rc == 3:
            monkeypatch.setattr(exact, "PATH_CAP", 3)
        assert main([*self.SOLVE, "--topology", path, *query]) == rc


class TestGen:
    def test_generates_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "g.topo"
        rc = main(["gen", "--nodes", "10", "--links", "20", "--seed", "7", "--out", str(out)])
        assert rc == 0
        g = parse_topology(out.read_text())
        assert g.n == 10 and g.m == 20 and connected(g)
        assert all(bw == 1 for _, _, bw in g.links())

    def test_max_bw_option(self, tmp_path, capsys):
        out = tmp_path / "g.topo"
        rc = main(
            ["gen", "--nodes", "6", "--links", "8", "--seed", "7", "--max-bw", "9", "--out", str(out)]
        )
        assert rc == 0
        g = parse_topology(out.read_text())
        assert any(bw > 1 for _, _, bw in g.links())
        assert all(1 <= bw <= 9 for _, _, bw in g.links())

    def test_infeasible_request(self, tmp_path, capsys):
        rc = main(["gen", "--nodes", "5", "--links", "99", "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("out", ["newdir/", "deep/er/", "."])
    def test_directory_out_refused_before_generating(self, out, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "generate_random_graph", lambda *args: calls.append(args))
        assert main(["gen", "--nodes", "6", "--links", "8", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out!r} names a directory; gen writes one topology file\n"
        assert captured.out == ""
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_huge_link_pool_refused(self, tmp_path, capsys):
        out = tmp_path / "g.topo"
        assert main(["gen", "--nodes", "100000", "--links", "100000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "pool of 4999850001 unused node pairs" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, head",
        [
            (["--nodes", "-" + "9" * 3000, "--links", "5"], "error: need at least 2 nodes, got -999"),
            (["--nodes", "5", "--links", "9" * 3000], "error: infeasible link count 999"),
            (["--nodes", "5", "--links", "5", "--max-bw", "-" + "9" * 3000], "error: max_bw must be >= 1, got -999"),
        ],
        ids=["nodes", "links", "max-bw"],
    )
    def test_long_value_quoted_cut(self, tmp_path, capsys, args, head):
        assert main(["gen", *args, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(head) and "... (3000 digits)" in err
        assert len(err) < 300


class TestExportIlp:
    def test_to_file(self, topo_file, tmp_path, capsys):
        out = tmp_path / "model.lp"
        rc = main(
            ["export-ilp", "--topology", topo_file, "--source", "0", "--dest", "3", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("\\ node-disjoint pair model")
        assert "Maximize" in text and text.endswith("End\n")

    def test_to_directory_uses_query_name(self, topo_file, tmp_path, capsys):
        rc = main(
            ["export-ilp", "--topology", topo_file, "--source", "0", "--dest", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "five_0_3.lp").exists()

    @pytest.mark.parametrize("out", ["missing/", "deep/er/"])
    def test_trailing_separator_is_a_new_directory(self, out, topo_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["export-ilp", "--topology", topo_file, "--source", "0", "--dest", "3", "--out", out])
        assert rc == 0
        model = Path(out) / "five_0_3.lp"
        assert model.read_text().startswith("\\ node-disjoint pair model")
        assert capsys.readouterr().out == f"wrote {model}\n"


class TestBenchCommand:
    def test_stdout_csv(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--sweep", "fixed"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_bw,algo,pairs_found,wall_time_ms,diff_total,diff_avg" in out
        assert "fixed,mlbdp,20," in out

    def test_unproven_answers_noted(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "witness.topo"
        path.write_text("nodes 4\nlink 0 2 47\nlink 0 3 8\nlink 1 2 49\nlink 1 3 34\nlink 2 3 19\n")
        args = ["bench", "--topology", str(path), "--sweep", "fixed", "--algos", "mlbdp"]
        assert main(args) == 0
        assert "not proven" not in capsys.readouterr().err
        # without search steps the sweep's 27 for 3 -> 0 stays below its bound 42
        monkeypatch.setattr(mlbdp, "FALLBACK_BUDGET", 0)
        assert main(args) == 0
        assert "note: 1 mlbdp answers are not proven optimal" in capsys.readouterr().err

    def test_path_cap_exit_code(self, topo_file, capsys, monkeypatch):
        monkeypatch.setattr(exact, "PATH_CAP", 3)
        rc = main(["bench", "--topology", topo_file, "--sweep", "fixed", "--algos", "oracle"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_gen_source_and_outdir(self, tmp_path, capsys):
        rc = main(
            [
                "bench", "--gen", "8,12", "--sweep", "10,20", "--seed", "3",
                "--algos", "mlbdp,mba", "--out", str(tmp_path), "--plot-data",
            ]
        )
        assert rc == 0
        assert (tmp_path / "report.csv").exists()
        for metric in ("pairs_found", "wall_time_ms", "diff_total", "diff_avg"):
            assert (tmp_path / f"{metric}.dat").exists()

    def test_bad_gen_value(self, capsys):
        rc = main(["bench", "--gen", "8", "--sweep", "10"])
        assert rc == 2

    def test_huge_gen_link_pool_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bench", "--gen", "100000,100000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "pool of 4999850001 unused node pairs" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_sweep(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--sweep", "ten"])
        assert rc == 2

    def test_unknown_algo(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--algos", "simplex"])
        assert rc == 2

    def test_duplicate_algo(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--sweep", "fixed", "--algos", "mlbdp,mlbdp"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "duplicate algorithm" in captured.err
        assert captured.out == ""

    def test_duplicate_sweep_value(self, capsys):
        rc = main(["bench", "--gen", "10,15", "--sweep", "5,5", "--algos", "mlbdp"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: duplicate sweep value in (5, 5)\n"
        assert captured.out == ""

    def test_plot_data_needs_out(self, topo_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--topology", topo_file, "--sweep", "fixed", "--plot-data"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --plot-data needs --out")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["five.topo"]

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_blocked_by_file_refused_before_running(self, out, topo_file, tmp_path, monkeypatch, capsys):
        (tmp_path / "taken").write_text("keep")
        calls = []
        monkeypatch.setattr(cli, "run_benchmark", lambda cfg: calls.append(cfg))
        rc = main(["bench", "--topology", topo_file, "--sweep", "fixed", "--out", str(tmp_path / out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert calls == []
        assert (tmp_path / "taken").read_text() == "keep"

    @pytest.mark.parametrize(
        "args, head",
        [
            (["--sweep", "x" * 3000], "error: bad sweep list 'xxx"),
            (["--sweep", "9" * 5000], "error: bad sweep list '999"),
            (["--sweep", "-" + "9" * 3000], "error: sweep values must be >= 1, got -999"),
            (["--algos", "y" * 3000], "error: unknown algorithm 'yyy"),
            (["--sweep", "fixed", "--algos", ",".join(["mba"] * 1000)], "error: duplicate algorithm in ('mba', "),
            (["--gen", "1" * 3000], "error: bad --gen value '111"),
        ],
        ids=["sweep-text", "sweep-too-long-int", "sweep-value", "unknown-algo", "duplicate-algo", "gen"],
    )
    def test_long_values_quoted_cut(self, topo_file, capsys, args, head):
        source = [] if "--gen" in args else ["--topology", topo_file]
        assert main(["bench", *source, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(head)
        assert len(err) < 300

    def test_short_values_quoted_whole(self, topo_file, capsys):
        for args, message in [
            (["--sweep", "ten"], "bad sweep list 'ten'; use comma-separated integers or 'fixed'"),
            (["--sweep", "10,0"], "sweep values must be >= 1, got 0"),
            (["--algos", "simplex"], "unknown algorithm 'simplex'; choose from ('mlbdp', 'mba', 'oracle')"),
            (["--sweep", "fixed", "--algos", "mlbdp,mlbdp"], "duplicate algorithm in ('mlbdp', 'mlbdp')"),
        ]:
            assert main(["bench", "--topology", topo_file, *args]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["bench", "--gen", "8", "--sweep", "10"]) == 2
        assert capsys.readouterr().err == "error: bad --gen value '8'; use n,m\n"


INT_OPTIONS = [
    ("solve", "--source"),
    ("solve", "--dest"),
    ("gen", "--nodes"),
    ("gen", "--links"),
    ("gen", "--seed"),
    ("gen", "--max-bw"),
    ("export-ilp", "--source"),
    ("export-ilp", "--dest"),
    ("bench", "--seed"),
]


def _int_option_argv(command, option, value, topo_file, tmp_path):
    """argv for command with option set to value and every other option valid."""
    given = {
        "solve": {"--topology": topo_file, "--source": "0", "--dest": "1"},
        "gen": {"--nodes": "5", "--links": "5", "--out": str(tmp_path / "x.topo")},
        "export-ilp": {"--topology": topo_file, "--source": "0", "--dest": "1", "--out": str(tmp_path)},
        "bench": {"--topology": topo_file},
    }[command]
    given[option] = value
    return [command, *(part for item in given.items() for part in item)]


class TestIntOptions:
    @pytest.mark.parametrize("command, option", INT_OPTIONS)
    def test_long_value_quoted_cut(self, command, option, topo_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(_int_option_argv(command, option, "9" * 5000, topo_file, tmp_path))
        assert info.value.code == 2
        err = capsys.readouterr().err
        message = f"error: argument {option}: invalid int value: '{'9' * 80}'... (5000 characters)\n"
        assert err.endswith(message)
        # bench's usage lines alone are longer than the rest of the commands' errors
        assert len(err) < (400 if command == "bench" else 300)

    @pytest.mark.parametrize("command, option", INT_OPTIONS)
    def test_short_value_quoted_whole(self, command, option, topo_file, tmp_path, capsys):
        for value in ["x", "1.5", "", "a'b", "x" * 80]:
            with pytest.raises(SystemExit) as info:
                main(_int_option_argv(command, option, value, topo_file, tmp_path))
            assert info.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")


def test_module_entry_point(topo_file):
    # run this checkout's package, not whichever copy the interpreter would find
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "widestpair", "solve", "--topology", topo_file,
         "--source", "0", "--dest", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "combined: 19" in proc.stdout
