import os
import subprocess
import sys
from pathlib import Path

import pytest

from widestpair.cli import main
from widestpair.graph import parse_topology
from widestpair.sample import FIVE_NODE_TEXT

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


class TestOracleCommand:
    def test_finds_optimum(self, topo_file, capsys):
        rc = main(["oracle", "--topology", topo_file, "--source", "0", "--dest", "3"])
        assert rc == 0
        assert "combined: 19" in capsys.readouterr().out

    def test_long_cycle(self, tmp_path, capsys):
        # a 2400-node ring has exactly two simple paths between any two nodes
        n = 2400
        path = tmp_path / "ring.topo"
        path.write_text(f"nodes {n}\n" + "".join(f"link {i} {(i + 1) % n} 1\n" for i in range(n)))
        rc = main(["oracle", "--topology", str(path), "--source", "0", "--dest", "1200"])
        assert rc == 0
        assert "combined: 2\n" in capsys.readouterr().out

    def test_cap_exceeded_exit_code(self, topo_file, capsys):
        rc = main(
            ["oracle", "--topology", topo_file, "--source", "0", "--dest", "3", "--path-cap", "3"]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestGen:
    def test_generates_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "g.topo"
        rc = main(["gen", "--nodes", "10", "--links", "20", "--seed", "7", "--out", str(out)])
        assert rc == 0
        g = parse_topology(out.read_text())
        assert g.n == 10 and g.m == 20 and g.connected()
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


class TestBenchCommand:
    def test_stdout_csv(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--sweep", "fixed"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_bw,algo,pairs_found,wall_time_ms,diff_total,diff_avg" in out
        assert "fixed,mlbdp,20," in out

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

    def test_bad_sweep(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--sweep", "ten"])
        assert rc == 2

    def test_unknown_algo(self, topo_file, capsys):
        rc = main(["bench", "--topology", topo_file, "--algos", "simplex"])
        assert rc == 2


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
