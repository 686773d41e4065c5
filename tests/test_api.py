import argparse
import contextlib
import dataclasses
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import widestpair
from widestpair import bench
from widestpair.cli import build_parser, main
from widestpair.sample import FIVE_NODE_TEXT

# names perfbench reads from the package namespace
PERFBENCH_NAMES = {
    "VNodeTable",
    "assign_random_bandwidths",
    "five_node_network",
    "generate_random_graph",
    "max_bandwidth_tree",
    "mba_pair",
    "mlbdp_full",
    "optimal_pair_bruteforce",
    "parse_topology",
    "serialize_topology",
    "validate_pair",
}


def test_all_is_sorted_and_resolves():
    assert widestpair.__all__ == sorted(widestpair.__all__)
    for name in widestpair.__all__:
        assert hasattr(widestpair, name), name


def test_all_keeps_the_perfbench_names():
    assert PERFBENCH_NAMES <= set(widestpair.__all__)


def test_import_loads_no_third_party_package():
    # the package is pure Python with no runtime dependencies; a fresh
    # interpreter shows what importing every module pulls in
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, widestpair\n"
        "from widestpair import graph, widest, mlbdp, mba, exact, bench, cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} & "
        "{'numpy', 'scipy', 'networkx', 'hypothesis'})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_dropped_names_stay_in_their_submodules():
    for module, name in [
        ("exact", "enumerate_simple_paths"),
        ("graph", "PathPair"),
        ("mlbdp", "DisjointResult"),
        ("mlbdp", "run_limit_search"),
        ("widest", "extract_widest_path"),
    ]:
        assert hasattr(importlib.import_module(f"widestpair.{module}"), name)


def test_solver_table_is_the_algorithm_list():
    assert tuple(bench.SOLVERS) == bench.ALGORITHMS


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[:2] == ["(0, 2, 4, 3) (0, 1, 3) 19", "19"]


def test_cli_has_one_route_per_question():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"solve", "bench", "gen", "export-ilp"}


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--topology", "five.topo", "--source", "0", "--dest", "3"],
        ["bench", "--topology", "five.topo", "--sweep", "fixed", "--miss-policy", "zero"],
    ],
    ids=["oracle-command", "miss-policy"],
)
def test_removed_routes_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five.topo").write_text(FIVE_NODE_TEXT)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "cls, names",
    [
        (bench.RunConfig, ("graph", "label", "sweep", "seed", "algos")),
        (bench.BenchmarkReport, ("seed", "label", "rows")),
        (bench.SweepRow, ("max_bw", "algos")),
    ],
    ids=["RunConfig", "BenchmarkReport", "SweepRow"],
)
def test_report_dataclass_fields(cls, names):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
