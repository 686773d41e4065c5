"""One endpoint contract for every query: graph.check_endpoints.

Every solver, the path enumeration, the ILP builder, the CLI commands,
the two functions that read a path off a search result and mlbdp_full's
dests reject a bad (source, destination) query with the same three
messages; so does the tests' reference sweep. Each of them calls
check_endpoints with its graph's node count; the CLI has no check of its
own, so its messages are the solvers'.
"""

import pytest

from widestpair.cli import main
from widestpair.exact import build_ilp, enumerate_simple_paths, optimal_pair_bruteforce
from widestpair.graph import check_endpoints
from widestpair.mba import mba_pair
from widestpair.mlbdp import mlbdp_full, reconstruct_pair, run_limit_search
from widestpair.sample import FIVE_NODE_TEXT, five_node_network
from widestpair.widest import extract_widest_path, max_bandwidth_tree

from .helpers import limit_sweep

SOURCE_ERRORS = [
    (5, "source 5 out of range 0..4"),
    (-1, "source -1 out of range 0..4"),
    # an integer an error names is quoted to its first 80 characters
    (10**4000 - 1, f"source {'9' * 80}... (4000 digits) out of range 0..4"),
    # past Python's 4,300-digit int-to-str limit too (pytest cannot name it)
    pytest.param(10**5000, f"source 1{'0' * 79}... (5001 digits) out of range 0..4", id="5001-digits"),
]
QUERY_ERRORS = [
    (5, 0, "source 5 out of range 0..4"),
    (0, 5, "destination 5 out of range 0..4"),
    (0, -1, "destination -1 out of range 0..4"),
    (2, 2, "source and destination must differ"),
]
# for a result of source 0; each must be refused before it indexes a table
DEST_ERRORS = [
    (5, "destination 5 out of range 0..4"),
    (-2, "destination -2 out of range 0..4"),
    (10**6, "destination 1000000 out of range 0..4"),
    pytest.param(10**100, f"destination 1{'0' * 79}... (101 digits) out of range 0..4", id="101-digits"),
    pytest.param(10**5000, f"destination 1{'0' * 79}... (5001 digits) out of range 0..4", id="5001-digits"),
    (0, "source and destination must differ"),
]

# "check_query" is the bare check, graph.check_endpoints over the graph's
# node count; the key keeps its earlier name so the test ids stay stable
SOURCE_ONLY = {
    "check_query": lambda g, s: check_endpoints(g.n, s),
    "mlbdp_full": mlbdp_full,
    "limit_sweep": limit_sweep,
    "max_bandwidth_tree": max_bandwidth_tree,
    "run_limit_search": lambda g, s: run_limit_search(g, s, 1),
}
PAIR = {
    "check_query": lambda g, s, t: check_endpoints(g.n, s, t),
    "mba_pair": mba_pair,
    "optimal_pair_bruteforce": optimal_pair_bruteforce,
    "enumerate_simple_paths": enumerate_simple_paths,
    "build_ilp": build_ilp,
}
FROM_RESULT = {
    "reconstruct_pair": lambda g, t: reconstruct_pair(run_limit_search(g, 0, 1), t),
    "extract_widest_path": lambda g, t: extract_widest_path(max_bandwidth_tree(g, 0), t),
    "mlbdp_full": lambda g, t: mlbdp_full(g, 0, [t]),
}
COMMANDS = {
    "solve-mlbdp": ["solve", "--algo", "mlbdp"],
    "solve-mba": ["solve", "--algo", "mba"],
    "solve-oracle": ["solve", "--algo", "oracle"],
    "export-ilp": ["export-ilp", "--out", "model.lp"],
}


@pytest.mark.parametrize("name", SOURCE_ONLY)
@pytest.mark.parametrize("s, message", SOURCE_ERRORS)
def test_source_errors(name, s, message):
    with pytest.raises(ValueError) as info:
        SOURCE_ONLY[name](five_node_network(), s)
    assert str(info.value) == message


@pytest.mark.parametrize("name", PAIR)
@pytest.mark.parametrize("s, t, message", QUERY_ERRORS)
def test_query_errors(name, s, t, message):
    with pytest.raises(ValueError) as info:
        PAIR[name](five_node_network(), s, t)
    assert str(info.value) == message


@pytest.mark.parametrize("name", FROM_RESULT)
@pytest.mark.parametrize("t, message", DEST_ERRORS)
def test_result_dest_errors(name, t, message):
    with pytest.raises(ValueError) as info:
        FROM_RESULT[name](five_node_network(), t)
    assert str(info.value) == message


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("s, t, message", QUERY_ERRORS)
def test_command_errors(command, s, t, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five.topo").write_text(FIVE_NODE_TEXT)
    args = [*COMMANDS[command], "--topology", "five.topo", "--source", str(s), "--dest", str(t)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "model.lp").exists()
