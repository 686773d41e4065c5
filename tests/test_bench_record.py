import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_record_keys_on_a_tiny_probe():
    # --seconds 0 runs perfbench's fixed pass only; the graphs are tiny
    argv = ["--seconds", "0", "--best-of", "2", "--workloads", "wide-sweep", "--seeds", "4242",
            "--gens", "6,8", "--probe", "8,12"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out) == {"settings", "machine", "perfbench", "layers", "bench", "scale_probe", "solve_ms"}
    assert set(out["machine"]) == {"cpus", "python", "commit"}
    metrics = out["perfbench"]["wide-sweep"]["4242"]
    assert set(metrics) == {"setup_s", "mlbdp.pairs_per_s", "mba.pairs_per_s", "peak_rss_mb"}
    assert all(v > 0 for v in metrics.values())
    # the medians of best_of traced fixed passes per workload, at the first seed
    assert set(out["layers"]) == {"wide-sweep"} and set(out["layers"]["wide-sweep"]) == {"4242"}
    assert out["layers"]["wide-sweep"]["4242"]["mba.calls"] > 0
    for section, graph in (("bench", "gen-6-8"), ("scale_probe", "gen-8-12")):
        algos = out[section][graph]
        assert set(algos) == {"mlbdp", "mba"}
        assert set(algos["mlbdp"]) == {"wall_ms", "wall_ms_runs", "pairs_found", "unproven"}
        assert set(algos["mba"]) == {"wall_ms", "wall_ms_runs", "pairs_found"}
        for algo in algos.values():
            # every run's wall time, in run order; wall_ms is the best
            runs = algo["wall_ms_runs"]
            assert len(runs) == out["settings"]["best_of"] and min(runs) == algo["wall_ms"]
        # mlbdp answers every pair that has one; MBA can miss some
        assert algos["mlbdp"]["pairs_found"] >= algos["mba"]["pairs_found"] > 0
    assert out["solve_ms"] > 0


def test_two_roots_give_a_parent_and_a_change_record():
    # this checkout twice: every repetition runs once per root, alternated
    argv = ["--root", str(ROOT), "--root", str(ROOT), "--seconds", "0", "--best-of", "2",
            "--workloads", "wide-sweep", "--seeds", "4242", "--gens", "6,8", "--probe", "8,12"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out) == {"parent", "change"}
    for rec in out.values():
        assert set(rec) == {"settings", "machine", "perfbench", "layers", "bench", "scale_probe", "solve_ms"}
        assert set(rec["perfbench"]["wide-sweep"]["4242"]) == {"setup_s", "mlbdp.pairs_per_s", "mba.pairs_per_s",
                                                               "peak_rss_mb"}
        assert rec["layers"]["wide-sweep"]["4242"]["mba.calls"] > 0
        for section, graph in (("bench", "gen-6-8"), ("scale_probe", "gen-8-12")):
            for algo in rec[section][graph].values():
                assert len(algo["wall_ms_runs"]) == 2 and min(algo["wall_ms_runs"]) == algo["wall_ms"]
        assert rec["solve_ms"] > 0
    # the same checkout answers alike on both sides
    for section in ("bench", "scale_probe"):
        for graph, algos in out["parent"][section].items():
            for algo, got in algos.items():
                want = out["change"][section][graph][algo]
                assert got["pairs_found"] == want["pairs_found"] and got.get("unproven") == want.get("unproven")


def test_three_roots_refused():
    argv = ["--root", str(ROOT)] * 3
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--root" in proc.stderr


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_rounds_alternate_the_roots():
    tool = _tool()
    # the parent first on odd repetitions, second on even ones
    assert list(tool._rounds(2, 4)) == [0, 1, 1, 0, 0, 1, 1, 0]
    assert list(tool._rounds(1, 3)) == [0, 0, 0]


def test_layers_alternate_the_roots_and_keep_medians(monkeypatch):
    tool = _tool()
    calls = []

    def traced(root, workload, seed, seconds, trace):
        calls.append((root.name, workload, seed, seconds, trace))
        return {"mlbdp.full.self_s": len(calls), "mba.calls": 7}

    monkeypatch.setattr(tool, "_perfbench", traced)
    out = tool.layers([Path("parent"), Path("change")], "wide-sweep", 4242, 3)
    # three traced fixed passes per root, alternated as every other section's runs
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {c[1:] for c in calls} == {("wide-sweep", 4242, 0, 1)}
    # the parent ran 1st, 4th and 5th, the change 2nd, 3rd and 6th
    assert out == [{"mlbdp.full.self_s": 4, "mba.calls": 7}, {"mlbdp.full.self_s": 3, "mba.calls": 7}]
