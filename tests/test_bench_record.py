import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_record_keys_on_a_tiny_probe():
    # --seconds 0 runs perfbench's fixed pass only; the graphs are tiny
    argv = ["--seconds", "0", "--best-of", "1", "--workloads", "wide-sweep", "--seeds", "4242",
            "--gens", "6,8", "--probe", "8,12"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out) == {"settings", "machine", "perfbench", "bench", "scale_probe", "solve_ms"}
    assert set(out["machine"]) == {"cpus", "python", "commit"}
    metrics = out["perfbench"]["wide-sweep"]["4242"]
    assert set(metrics) == {"setup_s", "mlbdp.pairs_per_s", "mba.pairs_per_s", "peak_rss_mb"}
    assert all(v > 0 for v in metrics.values())
    for section, graph in (("bench", "gen-6-8"), ("scale_probe", "gen-8-12")):
        algos = out[section][graph]
        assert set(algos) == {"mlbdp", "mba"}
        assert set(algos["mlbdp"]) == {"wall_ms", "pairs_found", "unproven"}
        assert set(algos["mba"]) == {"wall_ms", "pairs_found"}
        # mlbdp answers every pair that has one; MBA can miss some
        assert algos["mlbdp"]["pairs_found"] >= algos["mba"]["pairs_found"] > 0
    assert out["solve_ms"] > 0
