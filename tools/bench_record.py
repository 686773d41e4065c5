"""Record one checkout's benchmark numbers as JSON, for a BENCH_<pr>.json file.

    python3 tools/bench_record.py --root . --seconds 25 --best-of 3 > record.json

Every number comes from a fresh process run against ROOT's own sources
(``ROOT/src``, ``ROOT/perfbench``), so the script can measure any
checkout, the one it lives in or another. It records:

- ``perfbench``: the end-to-end metrics of ``perfbench/run.py --trace 0``
  per workload and seed, each the best of k runs;
- ``bench``: all-pairs ``widestpair bench --sweep 5000 --algos mlbdp,mba``
  per generated graph: each algorithm's wall time (best of k), pairs
  found and answers left unproven;
- ``scale_probe``: the same for the 100-node graph;
- ``solve_ms``: ``widestpair solve`` on the five-node example 0 -> 3, the
  whole process, best of k;
- ``machine``: CPU count, Python version and the checkout's commit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("wide-sweep", "dense-narrow", "desk-oracle", "bench-report")
# perfbench's end-to-end metrics, and whether a higher value is better
END_TO_END = {"setup_s": False, "mlbdp.pairs_per_s": True, "mba.pairs_per_s": True, "peak_rss_mb": False}
ALGOS = ("mlbdp", "mba")


def _run(root: Path, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True, check=True)
    return proc, time.perf_counter() - t0


def perfbench(root: Path, workload: str, seed: int, seconds: float, k: int) -> dict[str, float]:
    """Best of k ``--trace 0`` runs per end-to-end metric."""
    best: dict[str, float] = {}
    for _ in range(k):
        proc, _ = _run(root, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"])
        out = json.loads(proc.stdout.splitlines()[-1])
        if not out["correct"] or out["failed"]:
            raise RuntimeError(f"perfbench {workload} seed {seed}: correct {out['correct']}, failed {out['failed']}")
        for name, higher in END_TO_END.items():
            v = out["metrics"][name]["value"]
            if name not in best or (v > best[name] if higher else v < best[name]):
                best[name] = v
    return best


def bench(root: Path, gen: str, k: int) -> dict[str, dict[str, float]]:
    """All-pairs ``bench --gen gen --sweep 5000 --algos mlbdp,mba``: per
    algorithm the best wall time of k runs, pairs found and unproven answers."""
    out: dict[str, dict[str, float]] = {}
    for _ in range(k):
        proc, _ = _run(root, ["-m", "widestpair", "bench", "--gen", gen, "--sweep", "5000",
                              "--algos", ",".join(ALGOS)])
        note = re.search(r"note: (\d+) mlbdp answers", proc.stderr)
        table = "".join(line for line in io.StringIO(proc.stdout) if not line.startswith("#"))
        for row in csv.DictReader(io.StringIO(table)):
            ms = float(row["wall_time_ms"])
            prev = out.get(row["algo"], {}).get("wall_ms", ms)
            out[row["algo"]] = {"wall_ms": min(ms, prev), "pairs_found": int(row["pairs_found"])}
        out["mlbdp"]["unproven"] = int(note.group(1)) if note else 0
    return out


def solve_ms(root: Path, k: int) -> float:
    """Best of k wall times of one ``solve`` process on the five-node example."""
    times = []
    for _ in range(k):
        proc, dt = _run(root, ["-m", "widestpair", "solve", "--topology", "topologies/five_node.topo",
                               "--source", "0", "--dest", "3"])
        if "combined: 19" not in proc.stdout.splitlines():
            raise RuntimeError(f"solve on the five-node example printed {proc.stdout!r}")
        times.append(dt * 1000)
    return min(times)


def machine(root: Path) -> dict[str, object]:
    git = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=12"],
                         capture_output=True, text=True)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git.stdout.strip() if git.returncode == 0 else None,
    }


def record(args: argparse.Namespace) -> dict[str, object]:
    root = args.root.resolve()
    return {
        "settings": {"seconds": args.seconds, "best_of": args.best_of},
        "machine": machine(root),
        "perfbench": {
            w: {str(seed): perfbench(root, w, seed, args.seconds, args.best_of) for seed in args.seeds}
            for w in args.workloads
        },
        "bench": {f"gen-{g.replace(',', '-')}": bench(root, g, args.best_of) for g in args.gens},
        "scale_probe": {f"gen-{args.probe.replace(',', '-')}": bench(root, args.probe, args.best_of)},
        "solve_ms": solve_ms(root, args.best_of),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="checkout to measure (default: the one holding this script)")
    p.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds per run")
    p.add_argument("--best-of", type=int, default=3)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[4242, 7919])
    p.add_argument("--gens", nargs="+", default=["35,45", "50,100"], help="bench --gen graphs")
    p.add_argument("--probe", default="100,200", help="bench --gen graph of the scale probe")
    return p.parse_args(argv)


if __name__ == "__main__":
    print(json.dumps(record(parse_args()), indent=2))
