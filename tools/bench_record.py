"""Record one checkout's benchmark numbers as JSON, for a BENCH_<pr>.json file.

    python3 tools/bench_record.py --root . --seconds 25 --best-of 3 > record.json
    python3 tools/bench_record.py --root PARENT --root CHANGE --seconds 25 --best-of 3 > record.json

Every number comes from a fresh process run against ROOT's own sources
(``ROOT/src``, ``ROOT/perfbench``), so the script can measure any
checkout, the one it lives in or another. Given two roots, it runs every
repetition of every measurement once per root, the parent first on odd
repetitions and second on even ones, so that drift over the session falls
on both alike, and writes ``{"parent": record, "change": record}``. A
record holds:

- ``perfbench``: the end-to-end metrics of ``perfbench/run.py --trace 0``
  per workload and seed, each the best of k runs;
- ``layers``: every metric of ``perfbench/run.py --seconds 0 --trace 1``
  (the workload's fixed pass, traced) per workload, at the first seed,
  each the median of k runs;
- ``bench``: all-pairs ``widestpair bench --sweep 5000 --algos mlbdp,mba``
  per generated graph: each algorithm's wall time (best of k, and every
  run's in run order), pairs found and answers left unproven;
- ``scale_probe``: the same for the 100-node graph;
- ``solve_ms``: ``widestpair solve`` on the five-node example 0 -> 3, the
  whole process, best of k;
- ``machine``: CPU count, Python version and the checkout's commit.

The workloads and the end-to-end metrics, with the direction in which each
is better, come from the ``BENCHMARK.json`` of the checkout holding this
script.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path

ALGOS = ("mlbdp", "mba")
CHECKOUT = Path(__file__).resolve().parent.parent  # the one holding this script


def _benchmark() -> dict:
    """The benchmark's declaration, this checkout's BENCHMARK.json."""
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _run(root: Path, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True, check=True)
    return proc, time.perf_counter() - t0


def _rounds(count: int, k: int) -> Iterator[int]:
    """Root indexes in run order: k repetitions, each once per root, the
    first root first on odd repetitions and last on even ones."""
    for rep in range(k):
        yield from (range(count) if rep % 2 == 0 else reversed(range(count)))


def _perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict[str, float]:
    """The metrics of one ``perfbench/run.py`` run; refuses a run that is not correct or had failures."""
    proc, _ = _run(root, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)])
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise RuntimeError(f"perfbench {workload} seed {seed} trace {trace}: "
                           f"correct {out['correct']}, failed {out['failed']}")
    return {name: m["value"] for name, m in out["metrics"].items()}


def perfbench(roots: list[Path], workload: str, seed: int, seconds: float, k: int,
              higher: dict[str, bool]) -> list[dict[str, float]]:
    """Per root, the best of k ``--trace 0`` runs per end-to-end metric;
    higher maps each metric's name to whether a higher value is better."""
    bests: list[dict[str, float]] = [{} for _ in roots]
    for i in _rounds(len(roots), k):
        metrics, best = _perfbench(roots[i], workload, seed, seconds, 0), bests[i]
        for name, up in higher.items():
            v = metrics[name]
            if name not in best or (v > best[name] if up else v < best[name]):
                best[name] = v
    return bests


def layers(roots: list[Path], workload: str, seed: int, k: int) -> list[dict[str, float]]:
    """Per root, the median of k traced ``--seconds 0`` runs per metric."""
    runs: list[list[dict[str, float]]] = [[] for _ in roots]
    for i in _rounds(len(roots), k):
        runs[i].append(_perfbench(roots[i], workload, seed, 0, 1))
    return [{name: statistics.median(run[name] for run in rs) for name in rs[0]} for rs in runs]


def bench(roots: list[Path], gen: str, k: int) -> list[dict[str, dict[str, object]]]:
    """Per root, all-pairs ``bench --gen gen --sweep 5000 --algos mlbdp,mba``:
    per algorithm the best wall time of k runs, every run's wall time in run
    order, pairs found and unproven answers."""
    outs: list[dict[str, dict[str, object]]] = [{} for _ in roots]
    for i in _rounds(len(roots), k):
        proc, _ = _run(roots[i], ["-m", "widestpair", "bench", "--gen", gen, "--sweep", "5000",
                                  "--algos", ",".join(ALGOS)])
        out = outs[i]
        note = re.search(r"note: (\d+) mlbdp answers", proc.stderr)
        table = "".join(line for line in io.StringIO(proc.stdout) if not line.startswith("#"))
        for row in csv.DictReader(io.StringIO(table)):
            runs = out.get(row["algo"], {}).get("wall_ms_runs", []) + [float(row["wall_time_ms"])]
            out[row["algo"]] = {"wall_ms": min(runs), "wall_ms_runs": runs, "pairs_found": int(row["pairs_found"])}
        out["mlbdp"]["unproven"] = int(note.group(1)) if note else 0
    return outs


def solve_ms(roots: list[Path], k: int) -> list[float]:
    """Per root, the best of k wall times of one ``solve`` process on the five-node example."""
    times: list[list[float]] = [[] for _ in roots]
    for i in _rounds(len(roots), k):
        proc, dt = _run(roots[i], ["-m", "widestpair", "solve", "--topology", "topologies/five_node.topo",
                                   "--source", "0", "--dest", "3"])
        if "combined: 19" not in proc.stdout.splitlines():
            raise RuntimeError(f"solve on the five-node example printed {proc.stdout!r}")
        times[i].append(dt * 1000)
    return [min(t) for t in times]


def machine(root: Path) -> dict[str, object]:
    git = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=12"],
                         capture_output=True, text=True)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git.stdout.strip() if git.returncode == 0 else None,
    }


def _pick(tree, i: int):
    """Root i's share of a tree of dicts whose leaves are per-root lists."""
    return {key: _pick(sub, i) for key, sub in tree.items()} if isinstance(tree, dict) else tree[i]


def record(args: argparse.Namespace) -> dict[str, object]:
    roots = [root.resolve() for root in args.root]
    higher = {m["name"]: m["better"] == "higher" for m in _benchmark()["end_to_end"]}
    k, first = args.best_of, args.seeds[0]
    sections = {
        "perfbench": {
            w: {str(seed): perfbench(roots, w, seed, args.seconds, k, higher) for seed in args.seeds}
            for w in args.workloads
        },
        "layers": {w: {str(first): layers(roots, w, first, k)} for w in args.workloads},
        "bench": {f"gen-{g.replace(',', '-')}": bench(roots, g, k) for g in args.gens},
        "scale_probe": {f"gen-{args.probe.replace(',', '-')}": bench(roots, args.probe, k)},
        "solve_ms": solve_ms(roots, k),
    }
    records = [{"settings": {"seconds": args.seconds, "best_of": k}, "machine": machine(root), **_pick(sections, i)}
               for i, root in enumerate(roots)]
    return records[0] if len(records) == 1 else {"parent": records[0], "change": records[1]}


def parse_args(argv=None) -> argparse.Namespace:
    workloads = [w["name"] for w in _benchmark()["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, action="append",
                   help="checkout to measure (default: the one holding this script); "
                        "give it twice, parent then change, to alternate the two run by run")
    p.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds per run")
    p.add_argument("--best-of", type=int, default=3)
    p.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    p.add_argument("--seeds", nargs="+", type=int, default=[4242, 7919])
    p.add_argument("--gens", nargs="+", default=["35,45", "50,100"], help="bench --gen graphs")
    p.add_argument("--probe", default="100,200", help="bench --gen graph of the scale probe")
    args = p.parse_args(argv)
    args.root = args.root or [CHECKOUT]
    if len(args.root) > 2:
        p.error("give --root once, or twice as --root PARENT --root CHANGE")
    return args


if __name__ == "__main__":
    print(json.dumps(record(parse_args()), indent=2))
