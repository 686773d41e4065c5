"""The widestpair benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload wide-sweep --seed 4242 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the run measures end-to-end metrics
for ``--seconds`` seconds; with ``--trace 1`` it runs the workload's fixed
pass untraced and then traced, checks both answer alike, and reports the
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

from spans import median, nearest_rank, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wide-sweep", "dense-narrow", "desk-oracle", "bench-report")
DEFAULT_SEED = 4242
HELD_OUT_SEED = 7919  # later claims must hold on this seed too

# metrics every workload reports; BENCHMARK.json lists exactly these
END_TO_END = (
    ("setup_s", "s"),
    ("mlbdp.pairs_per_s", "pairs/s"),
    ("mba.pairs_per_s", "pairs/s"),
    ("peak_rss_mb", "MB"),
)
# printed where they apply to the workload; not every workload has them
WORKLOAD_METRICS = (
    ("mlbdp.source_ms_p50", "ms"),
    ("mlbdp.source_ms_tail", "ms"),
    ("mba.query_ms_p50", "ms"),
    ("mba.query_ms_tail", "ms"),
    ("oracle.pairs_per_s", "pairs/s"),
    ("oracle.query_ms_tail", "ms"),
    ("report_s", "s"),
    ("mlbdp.combined_sum", "bandwidth"),
    ("mba.combined_sum", "bandwidth"),
    ("mlbdp.optimal_share", "share"),
    ("mba.optimal_share", "share"),
    ("failed_share", "share"),
)


class MissingProgram(RuntimeError):
    pass


def load_package(root: Path = ROOT):
    """Import widestpair from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "widestpair" / "__init__.py").is_file():
        raise MissingProgram(f"no widestpair package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("widestpair")
    if Path(pkg.__file__).resolve().parent != (src / "widestpair").resolve():
        raise MissingProgram(f"widestpair imported from {pkg.__file__}, not {src}")
    for sub in ("graph", "widest", "mlbdp", "mba", "exact", "bench", "cli"):
        importlib.import_module(f"widestpair.{sub}")
    return pkg


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(workload, tally, setup_s: float) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics of an untraced run by name, and notes on how they were taken."""
    out: dict[str, float] = {"setup_s": setup_s}
    notes = []
    for kind in ("mlbdp", "mba", "oracle"):
        if kind in tally.seconds:
            seconds = tally.seconds[kind]
            out[f"{kind}.pairs_per_s"] = tally.queries[kind] / sum(seconds)
            notes.append(f"{kind}: {tally.queries[kind]} pairs in {len(seconds)} calls, "
                         f"{tally.queries[kind] / tally.raw_s[kind]:.6g} pairs/s raw")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "report" in tally.seconds:
        out["report_s"] = median(tally.seconds["report"])
        notes.append(f"report_s is the median of {len(tally.seconds['report'])} commands")
    elif tally.seconds:
        for kind, p50, tail in (
            ("mlbdp", "mlbdp.source_ms_p50", "mlbdp.source_ms_tail"),
            ("mba", "mba.query_ms_p50", "mba.query_ms_tail"),
            ("oracle", None, "oracle.query_ms_tail"),
        ):
            samples = [t * 1000.0 for t in tally.seconds.get(kind, ())]
            if not samples:
                continue
            if p50:
                out[p50] = median(samples)
            pct = tail_percentile(len(samples))
            if pct is None:
                notes.append(f"{tail} omitted: {len(samples)} samples leave fewer than 10 beyond p75")
            else:
                out[tail] = nearest_rank(samples, pct)
                notes.append(f"{tail} is p{pct:g} of {len(samples)} samples")
        for kind in ("mlbdp", "mba"):
            out[f"{kind}.combined_sum"] = tally.combined.get(kind, 0)
            if tally.feasible:
                out[f"{kind}.optimal_share"] = tally.optimal.get(kind, 0) / tally.feasible
        notes.append(f"quality over the fixed pass of {workload.pass_units} sources"
                     + (f", {tally.feasible} feasible queries held against the oracle" if tally.feasible else ""))
    out["failed_share"] = tally.failed / max(tally.attempted, 1)
    return out, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except (MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads

    workload = workloads.make(args.workload, args.seed, ROOT)
    print(
        f"# workload {args.workload} seed {args.seed} (held-out seed {HELD_OUT_SEED}) trace {args.trace};"
        f" closed loop, 1 caller; cpus {os.cpu_count()}; python {platform.python_version()}"
    )
    if args.trace == 0:
        setup_s, setup_raw = workload.setup_seconds()
        tally = workload.run(args.seconds)
        values, notes = end_to_end(workload, tally, setup_s)
        notes.insert(0, f"setup_s raw {setup_raw:.6g} s")
        # a metric the run could not measure (every call failed) reads 0 beside "correct": false
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in END_TO_END}
        for name, unit in END_TO_END + WORKLOAD_METRICS:
            if name in values:
                print(f"{name} {values[name]:.6g} {unit}")
        errors = tally.errors
        attempted, failed = tally.attempted, tally.failed
        correct = failed == 0 and all(name in values for name, _ in END_TO_END)
    else:
        plain, traced, tracer = layers.traced_pass(workload)
        # one digest per unit on each side; a unit that differs fails all its queries
        mismatched = sum(traced.digests.get(key, (0, 0))[1] for key in plain.digests.keys() | traced.digests.keys()
                         if plain.digests.get(key) != traced.digests.get(key))
        extra = {
            "trace.overhead_share": workload.busy(traced) / workload.busy(plain) - 1.0 if workload.busy(plain) else 0.0,
            "bench.cpu_per_wall": traced.cpu_s / traced.raw_s["report"] if traced.cpu_s else 0.0,
        }
        values = layers.compute(tracer.spans, extra)
        tracer.write(ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {}
        for name, unit, _better, moves, on in layers.PER_LAYER:
            metrics[name] = (values[name], unit)
            print(f"{name} {values[name]:.6g} {unit}  # moves {moves}; shows on {on}")
        notes = [f"fixed pass of {workload.pass_units} units, {len(tracer.spans)} spans; "
                 f"{mismatched} queries answer differently traced and untraced"]
        errors = plain.errors + traced.errors
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed + mismatched
        correct = failed == 0
    for note in notes:
        print(f"# {note}")
    for message in errors:
        print(f"# failure: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
