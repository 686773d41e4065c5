"""Benchmark harness: all ordered pairs, bandwidth sweeps, CSV reports.

Every algorithm is one entry of SOLVERS: fn(g, s, dests) answers only
the destinations in dests, and returns {d: graph.DisjointResult} for
those that have a pair. upper_bound is mlbdp_full's certificate, the
combined bandwidth itself for the oracle, and None for MBA, which proves
nothing. The oracle stops at exact.PATH_CAP simple paths per query. The
CLI answers one query with one call; the benchmark times one call per
source.

For each maximum-bandwidth value in the sweep, link capacities are
redrawn with the configured seed and every selected algorithm runs over
all ordered (source, dest) pairs. Reported per algorithm: pairs found,
summed wall time, and (when the oracle runs) the total and average
combined-bandwidth shortfall against the oracle. A pair the oracle finds
and a heuristic misses counts at the oracle's full combined bandwidth.
The report also counts the answers left unproven (combined below their
upper bound); those are lower bounds, not optima.
"""

from __future__ import annotations

import csv
import io
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .exact import optimal_pair_bruteforce
from .graph import _QUOTE_CHARS, DisjointResult, Graph, _quote, _quote_int, assign_random_bandwidths
from .mba import mba_pair
from .mlbdp import mlbdp_full

DEFAULT_SWEEP = (10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
CSV_COLUMNS = ("max_bw", "algo", "pairs_found", "wall_time_ms", "diff_total", "diff_avg")
PLOT_METRICS = ("pairs_found", "wall_time_ms", "diff_total", "diff_avg")


Answers = dict[int, DisjointResult]


# The solvers look mlbdp_full, mba_pair and optimal_pair_bruteforce up
# as module globals at call time, so rebinding them here (as a tracer
# does) reaches every caller of the table.
def _mlbdp(g: Graph, s: int, dests: Iterable[int]) -> Answers:
    return mlbdp_full(g, s, dests)


def _mba(g: Graph, s: int, dests: Iterable[int]) -> Answers:
    out = {}
    for d in dests:
        pair = mba_pair(g, s, d)
        if pair is not None:
            out[d] = DisjointResult(pair, None)
    return out


def _oracle(g: Graph, s: int, dests: Iterable[int]) -> Answers:
    out = {}
    for d in dests:
        res = optimal_pair_bruteforce(g, s, d)
        if res is not None:
            out[d] = res
    return out


SOLVERS = {"mlbdp": _mlbdp, "mba": _mba, "oracle": _oracle}
ALGORITHMS = tuple(SOLVERS)


@dataclass
class RunConfig:
    """One benchmark request.

    sweep None means the graph's own bandwidths are used unchanged (one
    report row labeled "fixed").
    """

    graph: Graph
    label: str = "topology"
    sweep: tuple[int, ...] | None = DEFAULT_SWEEP
    seed: int = 1
    algos: tuple[str, ...] = ALGORITHMS

    def __post_init__(self) -> None:
        for a in self.algos:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {_quote(a)}; choose from {ALGORITHMS}")
        if not self.algos:
            raise ValueError("no algorithms selected")
        _reject_repeats("algorithm", self.algos, repr, "names")
        if self.sweep is not None:
            if not self.sweep:
                raise ValueError("empty sweep")
            for v in self.sweep:
                if v < 1:
                    raise ValueError(f"sweep values must be >= 1, got {_quote_int(v)}")
            _reject_repeats("sweep value", self.sweep, _quote_int, "values")


def _reject_repeats(what: str, values: tuple, show: Callable[..., str], unit: str) -> None:
    """ValueError naming values, cut after _QUOTE_CHARS characters, if one repeats."""
    if len(set(values)) != len(values):
        text = f"({', '.join(map(show, values))})"
        if len(text) > _QUOTE_CHARS:
            text = f"{text[:_QUOTE_CHARS]}... ({len(values)} {unit})"
        raise ValueError(f"duplicate {what} in {text}")


@dataclass
class AlgoRow:
    algo: str
    pairs_found: int
    wall_time_ms: float
    diff_total: int | None = None
    diff_avg: float | None = None
    unproven: int = 0  # answers below their upper bound


@dataclass
class SweepRow:
    max_bw: int | None  # None: bandwidths taken from the input as-is
    algos: list[AlgoRow]


@dataclass
class BenchmarkReport:
    seed: int
    label: str
    rows: list[SweepRow] = field(default_factory=list)


def _run_row(cfg: RunConfig, g: Graph, max_bw: int | None) -> SweepRow:
    combined: dict[str, dict[tuple[int, int], int]] = {}
    times: dict[str, float] = {}
    unproven: dict[str, int] = {}
    for algo in cfg.algos:
        solve = SOLVERS[algo]
        found: dict[tuple[int, int], int] = {}
        elapsed = 0.0
        unproven[algo] = 0
        for s in range(g.n):
            dests = [d for d in range(g.n) if d != s]
            t0 = time.perf_counter()
            res = solve(g, s, dests)
            elapsed += time.perf_counter() - t0
            for d, (pair, upper_bound) in res.items():
                found[(s, d)] = pair.combined
                unproven[algo] += upper_bound is not None and upper_bound > pair.combined
        combined[algo] = found
        times[algo] = elapsed * 1000.0

    # the oracle is exact, so no heuristic may ever beat it; the two
    # heuristics are not ordered against each other in general
    oracle = combined.get("oracle")
    if oracle is not None:
        for algo in cfg.algos:
            if algo == "oracle":
                continue
            for key, val in combined[algo].items():
                if key not in oracle or oracle[key] < val:
                    raise RuntimeError(f"{algo} beat the oracle at {key}: {val} > {oracle.get(key)}")

    rows = []
    for algo in cfg.algos:
        diff_total = diff_avg = None
        if oracle is not None and algo != "oracle":
            found = combined[algo]
            diff_total = sum(oc - found.get(key, 0) for key, oc in oracle.items())
            diff_avg = diff_total / len(oracle) if oracle else 0.0
        rows.append(AlgoRow(algo, len(combined[algo]), times[algo], diff_total, diff_avg, unproven[algo]))
    return SweepRow(max_bw, rows)


def run_benchmark(cfg: RunConfig) -> BenchmarkReport:
    """Run every selected algorithm over all ordered pairs per sweep value.

    Deterministic apart from the wall-time fields.
    """
    report = BenchmarkReport(cfg.seed, cfg.label)
    values: list[int | None] = list(cfg.sweep) if cfg.sweep is not None else [None]
    for max_bw in values:
        g = cfg.graph if max_bw is None else assign_random_bandwidths(cfg.graph, max_bw, cfg.seed)
        report.rows.append(_run_row(cfg, g, max_bw))
    return report


def render_report_csv(report: BenchmarkReport) -> str:
    """CSV text: two '#' header lines, column header, one row per
    (sweep value, algorithm). diff cells are empty without an oracle.
    miss_policy=full names the only miss rule, as older reports did."""
    buf = io.StringIO()
    buf.write(f"# seed={report.seed} topology={report.label} miss_policy=full\n")
    buf.write(
        "# miss_policy full: a pair the oracle finds but a heuristic misses adds "
        "the full oracle combined bandwidth to diff_total\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        bw_txt = "fixed" if row.max_bw is None else row.max_bw
        for a in row.algos:
            writer.writerow(
                [
                    bw_txt,
                    a.algo,
                    a.pairs_found,
                    f"{a.wall_time_ms:.3f}",
                    "" if a.diff_total is None else a.diff_total,
                    "" if a.diff_avg is None else f"{a.diff_avg:.4f}",
                ]
            )
    return buf.getvalue()


def write_report_csv(report: BenchmarkReport, path: str | Path) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_report_csv(report))
    return out


def write_plot_data(report: BenchmarkReport, out_dir: str | Path) -> list[Path]:
    """One x/y series file per metric: column 1 is max_bw, then one
    column per algorithm (nan where a value is absent)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    algos = [a.algo for a in report.rows[0].algos] if report.rows else []
    paths = []
    for metric in PLOT_METRICS:
        lines = ["# max_bw " + " ".join(algos)]
        for row in report.rows:
            cells = ["fixed" if row.max_bw is None else str(row.max_bw)]
            for a in row.algos:
                val = getattr(a, metric)
                if val is None:
                    cells.append("nan")
                elif isinstance(val, float):
                    cells.append(f"{val:.4f}")
                else:
                    cells.append(str(val))
            lines.append(" ".join(cells))
        p = out / f"{metric}.dat"
        p.write_text("\n".join(lines) + "\n")
        paths.append(p)
    return paths
