"""Workload inputs and closed-loop runs over widestpair's public functions.

One caller and no threads: each call starts only after the previous one
returned. Inputs come from the run seed through the package's own graph
generators and reach the program only as topology text. Every answer is
checked after its timed call, outside the timed region.

Work runs in units (one source of one graph, or one ``bench`` command).
A run always completes the workload's fixed pass, its first
``pass_units`` units, and quality figures cover exactly that pass, so
they do not depend on how fast the program is. The traced run repeats
the same fixed pass.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import os
import random
import tempfile
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import widestpair as wp
import widestpair.cli as cli

from refclock import RefClock
from spans import median

clock = time.perf_counter

SETUP_REPEATS = 15
SEGMENT_S = 0.25  # work between two reference-clock samples


@dataclass(frozen=True)
class Shape:
    """A per-call workload: graphs to draw and which nodes are sources.

    ``nodes`` is an inclusive range; ``links`` is per node. With
    ``all_sources`` every node of a graph is a source, else one per graph.
    """

    name: str
    graphs: int
    nodes: tuple[int, int]
    links: float
    max_bw: int
    all_sources: bool
    oracle: bool
    pass_units: int


SHAPES = {
    "wide-sweep": Shape("wide-sweep", 64, (50, 50), 2.0, 5000, False, False, 8),
    "dense-narrow": Shape("dense-narrow", 256, (50, 50), 4.0, 10, False, False, 32),
    "desk-oracle": Shape("desk-oracle", 240, (10, 16), 1.6, 50, True, True, 400),
}
R2 = (1 / 1.324717957244746, 1 / 1.324717957244746**2)  # steps of the R2 sequence
GOLDEN = 0.6180339887498949

# bench-report: one `widestpair bench` command per unit
REPORT_GEN = (35, 45)
REPORT_SWEEP = (5, 10)
REPORT_ALGOS = ("mlbdp", "mba")
REPORT_SEEDS = 40
REPORT_CANDIDATES = 5
REPORT_PASS_UNITS = 3


@dataclass
class Case:
    text: str
    graph: Any = None


@dataclass
class Tally:
    """What a run did: call times, answer digests, failures, quality.

    ``seconds[kind]`` holds one entry per timed call, raw until the segment
    it belongs to ends and on the reference clock after; ``raw_s`` keeps
    the unscaled total. Answers are kept as one digest per unit, so the
    benchmark's own memory does not grow with the answers it checks.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    seconds: dict[str, array] = field(default_factory=dict)
    queries: dict[str, int] = field(default_factory=dict)
    raw_s: dict[str, float] = field(default_factory=dict)
    digests: dict[int, tuple[int, int]] = field(default_factory=dict)  # unit -> (answers hash, queries)
    combined: dict[str, int] = field(default_factory=dict)
    optimal: dict[str, int] = field(default_factory=dict)
    feasible: int = 0
    cpu_s: float = 0.0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def timed(self, kind: str, seconds: float, queries: int) -> None:
        self.seconds.setdefault(kind, array("d")).append(seconds)
        self.queries[kind] = self.queries.get(kind, 0) + queries
        self.raw_s[kind] = self.raw_s.get(kind, 0.0) + seconds

    def marks(self) -> dict[str, int]:
        return {kind: len(values) for kind, values in self.seconds.items()}

    def rescale(self, marks: dict[str, int], factor: float) -> None:
        """Put every call timed since marks on the reference clock."""
        for kind, values in self.seconds.items():
            for i in range(marks.get(kind, 0), len(values)):
                values[i] *= factor

    def digest(self, index: int, answers: list, queries: int) -> bool:
        """Record unit index's answers; True the first time the unit runs.

        A repeated unit must answer exactly as before, else its queries fail.
        """
        value = (hash(tuple(answers)), queries)
        if index not in self.digests:
            self.digests[index] = value
            return True
        if self.digests[index] != value:
            self.fail(f"unit {index} answered differently on repeat", queries)
        return False


class Workload:
    """Inputs for one workload and seed, set up and run as units."""

    name: str
    busy_kinds: tuple[str, ...] = ("mlbdp", "mba", "oracle")
    pass_units: int

    def __init__(self):
        self.cases: list[Case] = []
        self.units: list[Any] = []
        self.tracer = None  # a Tracer whose query id follows the calls

    def query(self, *ids) -> None:
        if self.tracer is not None:
            self.tracer.query = (self.name,) + ids

    def setup(self) -> float:
        """Parse every topology text and build its adjacency; the raw wall time."""
        t0 = clock()
        for case in self.cases:
            case.graph = wp.parse_topology(case.text)
            case.graph.adjacency()
        return clock() - t0

    def setup_seconds(self, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
        """Median set-up time over repeats, on the reference clock and raw."""
        ref = RefClock()
        gc.collect()
        raw = []
        scaled = []
        for _ in range(repeats):
            raw.append(self.setup())
            scaled.append(raw[-1] * ref.factor())
        return median(scaled), median(raw)

    def run_unit(self, index: int, tally: Tally) -> None:
        raise NotImplementedError

    def probe_targets(self) -> list[tuple[Any, int]]:
        """(graph, source) pairs of the fixed pass, for the widest-tree probe."""
        raise NotImplementedError

    def busy(self, tally: Tally) -> float:
        """Seconds the program spent answering, on the reference clock."""
        return sum(sum(tally.seconds.get(kind, ())) for kind in self.busy_kinds)

    def run(self, seconds: float) -> Tally:
        """The fixed pass, then a closed loop over the units, wrapping around, until seconds pass.

        Units run in segments of about SEGMENT_S; each segment's call times
        are put on the reference clock when it ends.
        """
        tally = Tally()
        ref = RefClock()
        gc.collect()
        deadline = clock() + seconds
        units = itertools.cycle(range(len(self.units)))
        done = 0

        def more():
            return done < self.pass_units or clock() < deadline

        while more():
            marks = tally.marks()
            begin = clock()
            while more() and clock() - begin < SEGMENT_S:
                self.run_unit(next(units), tally)
                done += 1
            tally.rescale(marks, ref.factor())
        return tally


def _draw(n: int, m: int, max_bw: int, rng: random.Random):
    g = wp.generate_random_graph(n, m, rng.getrandbits(32))
    return wp.assign_random_bandwidths(g, max_bw, rng.getrandbits(32))


def stratified_source(g, k: int) -> int:
    """The source for the k-th graph: the node nearest the k-th point of a 2-D quasi-random sequence.

    A limit sweep costs more the wider a source's second-widest link. MBA
    costs most at a pendant source, whose second path fails at every
    threshold, and otherwise more the wider the source's narrowest link.
    With one random source per graph a run's cost would swing with those
    draws; placing each node at its two cost ranks in [0, 1)^2 and walking
    the R2 sequence (Roberts 2018) spreads the sources of a run evenly over
    both.
    """
    adj = g.adjacency()
    n = g.n
    widths = [sorted(bw for _, bw in adj[v]) for v in range(n)]
    sweep_cost = sorted(range(n), key=lambda v: (widths[v][-2] if len(widths[v]) > 1 else 0, len(widths[v]), v))
    mba_cost = sorted(range(n), key=lambda v: (len(widths[v]) == 1, widths[v][0], len(widths[v]), v))
    rank_a = {v: (i + 0.5) / n for i, v in enumerate(sweep_cost)}
    rank_b = {v: (i + 0.5) / n for i, v in enumerate(mba_cost)}
    ta = (0.5 + k * R2[0]) % 1.0
    tb = (0.5 + k * R2[1]) % 1.0
    return min(range(n), key=lambda v: ((rank_a[v] - ta) ** 2 + (rank_b[v] - tb) ** 2, v))


def two_core_size(g) -> int:
    """Nodes left after repeatedly removing nodes of degree below 2."""
    adj = g.adjacency()
    degree = [len(a) for a in adj]
    stack = [v for v in range(g.n) if degree[v] < 2]
    removed = set(stack)
    while stack:
        v = stack.pop()
        for u, _ in adj[v]:
            degree[u] -= 1
            if degree[u] < 2 and u not in removed:
                removed.add(u)
                stack.append(u)
    return g.n - len(removed)


def check_pair(g, s: int, d: int, pair, combined: int) -> str | None:
    """Why an answer is wrong, or None when it is a valid s-d pair."""
    try:
        wp.validate_pair(g, pair)
    except ValueError as exc:
        return f"invalid pair: {exc}"
    if pair.red[0] != s or pair.red[-1] != d:
        return f"pair runs {pair.red[0]}-{pair.red[-1]}, asked {s}-{d}"
    if combined != pair.red_bw + pair.blue_bw:
        return f"combined {combined} != {pair.red_bw} + {pair.blue_bw}"
    return None


FAILED = "failed"


def _fingerprint(answer) -> Any:
    if answer is None or answer == FAILED:
        return answer
    pair, combined = answer
    return (pair.red, pair.blue, pair.red_bw, pair.blue_bw, combined)


class PairWorkload(Workload):
    """mlbdp_full per source, then mba_pair (and the oracle) per ordered pair."""

    def __init__(self, shape: Shape, seed: int):
        super().__init__()
        self.name = shape.name
        self.shape = shape
        rng = random.Random(f"{shape.name}:{seed}")
        for gi in range(shape.graphs):
            n = rng.randint(*shape.nodes)
            g = _draw(n, round(shape.links * n), shape.max_bw, rng)
            self.cases.append(Case(wp.serialize_topology(g)))
            if shape.all_sources:
                self.units.extend((gi, s) for s in range(n))
            else:
                self.units.append((gi, stratified_source(g, gi)))
        self.pass_units = min(shape.pass_units, len(self.units))

    def probe_targets(self) -> list[tuple[Any, int]]:
        return [(self.cases[gi].graph, s) for gi, s in self.units[: self.pass_units]]

    def run_unit(self, index: int, tally: Tally) -> None:
        gi, s = self.units[index]
        g = self.cases[gi].graph
        dests = [d for d in range(g.n) if d != s]
        answers: dict[str, dict[int, Any]] = {"mlbdp": {}, "mba": {}, "oracle": {}}
        self.query(gi, s, None)
        try:
            t0 = clock()
            full = wp.mlbdp_full(g, s)
            tally.timed("mlbdp", clock() - t0, len(dests))
            answers["mlbdp"] = {d: None if d not in full else (full[d].pair, full[d].combined) for d in dests}
            if not set(full) <= set(dests):
                tally.fail(f"mlbdp_full({gi}:{s}) answered unknown destinations", len(dests))
                answers["mlbdp"] = dict.fromkeys(dests, FAILED)
        except Exception as exc:  # a raising call is a failed query, the run goes on
            tally.fail(f"mlbdp_full({gi}:{s}) raised {exc!r}", len(dests))
            answers["mlbdp"] = dict.fromkeys(dests, FAILED)
        for d in dests:
            self.query(gi, s, d)
            try:
                t0 = clock()
                pair = wp.mba_pair(g, s, d)
                tally.timed("mba", clock() - t0, 1)
                answers["mba"][d] = None if pair is None else (pair, pair.combined)
            except Exception as exc:
                tally.fail(f"mba_pair({gi}:{s}-{d}) raised {exc!r}")
                answers["mba"][d] = FAILED
            if self.shape.oracle:
                try:
                    t0 = clock()
                    answers["oracle"][d] = wp.optimal_pair_bruteforce(g, s, d)
                    tally.timed("oracle", clock() - t0, 1)
                except Exception as exc:
                    tally.fail(f"oracle({gi}:{s}-{d}) raised {exc!r}")
                    answers["oracle"][d] = FAILED
        self._check(index, g, s, dests, answers, tally)

    def _check(self, index: int, g, s: int, dests: list[int], answers: dict, tally: Tally) -> None:
        """Validate every answer, hold it against the oracle, and count quality on the fixed pass."""
        gi = self.units[index][0]
        kinds = ["mlbdp", "mba"] + (["oracle"] if self.shape.oracle else [])
        tally.attempted += len(dests) * len(kinds)
        best: dict[int, int] = {}
        for d, res in answers["oracle"].items():
            why = None if res is None or res == FAILED else check_pair(g, s, d, *res)
            if why:
                tally.fail(f"oracle {gi}:{s}-{d}: {why}")
                answers["oracle"][d] = FAILED
            elif res is not None and res != FAILED:
                best[d] = res[1]
        for kind in ("mlbdp", "mba"):
            for d, ans in answers[kind].items():
                if ans is None or ans == FAILED:
                    continue
                if self.shape.oracle and answers["oracle"][d] == FAILED:
                    continue  # no ground truth for this query; the oracle's failure is counted
                why = check_pair(g, s, d, *ans)
                if why is None and self.shape.oracle and ans[1] > best.get(d, -1):
                    why = f"combined {ans[1]} beats the oracle's {best.get(d)}"
                if why:
                    tally.fail(f"{kind} {gi}:{s}-{d}: {why}")
                    answers[kind][d] = FAILED
        digest = [(kind, d, _fingerprint(a)) for kind in kinds for d, a in sorted(answers[kind].items())]
        if not tally.digest(index, digest, len(dests) * len(kinds)) or index >= self.pass_units:
            return
        tally.feasible += len(best)
        for kind in ("mlbdp", "mba"):
            for d, ans in answers[kind].items():
                if ans is not None and ans != FAILED:
                    tally.combined[kind] = tally.combined.get(kind, 0) + ans[1]
                    if best.get(d) == ans[1]:
                        tally.optimal[kind] = tally.optimal.get(kind, 0) + 1


class ReportWorkload(Workload):
    """`widestpair bench --gen 35,45 --seed S --algos mlbdp,mba --sweep ...` via cli.main."""

    name = "bench-report"
    busy_kinds = ("report",)
    pass_units = REPORT_PASS_UNITS

    def __init__(self, seed: int, tmp_root: Path):
        super().__init__()
        self.tmp_root = tmp_root
        rng = random.Random(f"bench-report:{seed}")
        n, m = REPORT_GEN
        # A sparse graph's sweep cost grows with its 2-core, the part left after
        # pruning pendant trees. Each command takes, of a few candidate seeds,
        # the one at the next golden-ratio quantile of 2-core size, so a run's
        # commands spread evenly over that size.
        for k in range(REPORT_SEEDS):
            seeds = [rng.getrandbits(31) for _ in range(REPORT_CANDIDATES)]
            ranked = sorted((two_core_size(wp.generate_random_graph(n, m, c)), c) for c in seeds)
            self.units.append(ranked[int(((0.5 + k * GOLDEN) % 1.0) * REPORT_CANDIDATES)][1])
        self.pairs = n * (n - 1)
        # the topologies each command draws: its graph under each sweep value
        for cmd_seed in self.units:
            g = wp.generate_random_graph(n, m, cmd_seed)
            for max_bw in REPORT_SWEEP:
                text = wp.serialize_topology(wp.assign_random_bandwidths(g, max_bw, cmd_seed))
                self.cases.append(Case(text))

    def probe_targets(self) -> list[tuple[Any, int]]:
        graphs = [case.graph for case in self.cases[: self.pass_units * len(REPORT_SWEEP)]]
        return [(g, s) for g in graphs for s in range(g.n)]

    def argv(self, cmd_seed: int, out: str) -> list[str]:
        return [
            "bench", "--gen", ",".join(map(str, REPORT_GEN)), "--seed", str(cmd_seed),
            "--algos", ",".join(REPORT_ALGOS), "--sweep", ",".join(map(str, REPORT_SWEEP)),
            "--out", out,
        ]

    def run_unit(self, index: int, tally: Tally) -> None:
        cmd_seed = self.units[index]
        self.query(cmd_seed, None, None)
        tally.attempted += 1
        sink = io.StringIO()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.tmp_root) as out:
            try:
                cpu0 = _cpu_s()
                t0 = clock()
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = cli.main(self.argv(cmd_seed, out))
                wall = clock() - t0
                cpu = _cpu_s() - cpu0
            except Exception as exc:  # a raising command is a failed query, the run goes on
                tally.fail(f"bench seed {cmd_seed} raised {exc!r}")
                return
            report = Path(out, "report.csv")
            text = report.read_text() if report.is_file() else None
        if code != 0 or text is None:
            tally.fail(f"bench seed {cmd_seed} exited {code}: {sink.getvalue().strip()[-200:]}")
            return
        rows, why = self._parse(text)
        if why:
            tally.fail(f"bench seed {cmd_seed}: {why}")
            return
        tally.timed("report", wall, 1)
        tally.cpu_s += cpu
        for algo in REPORT_ALGOS:
            # the program's own per-algorithm wall time, from its CSV
            ms = sum(rows[(str(bw), algo)][1] for bw in REPORT_SWEEP)
            tally.timed(algo, ms / 1000.0, self.pairs * len(REPORT_SWEEP))
        tally.digest(index, sorted((key, found) for key, (found, _ms) in rows.items()), 1)

    def _parse(self, text: str) -> tuple[dict, str | None]:
        """(max_bw, algo) -> (pairs_found, wall_time_ms), or why the CSV is wrong."""
        body = [line for line in text.splitlines() if not line.startswith("#")]
        rows: dict[tuple[str, str], tuple[int, float]] = {}
        try:
            for rec in csv.DictReader(body):
                key = (rec["max_bw"], rec["algo"])
                if key in rows:
                    return rows, f"duplicate row {key}"
                found = int(rec["pairs_found"])
                if not 0 <= found <= self.pairs:
                    return rows, f"pairs_found {found} out of range"
                rows[key] = (found, float(rec["wall_time_ms"]))
        except (KeyError, ValueError) as exc:
            return rows, f"unreadable CSV: {exc!r}"
        want = {(str(bw), algo) for bw in REPORT_SWEEP for algo in REPORT_ALGOS}
        if set(rows) != want:
            return rows, f"rows {sorted(rows)} != one per (sweep value, algo)"
        return rows, None


def _cpu_s() -> float:
    """Process plus reaped-children CPU seconds."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def make(name: str, seed: int, tmp_root: Path) -> Workload:
    if name == "bench-report":
        return ReportWorkload(seed, tmp_root)
    return PairWorkload(SHAPES[name], seed)
