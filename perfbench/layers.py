"""Per-layer metrics from a traced run, and what each one should move.

The traced run wraps the package's public functions at every binding,
runs the workload's fixed pass, then probes two layers that the product
path does not reach on its own: one widest tree per source and one
standalone VNodeTable allocation per node count.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any

import widestpair as wp
from widestpair import bench, cli, exact, graph, mba, mlbdp, widest

from refclock import RefClock
from spans import Span, Tracer, median, self_times
from workloads import SEGMENT_S, Tally

# name, unit, better, end-to-end metric it should move, workload it shows on
PER_LAYER = (
    ("graph.parse.calls", "count", "lower", "setup_s", "all"),
    ("graph.parse.s", "s", "lower", "setup_s", "all"),
    ("graph.parse.links", "count", "higher", "setup_s", "all"),
    ("graph.generate.s", "s", "lower", "report_s", "bench-report"),
    ("graph.assign_bw.s", "s", "lower", "report_s", "bench-report"),
    ("widest.tree.calls", "count", "lower", "mlbdp.pairs_per_s", "wide-sweep"),
    ("widest.tree.ms_p50", "ms", "lower", "mlbdp.pairs_per_s", "wide-sweep"),
    ("mlbdp.limit_run.calls", "count", "lower", "mlbdp.pairs_per_s", "wide-sweep; no change on dense-narrow"),
    ("mlbdp.limit_run.self_s", "s", "lower", "mlbdp.pairs_per_s", "wide-sweep, dense-narrow"),
    ("mlbdp.limit_run.ms_p50", "ms", "lower", "mlbdp.source_ms_p50", "wide-sweep, dense-narrow"),
    ("mlbdp.limit_run.lowest_ms_p50", "ms", "lower", "mlbdp.source_ms_p50", "dense-narrow"),
    ("mlbdp.vnodes_settled", "count", "lower", "mlbdp.pairs_per_s", "wide-sweep, dense-narrow"),
    ("mlbdp.us_per_settled", "us", "lower", "mlbdp.pairs_per_s", "wide-sweep, dense-narrow"),
    ("mlbdp.table_alloc_ms", "ms", "lower", "mlbdp.pairs_per_s", "wide-sweep"),
    ("mlbdp.table_alloc_total_ms", "ms", "lower", "mlbdp.pairs_per_s", "wide-sweep"),
    ("mlbdp.useful_run_share", "share", "higher", "mlbdp.pairs_per_s", "wide-sweep"),
    ("mlbdp.dests_reached", "count", "higher", "mlbdp.combined_sum, mlbdp.optimal_share", "all"),
    ("mlbdp.reconstruct.calls", "count", "lower", "mlbdp.pairs_per_s", "wide-sweep"),
    ("mlbdp.reconstruct.s", "s", "lower", "mlbdp.pairs_per_s", "wide-sweep"),
    ("mlbdp.full.self_s", "s", "lower", "mlbdp.pairs_per_s", "desk-oracle"),
    ("mba.calls", "count", "lower", "mba.pairs_per_s", "wide-sweep vs dense-narrow"),
    ("mba.self_s", "s", "lower", "mba.pairs_per_s", "wide-sweep vs dense-narrow"),
    ("mba.found_share", "share", "higher", "mba.combined_sum", "wide-sweep vs dense-narrow"),
    ("exact.enumerate.s", "s", "lower", "oracle.pairs_per_s", "desk-oracle"),
    ("exact.paths", "count", "lower", "oracle.query_ms_tail", "desk-oracle"),
    ("exact.paths_max", "count", "lower", "oracle.query_ms_tail", "desk-oracle"),
    ("exact.scan.self_s", "s", "lower", "oracle.pairs_per_s", "desk-oracle"),
    ("bench.run.self_s", "s", "lower", "report_s", "bench-report"),
    ("bench.render.s", "s", "lower", "report_s", "bench-report"),
    ("bench.cpu_per_wall", "share", "higher", "report_s", "bench-report"),
    ("cli.self_s", "s", "lower", "report_s", "bench-report"),
    ("trace.overhead_share", "share", "lower", "none: the cost of tracing", "all"),
)


def _limit_run(args: tuple, table: Any) -> dict:
    """Limit, node count, vnodes settled and combined bandwidth per destination reached."""
    try:
        g, s, limit = args[:3]
        n = g.n
        perm, prev, r, b = table.permanent, table.prev, table.r, table.b
        reached = {}
        for d in range(n):
            idx = d * n + d
            if d != s and perm[idx] and prev[idx] >= 0:
                reached[d] = r[idx] + b[idx]
        return {"limit": limit, "n": n, "settled": len(table.settled), "reached": reached}
    except (AttributeError, TypeError, ValueError):
        return {}  # a changed signature or table layout leaves the counts at 0


def _count(key: str):
    return lambda args, result: {key: 0 if result is None else len(result)}


def _links(args: tuple, g: Any) -> dict:
    return {"links": g.m}


def targets() -> list[tuple[Any, str, Any]]:
    """(function, span name, annotation) for every wrapped public function."""
    table = [
        (graph, "parse_topology", "graph.parse", _links),
        (graph, "generate_random_graph", "graph.generate", None),
        (graph, "assign_random_bandwidths", "graph.assign_bw", None),
        (widest, "max_bandwidth_tree", "widest.tree", None),
        (mlbdp, "mlbdp_full", "mlbdp.full", _count("dests")),
        (mlbdp, "run_limit_search", "mlbdp.limit_run", _limit_run),
        (mlbdp, "reconstruct_pair", "mlbdp.reconstruct", None),
        (mba, "mba_pair", "mba", lambda args, pair: {"found": pair is not None}),
        (exact, "enumerate_simple_paths", "exact.enumerate", _count("paths")),
        (exact, "optimal_pair_bruteforce", "exact.scan", None),
        (bench, "run_benchmark", "bench.run", None),
        (bench, "render_report_csv", "bench.render", None),
        (cli, "main", "cli", None),
    ]
    # a function a later version removes simply goes untraced
    return [(getattr(mod, attr), name, ann) for mod, attr, name, ann in table if hasattr(mod, attr)]


def package_modules() -> list[Any]:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "widestpair" or name.startswith("widestpair.")]


def probe_table_alloc(n: int, repeats: int = 21) -> float:
    """Median ms of one standalone VNodeTable allocation at node count n, on the reference clock."""
    vnode_table = getattr(wp, "VNodeTable", None)
    if vnode_table is None:
        return 0.0
    ref = RefClock()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        vnode_table(n, 0, 1)
        times.append(time.perf_counter() - t0)
    return median(times) * ref.factor() * 1000.0


def _useful_runs(full_spans: dict[int, list[Span]]) -> tuple[int, int]:
    """(runs that raised some destination's best combined, all runs)."""
    useful = total = 0
    for runs in full_spans.values():
        best: dict[int, int] = {}
        for run in sorted(runs, key=lambda sp: sp.start):
            reached = (run.attrs or {}).get("reached", {})
            raised = False
            for d, comb in reached.items():
                if comb > best.get(d, -1):
                    best[d] = comb
                    raised = True
            useful += raised
            total += 1
    return useful, total


def compute(spans: list[Span], extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never calls reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration * spans[i].scale for i in idx(name))

    def self_total(name):
        return sum(selfs[i] * spans[i].scale for i in idx(name))

    def attr_values(name, key):
        return [(spans[i].attrs or {}).get(key, 0) for i in idx(name)]

    def p50_ms(ids):
        return median(spans[i].duration * spans[i].scale for i in ids) * 1000.0

    runs = idx("mlbdp.limit_run")
    by_full: dict[int, list[Span]] = {}
    for i in runs:
        by_full.setdefault(spans[i].parent, []).append(spans[i])
    lowest = [min(group, key=lambda sp: (sp.attrs or {}).get("limit", 0)) for group in by_full.values()]
    settled = sum(attr_values("mlbdp.limit_run", "settled"))
    useful, run_count = _useful_runs(by_full)
    alloc = {n: probe_table_alloc(n) for n in set(attr_values("mlbdp.limit_run", "n")) if n > 0}
    mba_calls = len(idx("mba"))
    paths = attr_values("exact.enumerate", "paths")

    out = {
        "graph.parse.calls": len(idx("graph.parse")),
        "graph.parse.s": total("graph.parse"),
        "graph.parse.links": sum(attr_values("graph.parse", "links")),
        "graph.generate.s": total("graph.generate"),
        "graph.assign_bw.s": total("graph.assign_bw"),
        "widest.tree.calls": len(idx("widest.tree")),
        "widest.tree.ms_p50": p50_ms(idx("widest.tree")),
        "mlbdp.limit_run.calls": len(runs),
        "mlbdp.limit_run.self_s": self_total("mlbdp.limit_run"),
        "mlbdp.limit_run.ms_p50": p50_ms(runs),
        "mlbdp.limit_run.lowest_ms_p50": median(sp.duration * sp.scale for sp in lowest) * 1000.0,
        "mlbdp.vnodes_settled": settled,
        "mlbdp.us_per_settled": total("mlbdp.limit_run") * 1e6 / settled if settled else 0.0,
        "mlbdp.table_alloc_ms": alloc[max(alloc)] if alloc else 0.0,
        "mlbdp.table_alloc_total_ms": sum(alloc.get(n, 0.0) for n in attr_values("mlbdp.limit_run", "n")),
        "mlbdp.useful_run_share": useful / run_count if run_count else 0.0,
        "mlbdp.dests_reached": sum(attr_values("mlbdp.full", "dests")),
        "mlbdp.reconstruct.calls": len(idx("mlbdp.reconstruct")),
        "mlbdp.reconstruct.s": total("mlbdp.reconstruct"),
        "mlbdp.full.self_s": self_total("mlbdp.full"),
        "mba.calls": mba_calls,
        "mba.self_s": self_total("mba"),
        "mba.found_share": sum(attr_values("mba", "found")) / mba_calls if mba_calls else 0.0,
        "exact.enumerate.s": total("exact.enumerate"),
        "exact.paths": sum(paths),
        "exact.paths_max": max(paths, default=0),
        "exact.scan.self_s": self_total("exact.scan"),
        "bench.run.self_s": self_total("bench.run"),
        "bench.render.s": total("bench.render"),
        "cli.self_s": self_total("cli"),
    }
    out.update(extra)
    return out


def traced_pass(workload) -> tuple[Any, Any, Tracer]:
    """The fixed pass untraced and traced, block by block, then the probes.

    Each block of units (about SEGMENT_S of work) runs untraced and then
    again with every target wrapped, so both sides see the same machine and
    ``trace.overhead_share`` compares like with like. Set-up and the probes
    run traced once. Module attributes are restored, and checked, after
    every traced block. Returns the untraced tally, the traced tally and the
    tracer.
    """
    tracer = Tracer(package_modules())
    wrapped = targets()
    plain, traced = Tally(), Tally()

    @contextmanager
    def tracing(query):
        with tracer.installed(wrapped):
            workload.tracer = tracer
            workload.query(*query)
            try:
                yield
            finally:
                workload.tracer = None

    def on_reference_clock(step):
        ref = RefClock()
        mark = len(tracer.spans)
        step()
        factor = ref.factor()
        for span in tracer.spans[mark:]:
            span.scale = factor

    def probe():
        tree = getattr(wp, "max_bandwidth_tree", None)
        for g, s in workload.probe_targets() if tree else ():
            tree(g, s)

    with tracing(("setup", None, None)):
        on_reference_clock(workload.setup)
    ref = RefClock()
    index = 0
    while index < workload.pass_units:
        marks = plain.marks(), traced.marks()
        span_mark = len(tracer.spans)
        block = []
        begin = time.perf_counter()
        while index < workload.pass_units and (not block or time.perf_counter() - begin < SEGMENT_S):
            workload.run_unit(index, plain)
            block.append(index)
            index += 1
        with tracing(("pass", None, None)):
            for i in block:
                workload.run_unit(i, traced)
        factor = ref.factor()
        plain.rescale(marks[0], factor)
        traced.rescale(marks[1], factor)
        for span in tracer.spans[span_mark:]:
            span.scale = factor
    with tracing(("probe", None, None)):
        on_reference_clock(probe)
    return plain, traced, tracer
