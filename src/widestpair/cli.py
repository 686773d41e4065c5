"""Command line: solve one pair, benchmark, generate graphs, export models."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .bench import (
    ALGORITHMS,
    DEFAULT_SWEEP,
    SOLVERS,
    RunConfig,
    render_report_csv,
    run_benchmark,
    write_plot_data,
    write_report_csv,
)
from .exact import EnumerationCapError, export_ilp
from .graph import (
    Graph,
    TopologyError,
    _quote,
    assign_random_bandwidths,
    generate_random_graph,
    parse_topology,
    serialize_topology,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3


def _load(path: str) -> Graph:
    return parse_topology(Path(path).read_text())


def _fmt_path(nodes: tuple[int, ...]) -> str:
    return "-".join(str(v) for v in nodes)


def _print_pair(pair, s: int, t: int) -> None:
    if pair is None:
        print(f"no node-disjoint pair from {s} to {t}")
        return
    print(f"red:  {_fmt_path(pair.red)}  bandwidth {pair.red_bw}")
    print(f"blue: {_fmt_path(pair.blue)}  bandwidth {pair.blue_bw}")
    print(f"combined: {pair.combined}")


def _cmd_solve(args) -> int:
    g = _load(args.topology)
    s, t = args.source, args.dest
    pair, upper_bound = SOLVERS[args.algo](g, s, (t,)).get(t, (None, None))
    _print_pair(pair, s, t)
    if upper_bound is not None and upper_bound != pair.combined:
        print(f"not proven optimal: upper bound {upper_bound}, gap {upper_bound - pair.combined}")
    return EXIT_OK


def _int_arg(text: str) -> int:
    """argparse type for integer options; quotes an over-long value cut."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def _parse_sweep(text: str) -> tuple[int, ...] | None:
    if text == "fixed":
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad sweep list {_quote(text)}; use comma-separated integers or 'fixed'") from None


def _cmd_bench(args) -> int:
    if args.plot_data and args.out is None:
        raise ValueError("--plot-data needs --out, the directory for the series files")
    if args.topology is not None:
        g = _load(args.topology)
        label = Path(args.topology).name
    else:
        try:
            n, m = (int(v) for v in args.gen.split(","))
        except ValueError:
            raise ValueError(f"bad --gen value {_quote(args.gen)}; use n,m") from None
        g = generate_random_graph(n, m, args.seed)
        label = f"gen-{n}-{m}"
    cfg = RunConfig(
        graph=g,
        label=label,
        sweep=_parse_sweep(args.sweep),
        seed=args.seed,
        algos=tuple(args.algos.split(",")),
    )
    if args.out is not None:
        # a file in the way fails here, not after the benchmark
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_benchmark(cfg)
    unproven = sum(a.unproven for row in report.rows for a in row.algos)
    if unproven:
        print(
            f"note: {unproven} mlbdp answers are not proven optimal (search budget spent); "
            "their combined bandwidth is a lower bound",
            file=sys.stderr,
        )
    if args.out is None:
        sys.stdout.write(render_report_csv(report))
    else:
        path = write_report_csv(report, Path(args.out) / "report.csv")
        print(f"wrote {path}")
        if args.plot_data:
            for p in write_plot_data(report, args.out):
                print(f"wrote {p}")
    return EXIT_OK


def _names_dir(out: str) -> bool:
    # Path drops a trailing separator, so it is read off the text
    return out.endswith((os.sep, "/")) or Path(out).is_dir()


def _cmd_gen(args) -> int:
    if _names_dir(args.out):
        raise ValueError(f"--out {_quote(args.out)} names a directory; gen writes one topology file")
    g = generate_random_graph(args.nodes, args.links, args.seed)
    if args.max_bw is not None:
        g = assign_random_bandwidths(g, args.max_bw, args.seed)
    Path(args.out).write_text(serialize_topology(g))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_export_ilp(args) -> int:
    g = _load(args.topology)
    text = export_ilp(g, args.source, args.dest)
    out = Path(args.out)
    if _names_dir(args.out):
        out.mkdir(parents=True, exist_ok=True)
        out = out / f"{Path(args.topology).stem}_{args.source}_{args.dest}.lp"
    out.write_text(text)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widestpair",
        description="Maximum-bandwidth node-disjoint path pairs in capacitated networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find the best pair for one source-dest query")
    p.add_argument("--topology", required=True)
    p.add_argument("--source", type=_int_arg, required=True)
    p.add_argument("--dest", type=_int_arg, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="mlbdp")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="benchmark algorithms over all ordered pairs")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--topology")
    src.add_argument("--gen", metavar="N,M", help="generate a random connected graph")
    p.add_argument("--sweep", default=",".join(str(v) for v in DEFAULT_SWEEP),
                   help="comma-separated max bandwidths, or 'fixed' to keep file values")
    p.add_argument("--seed", type=_int_arg, default=1)
    p.add_argument("--algos", default=",".join(ALGORITHMS))
    p.add_argument("--out", help="directory for report.csv (stdout when omitted)")
    p.add_argument("--plot-data", action="store_true", help="also write per-metric series files into --out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="generate a random connected topology file")
    p.add_argument("--nodes", type=_int_arg, required=True)
    p.add_argument("--links", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=1)
    p.add_argument("--max-bw", type=_int_arg, help="draw bandwidths in 1..B (default: unit)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export-ilp", help="write the exact model in LP format")
    p.add_argument("--topology", required=True)
    p.add_argument("--source", type=_int_arg, required=True)
    p.add_argument("--dest", type=_int_arg, required=True)
    p.add_argument("--out", required=True, help="output file, or directory (existing, or ending in a separator) for <topology>_<s>_<t>.lp")
    p.set_defaults(func=_cmd_export_ilp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (TopologyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
