"""Ground truth for small instances: exhaustive pair search and ILP export.

The brute-force search enumerates every simple path and scans disjoint
pairings, so it is exact but only usable at desk scale: a query with more
than PATH_CAP simple paths raises EnumerationCapError. Its answer is a
graph.DisjointResult whose upper_bound is its own combined bandwidth. The
ILP builder emits the equivalent mixed-integer model in LP text format
for external solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DisjointResult, Graph, PathPair, bottleneck, check_endpoints

# simple paths one query may enumerate; read at call time
PATH_CAP = 100_000


class EnumerationCapError(RuntimeError):
    """The number of simple paths exceeds PATH_CAP."""


def delta(x: int, s: int, t: int) -> int:
    """Flow-conservation right-hand side: 1 at the source, -1 at the
    destination, 0 elsewhere."""
    if x == s:
        return 1
    if x == t:
        return -1
    return 0


def enumerate_simple_paths(g: Graph, s: int, t: int) -> list[tuple[int, ...]]:
    """All simple s-t paths in depth-first order, neighbors ascending.

    Raises EnumerationCapError when more than PATH_CAP paths exist, which
    signals the instance is too large for brute force.
    """
    check_endpoints(g.n, s, t)
    cap = PATH_CAP
    adj = g.adjacency()
    out: list[tuple[int, ...]] = []
    path = [s]
    on_path = 1 << s
    # one neighbor iterator per path node, so path length is not bounded
    # by the interpreter's recursion limit
    stack = [iter(adj[s])]
    while stack:
        for v, _ in stack[-1]:
            if v == t:
                out.append((*path, t))
                if len(out) > cap:
                    raise EnumerationCapError(f"more than {cap} simple paths from {s} to {t}")
            elif not on_path >> v & 1:
                path.append(v)
                on_path |= 1 << v
                stack.append(iter(adj[v]))
                break
        else:
            stack.pop()
            on_path ^= 1 << path.pop()
    return out


def optimal_pair_bruteforce(g: Graph, s: int, t: int) -> DisjointResult | None:
    """Exact optimum over internally node-disjoint s-t path pairs.

    Returns DisjointResult(pair, combined) or None when no pair exists.
    Ties resolve to the larger minimum bottleneck, then to the
    lexicographically smallest node sequences, so output is
    deterministic.
    """
    paths = enumerate_simple_paths(g, s, t)
    entries = []
    for p in paths:
        mask = 0
        for v in p:
            mask |= 1 << v
        entries.append((bottleneck(g, p), mask, p))
    entries.sort(key=lambda e: (-e[0], e[2]))
    shared = 1 << s | 1 << t
    best: tuple[int, int, tuple[int, ...], tuple[int, ...]] | None = None
    count = len(entries)
    for i in range(count):
        bw_i, mask_i, p_i = entries[i]
        if best is not None and 2 * bw_i < best[0]:
            break
        for j in range(i + 1, count):
            bw_j, mask_j, p_j = entries[j]
            comb = bw_i + bw_j
            if best is not None and comb < best[0]:
                break
            if mask_i & mask_j != shared:
                continue
            red, blue = (p_i, p_j) if p_i <= p_j else (p_j, p_i)
            if (
                best is None
                or (comb, min(bw_i, bw_j)) > (best[0], best[1])
                or ((comb, min(bw_i, bw_j)) == (best[0], best[1]) and (red, blue) < (best[2], best[3]))
            ):
                best = (comb, min(bw_i, bw_j), red, blue)
    if best is None:
        return None
    pair = PathPair(best[2], best[3], bottleneck(g, best[2]), bottleneck(g, best[3]))
    return DisjointResult(pair, best[0])


@dataclass(frozen=True)
class LinearConstraint:
    """One linear row: sum of coeff * var compared against rhs."""

    name: str
    coeffs: tuple[tuple[str, int], ...]
    sense: str  # "=" or "<="
    rhs: int


@dataclass(frozen=True)
class IlpModel:
    """Mixed-integer model maximizing the summed pair bandwidth yr + yb.

    Per link {u, v} there are four binary arc variables r_u_v, r_v_u,
    b_u_v, b_v_u; yr and yb are the continuous path bottlenecks. big_m
    is one above the largest link bandwidth, which deactivates the
    bottleneck rows of unused links.
    """

    source: int
    dest: int
    big_m: int
    binaries: tuple[str, ...]
    continuous: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]


def build_ilp(g: Graph, s: int, t: int) -> IlpModel:
    """Instantiate the node-disjoint pair model for one s-t query.

    Rows per group: directed flow conservation for each color at every
    node; the destination receives exactly two incoming colored arcs and
    the source none; every other node receives at most one; per link, one
    bottleneck row per color covering both arc directions; per link, at
    most one colored arc in total. A row's name is its group followed by
    the node or link ids it covers (red_flow_3, link_once_0_2).
    """
    check_endpoints(g.n, s, t)
    links = g.links()
    if not links:
        raise ValueError("graph has no links")
    big_m = 1 + max(bw for _, _, bw in links)
    binaries: list[str] = []
    for u, v, _ in links:
        binaries.extend((f"r_{u}_{v}", f"r_{v}_{u}", f"b_{u}_{v}", f"b_{v}_{u}"))
    cons: list[LinearConstraint] = []
    for color, label in (("r", "red_flow"), ("b", "blue_flow")):
        for x in range(g.n):
            coeffs = [(f"{color}_{x}_{v}", 1) for v in g.neighbors(x)]
            coeffs += [(f"{color}_{v}_{x}", -1) for v in g.neighbors(x)]
            cons.append(LinearConstraint(f"{label}_{x}", tuple(coeffs), "=", delta(x, s, t)))
    in_t = [(f"r_{v}_{t}", 1) for v in g.neighbors(t)] + [(f"b_{v}_{t}", 1) for v in g.neighbors(t)]
    cons.append(LinearConstraint("enter_dest", tuple(in_t), "=", 2))
    in_s = [(f"r_{v}_{s}", 1) for v in g.neighbors(s)] + [(f"b_{v}_{s}", 1) for v in g.neighbors(s)]
    cons.append(LinearConstraint("enter_source", tuple(in_s), "=", 0))
    for x in range(g.n):
        if x in (s, t):
            continue
        coeffs = [(f"r_{v}_{x}", 1) for v in g.neighbors(x)]
        coeffs += [(f"b_{v}_{x}", 1) for v in g.neighbors(x)]
        cons.append(LinearConstraint(f"node_once_{x}", tuple(coeffs), "<=", 1))
    for color, label, y in (("r", "red_bw", "yr"), ("b", "blue_bw", "yb")):
        for u, v, bw in links:
            slack = big_m - bw
            coeffs = ((y, 1), (f"{color}_{u}_{v}", slack), (f"{color}_{v}_{u}", slack))
            cons.append(LinearConstraint(f"{label}_{u}_{v}", coeffs, "<=", big_m))
    for u, v, _ in links:
        coeffs = tuple((f"{c}_{a}_{b}", 1) for c in "rb" for a, b in ((u, v), (v, u)))
        cons.append(LinearConstraint(f"link_once_{u}_{v}", coeffs, "<=", 1))
    return IlpModel(s, t, big_m, tuple(binaries), ("yr", "yb"), tuple(cons))


def _lp_expr(coeffs: tuple[tuple[str, int], ...]) -> str:
    parts: list[str] = []
    for var, coef in coeffs:
        mag = abs(coef)
        txt = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(txt if coef > 0 else f"- {txt}")
        else:
            parts.append(f"{'+' if coef > 0 else '-'} {txt}")
    return " ".join(parts)


def render_lp(model: IlpModel) -> str:
    """LP text format: Maximize, Subject To, Bounds, Binaries, End."""
    lines = [
        f"\\ node-disjoint pair model: source {model.source} dest {model.dest} big_m {model.big_m}",
        "Maximize",
        " obj: yr + yb",
        "Subject To",
    ]
    for c in model.constraints:
        lines.append(f" {c.name}: {_lp_expr(c.coeffs)} {c.sense} {c.rhs}")
    lines.append("Bounds")
    lines.extend(f" {v} >= 0" for v in model.continuous)
    lines.append("Binaries")
    for i in range(0, len(model.binaries), 8):
        lines.append(" " + " ".join(model.binaries[i : i + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_ilp(g: Graph, s: int, t: int) -> str:
    """Build and render the model in one step."""
    return render_lp(build_ilp(g, s, t))
