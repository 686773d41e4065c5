"""Undirected capacitated network model and topology utilities.

Networks are simple undirected graphs whose links carry positive integer
bandwidths. Paths are plain tuples of node ids; a pair of paths sharing
exactly its endpoints is a :class:`PathPair`, and every solver answers a
query with a :class:`DisjointResult`: the pair and what the solver proves
about it. check_endpoints is the one check of a query's endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
# longest part of an offending line or integer that an error quotes
_QUOTE_CHARS = 80
# most unused node pairs generate_random_graph may list; 2,001 nodes pass
MAX_LINK_POOL = 2_000_000
# most nodes a Graph may hold; `nodes 1000000` parses to 85 MB RSS (CPython 3.11, 64-bit)
MAX_NODES = 1_000_000


class TopologyError(ValueError):
    """Malformed topology file; the message carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Graph:
    """Undirected network with positive integer link bandwidths.

    Nodes are 0..n-1, with 1 <= n <= MAX_NODES. Self-loops and parallel
    links are rejected at construction time. Instances are treated as
    immutable once built. A graph caches data derived from its links:
    the adjacency snapshot and mba.mba_pair's memo, whose layout only the
    mba module knows. add_link clears both. The caches never change an
    answer, so sharing a graph across threads is safe; threads that
    alternate sources only lose the reuse.
    """

    __slots__ = ("n", "_adj", "_m", "_snapshot", "_mba")

    def __init__(self, n: int):
        _check_node_count(n)
        self.n = n
        self._adj: list[dict[int, int]] = [{} for _ in range(n)]
        self._m = 0
        self._snapshot: list[list[tuple[int, int]]] | None = None
        self._mba: tuple | None = None

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node id {_quote_int(u)} out of range 0..{self.n - 1}")

    def add_link(self, u: int, v: int, bw: int) -> None:
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            self._check_node(u)
            self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if v in self._adj[u]:
            raise ValueError(f"duplicate link {min(u, v)}-{max(u, v)}")
        if bw < 1:
            raise ValueError(f"bandwidth must be >= 1, got {_quote_int(bw)}")
        self._adj[u][v] = bw
        self._adj[v][u] = bw
        self._m += 1
        self._snapshot = None
        self._mba = None

    @property
    def m(self) -> int:
        """Number of links."""
        return self._m

    def has_link(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def bandwidth(self, u: int, v: int) -> int:
        self._check_node(u)
        self._check_node(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise ValueError(f"no link {u}-{v}") from None

    def neighbors(self, u: int) -> list[int]:
        self._check_node(u)
        return sorted(self._adj[u])

    def links(self) -> list[tuple[int, int, int]]:
        """All links as (u, v, bw) with u < v, sorted."""
        return sorted(
            (u, v, bw) for u in range(self.n) for v, bw in self._adj[u].items() if u < v
        )

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-node sorted (neighbor, bandwidth) lists. Callers must not mutate."""
        if self._snapshot is None:
            self._snapshot = [sorted(d.items()) for d in self._adj]
        return self._snapshot

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


@dataclass(frozen=True)
class PathPair:
    """Two simple paths sharing exactly their endpoints, with bottlenecks."""

    red: tuple[int, ...]
    blue: tuple[int, ...]
    red_bw: int
    blue_bw: int

    @property
    def combined(self) -> int:
        return self.red_bw + self.blue_bw


class DisjointResult(NamedTuple):
    """One solver's answer for one destination: the best pair it found and
    what it proves about that pair. combined is pair.combined.

    upper_bound is a proven bound on the combined bandwidth of every pair
    to that destination: mlbdp_full's certificate, which equals combined
    when the pair is proven optimal and is larger only when its exact
    search ran out of budget, or combined itself for the exhaustive
    oracle. None means the solver proves nothing, as for MBA. As a tuple
    the answer unpacks as (pair, upper_bound).
    """

    pair: PathPair
    upper_bound: int | None

    @property
    def combined(self) -> int:
        return self.pair.combined


def _check_node_count(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_NODES, read at call time."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {_quote_int(n)}")
    if n > MAX_NODES:
        raise ValueError(f"node count must be <= {MAX_NODES} (widestpair.graph.MAX_NODES), got {_quote_int(n)}")


def check_endpoints(n: int, s: int, t: int | None = None) -> None:
    """Raise ValueError unless s, and t when given, are distinct node ids
    below n, the node count of a graph or of a result that outlives it."""
    if not 0 <= s < n:
        raise ValueError(f"source {_quote_int(s)} out of range 0..{n - 1}")
    if t is None:
        return
    if not 0 <= t < n:
        raise ValueError(f"destination {_quote_int(t)} out of range 0..{n - 1}")
    if s == t:
        raise ValueError("source and destination must differ")


def bottleneck(g: Graph, path: Sequence[int]) -> int:
    """Minimum bandwidth over the path's consecutive links.

    Raises ValueError for paths with fewer than two nodes or with an
    unlinked consecutive pair.
    """
    if len(path) < 2:
        raise ValueError("bottleneck undefined for paths with fewer than 2 nodes")
    n, adj = g.n, g._adj
    u, out = path[0], None
    if 0 <= u < n:
        for v in path[1:]:
            bw = adj[u].get(v) if 0 <= v < n else None
            if bw is None:
                break
            if out is None or bw < out:
                out = bw
            u = v
        else:
            return out
    # a bad path: Graph.bandwidth raises the first bad hop's error
    return min(g.bandwidth(u, v) for u, v in zip(path, path[1:]))


def validate_path(g: Graph, path: Sequence[int]) -> None:
    """Raise ValueError unless path is a simple linked node sequence."""
    if len(path) < 1:
        raise ValueError("empty path")
    if len(set(path)) != len(path):
        raise ValueError(f"path repeats a node: {tuple(path)}")
    for u, v in zip(path, path[1:]):
        if not g.has_link(u, v):
            raise ValueError(f"consecutive nodes {u},{v} are not linked")


def validate_pair(g: Graph, pair: PathPair) -> None:
    """Raise ValueError unless pair satisfies every structural invariant.

    The two paths must be simple, share exactly their first and last
    node, and carry their true bottleneck bandwidths.
    """
    validate_path(g, pair.red)
    validate_path(g, pair.blue)
    if len(pair.red) < 2 or len(pair.blue) < 2:
        raise ValueError("pair paths need at least 2 nodes")
    if pair.red[0] != pair.blue[0] or pair.red[-1] != pair.blue[-1]:
        raise ValueError("pair paths must share their endpoints")
    shared = set(pair.red) & set(pair.blue)
    if shared != {pair.red[0], pair.red[-1]}:
        raise ValueError(f"pair paths share interior nodes: {sorted(shared)}")
    red_links = {frozenset(l) for l in zip(pair.red, pair.red[1:])}
    blue_links = {frozenset(l) for l in zip(pair.blue, pair.blue[1:])}
    if red_links & blue_links:
        # only possible when both paths are the same direct 1-hop link
        raise ValueError("pair paths share a link")
    if bottleneck(g, pair.red) != pair.red_bw:
        raise ValueError("red bottleneck does not match red_bw")
    if bottleneck(g, pair.blue) != pair.blue_bw:
        raise ValueError("blue bottleneck does not match blue_bw")


def parse_topology(text: str) -> Graph:
    """Parse the line-based topology format.

    Fields are separated by whitespace. Blank lines and lines whose first
    field starts with '#' are ignored. The first data line must be
    ``nodes <n>`` with 1 <= n <= MAX_NODES; every following data line
    must be ``link <u> <v> <bw>`` with 0-based ids and bw >= 1. Errors
    report the offending line number and quote at most _QUOTE_CHARS
    characters of it, stripped, or of an integer they name.
    """
    g: Graph | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if g is None:
            if fields[0] != "nodes" or len(fields) != 2:
                raise TopologyError(lineno, f"expected 'nodes <n>', got {_quote(raw.strip())}")
            try:
                n = int(fields[1])
            except ValueError:
                raise _int_error(lineno, fields[1:], f"node count is not an integer: {_quote(fields[1])}") from None
            try:
                g = Graph(n)
            except ValueError as exc:
                raise TopologyError(lineno, str(exc)) from None
            continue
        if fields[0] != "link" or len(fields) != 4:
            raise TopologyError(lineno, f"expected 'link <u> <v> <bw>', got {_quote(raw.strip())}")
        try:
            u, v, bw = int(fields[1]), int(fields[2]), int(fields[3])
        except ValueError:
            raise _int_error(lineno, fields[1:], f"non-integer field in {_quote(raw.strip())}") from None
        try:
            g.add_link(u, v, bw)
        except ValueError as exc:
            raise TopologyError(lineno, str(exc)) from None
    if g is None:
        raise TopologyError(1, "missing 'nodes' line")
    return g


def _int_error(lineno: int, fields: list[str], message: str) -> TopologyError:
    """The error for integer fields that int() refused.

    int() refuses a field of digits, signed or not, only when it has more
    digits than Python parses (sys.get_int_max_str_digits()), so such a
    field is reported by its length; anything else gets message.
    """
    for f in fields:
        digits = f[1:] if f[0] in "+-" else f
        if digits.isascii() and digits.isdigit():
            try:
                int(f)
            except ValueError:
                return TopologyError(lineno, f"integer field is too long: {len(digits)} digits")
    return TopologyError(lineno, message)


def _quote(text: str) -> str:
    """repr(text), cut after its first _QUOTE_CHARS characters."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _quote_int(x: int) -> str:
    """str(x), cut after its first _QUOTE_CHARS characters and then
    followed by its digit count.

    Only the quoted head is converted to text, so an integer past
    Python's int-to-str digit limit is quoted too.
    """
    sign = "-" if x < 0 else ""
    keep = _QUOTE_CHARS - len(sign)
    a = abs(x)
    if a < 10**keep:
        return str(x)
    digits = int(math.log10(a))  # never above the digit count
    while a >= 10**digits:
        digits += 1
    return f"{sign}{a // 10 ** (digits - keep)}... ({digits} digits)"


def serialize_topology(g: Graph) -> str:
    """Render a graph in the topology file format, links sorted."""
    lines = [f"nodes {g.n}"]
    lines.extend(f"link {u} {v} {bw}" for u, v, bw in g.links())
    return "\n".join(lines) + "\n"


class SplitMix64:
    """splitmix64 stream; identical output for identical seeds on any platform."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in 0..bound-1 (modulo reduction)."""
        return self.next_u64() % bound


def assign_random_bandwidths(g: Graph, max_bw: int, seed: int) -> Graph:
    """Redraw every link bandwidth uniformly from 1..max_bw.

    Deterministic: links are consumed in sorted (u, v) order and values
    come from a splitmix64 stream, so equal (graph, max_bw, seed) inputs
    always produce identical assignments.
    """
    if max_bw < 1:
        raise ValueError(f"max_bw must be >= 1, got {_quote_int(max_bw)}")
    rng = SplitMix64(seed)
    out = Graph(g.n)
    for u, v, _ in g.links():
        out.add_link(u, v, 1 + rng.next_u64() % max_bw)
    return out


def generate_random_graph(n: int, m: int, seed: int) -> Graph:
    """Connected simple graph with n nodes and m unit-bandwidth links.

    A random spanning tree guarantees connectivity without rejection
    loops; the remaining links are a random sample of the unused node
    pairs, of which there may be at most MAX_LINK_POOL; n may be at most
    MAX_NODES. Deterministic per seed. Callers layer
    assign_random_bandwidths to get capacities.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {_quote_int(n)}")
    _check_node_count(n)  # before any list of n ids
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"infeasible link count {_quote_int(m)} for {_quote_int(n)} nodes")
    pool_size = (n - 1) * (n - 2) // 2
    if m > n - 1 and pool_size > MAX_LINK_POOL:
        raise ValueError(f"{_quote_int(n)} nodes leave a pool of {_quote_int(pool_size)} unused node pairs "
                         f"to sample extra links from; at most {MAX_LINK_POOL} allowed")
    rng = SplitMix64(seed)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    g = Graph(n)
    for k in range(1, n):
        g.add_link(order[k], order[rng.below(k)], 1)
    extra = m - (n - 1)
    if extra:
        pool = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_link(u, v)]
        for i in range(len(pool) - 1, 0, -1):
            j = rng.below(i + 1)
            pool[i], pool[j] = pool[j], pool[i]
        for u, v in pool[:extra]:
            g.add_link(u, v, 1)
    return g
