"""In-memory spans around public functions, and the statistics the report uses.

A Tracer replaces a function on every module attribute that binds it
(``widestpair.mlbdp.mlbdp_full``, ``widestpair.bench.mlbdp_full``, ...)
with a wrapper that records one span per call, and puts every original
back when the ``installed`` block ends. Spans live in a list until the
benchmark writes them out.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

# percentiles tried for a tail figure, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(count: int, ladder: Sequence[float] = TAIL_LADDER) -> float | None:
    """Highest ladder percentile that leaves at least MIN_BEYOND samples above it.

    None when count samples are too few for any of them.
    """
    for pct in ladder:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The sample at percentile pct by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Span:
    """One call: name, start/end, parent span index (-1 at the top) and query id.

    ``done`` is when the wrapper finished annotating the result; a parent's
    self time excludes its children up to ``done``, so annotation cost is
    never charged to the layer that made the call. ``scale`` converts the
    span's raw seconds to the reference clock.
    """

    __slots__ = ("name", "start", "end", "done", "parent", "query", "attrs", "scale")

    def __init__(self, name: str, parent: int, query: Any, start: float = 0.0, end: float = 0.0):
        self.name = name
        self.parent = parent
        self.query = query
        self.start = start
        self.end = end
        self.done = end
        self.attrs: dict | None = None
        self.scale = 1.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.done, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


Annotate = Callable[[tuple, Any], dict]


class Tracer:
    """Records spans for wrapped functions of the given modules.

    ``query`` is set by the caller before each query and copied into every
    span opened while it holds.
    """

    def __init__(self, modules: Iterable[Any]):
        self.modules = list(modules)
        self.spans: list[Span] = []
        self.query: Any = None
        self._stack: list[int] = []

    def _wrapper(self, func: Callable, name: str, annotate: Annotate | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.query)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, result)
            span.done = clock()
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    @contextmanager
    def installed(self, targets: Iterable[tuple[Callable, str, Annotate | None]]) -> Iterator["Tracer"]:
        """Wrap every module attribute bound to each target function.

        On exit every attribute is restored and checked to be exactly what
        it was before; a difference raises RuntimeError.
        """
        before = [dict(vars(mod)) for mod in self.modules]
        saved: list[tuple[Any, str, Any]] = []
        try:
            for func, name, annotate in targets:
                wrapper = self._wrapper(func, name, annotate)
                for mod in self.modules:
                    for attr, value in list(vars(mod).items()):
                        if value is func:
                            saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)
        for mod, snapshot in zip(self.modules, before):
            now = vars(mod)
            if now.keys() != snapshot.keys() or any(now[k] is not v for k, v in snapshot.items()):
                raise RuntimeError(f"module {mod.__name__} attributes differ after tracing")

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, query."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.query]))
                fh.write("\n")
