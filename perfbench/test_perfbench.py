"""Tests of the benchmark's own helpers: tail rule, self time, wrappers, metric tables."""

from __future__ import annotations

import json
import sys
import types

import pytest

import refclock
import run
from spans import Span, Tracer, nearest_rank, self_times, tail_percentile

run.load_package()

import layers  # noqa: E402  (needs the package on the path)


@pytest.mark.parametrize(
    "count, pct",
    [(0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, pct):
    assert tail_percentile(count) == pct


def test_nearest_rank_picks_a_sample():
    values = list(range(1, 101))
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 99.9) == 100
    assert nearest_rank([5.0], 50.0) == 5.0


def _span(name, parent, start, end, done=None):
    span = Span(name, parent, None, start, end)
    span.done = end if done is None else done
    return span


def test_self_time_subtracts_children_only_once():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0, done=4.5),  # annotation until 4.5 is not root's own time
        _span("a.child", 1, 2.0, 3.0),
        _span("b", 0, 6.0, 8.0),
        _span("b.x", 3, 6.5, 7.5),
        _span("b.y", 3, 7.0, 7.8),  # overlaps b.x; the union is covered once
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 0.7, 1.0, 0.8])


def _fake_modules():
    lib = types.ModuleType("fakelib")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) * 2

    lib.inner, lib.outer = inner, outer
    user = types.ModuleType("fakeuser")
    user.outer = outer  # a second binding, as `from fakelib import outer` makes
    return lib, user


def test_wrappers_cover_every_binding_and_are_removed():
    lib, user = _fake_modules()
    before = [dict(vars(m)) for m in (lib, user)]
    tracer = Tracer([lib, user])
    targets = [(lib.inner, "inner", None), (lib.outer, "outer", lambda args, res: {"res": res})]
    with tracer.installed(targets):
        assert lib.outer is not before[0]["outer"] and user.outer is lib.outer
        tracer.query = ("w", 1, 2)
        assert user.outer(3) == 8
    assert [(s.name, s.parent, s.query) for s in tracer.spans] == [("outer", -1, ("w", 1, 2)), ("inner", 0, ("w", 1, 2))]
    assert tracer.spans[0].attrs == {"res": 8}
    for mod, snapshot in zip((lib, user), before):
        assert all(vars(mod)[k] is v for k, v in snapshot.items())


def test_wrappers_are_removed_when_the_block_raises():
    lib, user = _fake_modules()
    original = lib.outer
    with pytest.raises(ZeroDivisionError):
        with Tracer([lib, user]).installed([(original, "outer", None)]):
            1 / 0
    assert lib.outer is original and user.outer is original


def test_traced_package_answers_like_untraced_and_is_restored():
    import widestpair as wp

    modules = layers.package_modules()
    before = [dict(vars(m)) for m in modules]
    g = wp.five_node_network()
    plain = wp.bench.mlbdp_full(g, 0)
    tracer = Tracer(modules)
    with tracer.installed(layers.targets()):
        traced = wp.bench.mlbdp_full(g, 0)
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"mlbdp.full", "mlbdp.limit_run", "mlbdp.reconstruct"} <= names
    for mod, snapshot in zip(modules, before):
        assert vars(mod).keys() == snapshot.keys()
        assert all(vars(mod)[k] is v for k, v in snapshot.items())


def test_reference_clock_scales_by_mean_of_segment_ends():
    samples = iter([0.010, 0.020, 0.005])
    clock = refclock.RefClock(sample=lambda: next(samples))
    assert clock.factor() == pytest.approx(refclock.NOMINAL_S / 0.015)
    assert clock.factor() == pytest.approx(refclock.NOMINAL_S / 0.0125)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [row[:3] for row in layers.PER_LAYER]
    assert spec["command"][1] == "perfbench/run.py"


def test_missing_package_is_refused(tmp_path):
    with pytest.raises(run.MissingProgram):
        run.load_package(tmp_path)
    assert str(tmp_path) not in sys.path
