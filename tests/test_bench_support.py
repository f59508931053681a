"""Bench harness, shared workloads and the suite's trace hook points."""

import importlib.util
import pathlib
import random

import pytest

from repro.bench.harness import FigureReport, Series, bench_scale_factor, time_callable
from repro.bench.workloads import RefreshStreams, allocation_throughput, lineitem_values, wear
from repro.core.collection import Collection
from repro.managed.collections_ import ManagedList
from repro.memory.manager import MemoryManager
from repro.tpch.schema import Lineitem


def test_series_records_points():
    s = Series("a")
    s.add("x", 1.0)
    s.add("y", 2.0)
    assert s.value_at("x") == 1.0
    assert s.value_at("missing") is None


def test_figure_report_render():
    rep = FigureReport("Figure T", "test", "ms")
    rep.record("alpha", "q1", 1.5)
    rep.record("alpha", "q2", 2.5)
    rep.record("beta", "q1", 3.0)
    text = rep.render()
    assert "Figure T" in text
    assert "alpha" in text and "beta" in text
    assert "q1" in text and "q2" in text
    assert "1.5" in text
    assert rep.xs() == ["q1", "q2"]


def test_figure_report_normalised():
    rep = FigureReport("F", "t", "ms")
    rep.record("base", "x", 2.0)
    rep.record("other", "x", 4.0)
    norm = rep.normalised("base")
    assert norm.series["other"].value_at("x") == 2.0
    assert norm.series["base"].value_at("x") == 1.0


def test_time_callable_returns_positive():
    assert time_callable(lambda: sum(range(100)), repeat=2) > 0


def test_bench_scale_factor_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SF", "0.5")
    assert bench_scale_factor() == 0.5
    monkeypatch.delenv("REPRO_BENCH_SF")
    assert bench_scale_factor(0.02) == 0.02


def test_lineitem_values_shape():
    rnd = random.Random(1)
    values = lineitem_values(rnd, 42)
    assert values["orderkey"] == 42
    assert set(values) <= {f.name for f in Lineitem.__fields__}
    # Must be loadable into a real collection.
    m = MemoryManager()
    coll = Collection(Lineitem, manager=m)
    h = coll.add(**values)
    assert h.orderkey == 42
    m.close()


def test_allocation_throughput_counts_everything():
    sink = []
    rate = allocation_throughput(lambda i: sink.append(i), count=400, threads=4)
    assert rate > 0
    assert len(sink) == 400
    assert len(set(sink)) == 400  # disjoint id ranges per thread


def test_refresh_streams_insert_and_delete():
    m = MemoryManager()
    coll = Collection(Lineitem, manager=m)
    rnd = random.Random(2)
    for i in range(1000):
        coll.add(**lineitem_values(rnd, i))

    def remove_by_orderkeys(victims):
        removed = 0
        for h in list(coll):
            if h.orderkey in victims:
                coll.remove(h)
                removed += 1
        return removed

    streams = RefreshStreams(
        insert=lambda v: coll.add(**v),
        keys=lambda: [h.orderkey for h in coll],
        remove_by_orderkeys=remove_by_orderkeys,
        initial_population=1000,
    )
    assert streams.batch == 1
    added = streams.run_insert_stream()
    assert added == 1
    assert len(coll) == 1001
    removed = streams.run_delete_stream()
    assert removed == 1
    assert len(coll) == 1000
    m.close()


def test_refresh_streams_throughput_runs():
    ml = ManagedList(Lineitem)
    rnd = random.Random(2)
    for i in range(500):
        ml.add(**lineitem_values(rnd, i))
    streams = RefreshStreams(
        insert=lambda v: ml.add(**v),
        keys=lambda: [r.orderkey for r in ml],
        remove_by_orderkeys=lambda victims: ml.remove_where(
            lambda r: r.orderkey in victims
        ),
        initial_population=500,
    )
    rate = streams.throughput(seconds=0.05, threads=2)
    assert rate > 0


def test_wear_preserves_population_size():
    m = MemoryManager()
    coll = Collection(Lineitem, manager=m)
    rnd = random.Random(9)
    handles = [coll.add(**lineitem_values(rnd, i)) for i in range(300)]
    population = wear(
        handles,
        remove=coll.remove,
        insert=lambda v: coll.add(**v),
        fraction=0.5,
        rounds=2,
    )
    assert len(population) == 300
    assert len(coll) == 300
    # The collection went through churn: limbo slots or recycled blocks.
    assert m.stats.frees == 300  # 150 * 2 rounds
    m.close()


def test_every_traced_serve_hook_resolves():
    """Each name ``benchmarks/suite/traced_serve.py`` patches exists and is
    callable, resolved the way its ``_patch`` does (nothing installed)."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks/suite/traced_serve.py"
    spec = importlib.util.spec_from_file_location("traced_serve", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    hooks = traced.ALWAYS + traced.ON_REQUEST + traced.LEAVES
    assert hooks
    for module_name, qualname, __ in hooks:
        owner = importlib.import_module(module_name)
        *path_parts, attr = qualname.split(".")
        for part in path_parts:
            owner = getattr(owner, part)
        target = owner.__dict__[attr] if path_parts else getattr(owner, attr)
        assert callable(target), f"{module_name}.{qualname}"
