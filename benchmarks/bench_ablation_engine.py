"""Ablation benches for the design choices DESIGN.md calls out.

1. **Execution strategy**: the raw-block ("unsafe") backend's
   block-vectorised engine (strided NumPy views) versus handle-level
   decoding (``smc-safe``).  The vectorised engine is why the repo's
   Figure 11 shape holds; this bench quantifies the choice.
2. **Block size**: per-block overhead vs block-at-a-time efficiency.
   Tiny blocks drown the vectorised engine in per-block setup; the 1 MiB
   default amortises it.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import FigureReport, time_callable
from repro.bench.workloads import lineitem_values
from repro.core.collection import Collection
from repro.memory.manager import MemoryManager
from repro.query.builder import Count, Sum
from repro.query.expressions import param
from repro.tpch.schema import Lineitem

_N = 20_000
L = Lineitem


def _collection(block_shift: int = 20):
    manager = MemoryManager(block_shift=block_shift)
    coll = Collection(Lineitem, manager=manager)
    rnd = random.Random(3)
    for i in range(_N):
        coll.add(**lineitem_values(rnd, i))
    return manager, coll


def _query(coll):
    return (
        coll.query()
        .where(L.quantity < param("q"))
        .group_by(flag=L.returnflag)
        .aggregate(revenue=Sum(L.extendedprice * (1 - L.discount)), n=Count())
    )


@pytest.fixture(scope="module")
def report():
    rep = FigureReport(
        "Ablation", "engine strategy & block size (Q1-like aggregate)", "ms"
    )
    yield rep
    rep.print()


def test_ablation_engine_strategy(report, benchmark):
    def _run():
        manager, coll = _collection()
        q = _query(coll)
        params = {"q": 40}
        vectorised = time_callable(lambda: q.run(params=params), repeat=3)
        safe = time_callable(
            lambda: q.run(flavor="smc-safe", params=params), repeat=3
        )
        report.record("vectorised (default)", "strategy", vectorised * 1000)
        report.record("handle-level (safe)", "strategy", safe * 1000)
        # Raw vectorised access must beat per-field boxing.
        assert vectorised < safe
        manager.close()

    benchmark.pedantic(_run, rounds=1, iterations=1)


def test_ablation_block_size(report, benchmark):
    def _run():
        timings = {}
        for shift in (12, 14, 16, 18, 20):
            manager, coll = _collection(block_shift=shift)
            q = _query(coll)
            timings[shift] = time_callable(
                lambda: q.run(params={"q": 40}), repeat=3
            )
            report.record(
                "vectorised scan", f"{1 << shift >> 10}KiB", timings[shift] * 1000
            )
            manager.close()
        # Bigger blocks must not be slower than the tiny ones.
        assert timings[20] < timings[12]

    benchmark.pedantic(_run, rounds=1, iterations=1)


@pytest.mark.parametrize("flavor", ["smc-unsafe", "smc-safe"])
def test_ablation_flavor_benchmark(benchmark, flavor):
    manager, coll = _collection()
    q = _query(coll)
    benchmark(lambda: q.run(flavor=flavor, params={"q": 40}))
    manager.close()
