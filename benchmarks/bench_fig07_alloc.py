"""Figure 7 — batch allocation throughput.

The paper allocates ``lineitem`` objects (default constructor) and
compares: pure allocation of managed objects, ConcurrentBag,
ConcurrentDictionary, and SMCs, with 1/2/4 threads and both GC modes.
Expected shape: SMC >= pure managed allocation > Bag > Dictionary; batch
GC beats interactive GC for the managed series; SMC throughput is
GC-mode independent.

The GC-mode split is produced by the cost model of
:mod:`repro.managed.gcsim`: the measured wall time of the managed series
is augmented with the simulated collector time for the allocated volume
(CPython's refcounting has no generational pauses to measure natively;
see DESIGN.md).

Two SMC series: ``smc`` is one ``Collection.add`` per object (the batch
of one), ``smc add_many`` hands each thread's objects to ``add_many``
``_BATCH`` at a time — the write path a served ``mutate`` takes.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import FigureReport
from repro.bench.workloads import allocation_throughput
from repro.core.collection import Collection
from repro.managed.collections_ import ManagedBag, ManagedDictionary
from repro.managed.gcsim import GcParams, SimulatedHeap
from repro.memory.manager import MemoryManager
from repro.tpch.schema import Lineitem

_COUNT = 40_000
_OBJ_SIZE = 184  # lineitem slot size, used by the GC cost model
_THREADS = (1, 2, 4)
_BATCH = 1000


def _gc_overhead(mode: str, count: int) -> float:
    """Simulated collector seconds for allocating *count* live objects.

    Batch mode charges the stop-the-world pauses; interactive mode charges
    its short pauses plus the full background marking work with a 25%
    concurrency overhead — which is why the paper finds batch collection
    gives the higher *throughput* while interactive gives the lower
    *pauses* (sections on Figures 7 and 9).
    """
    heap = SimulatedHeap(mode, GcParams())
    for i in range(count):
        heap.allocate(_OBJ_SIZE, long_lived=True)  # batch load: all survive
    return heap.stats.total_pause + heap.stats.background_cpu * 1.25


def _managed_throughput(make_sink, threads: int, mode: str) -> float:
    sink, add_one = make_sink()
    raw = allocation_throughput(add_one, _COUNT, threads)
    wall = _COUNT / raw
    return _COUNT / (wall + _gc_overhead(mode, _COUNT))


def _managed_throughput_both(make_sink, threads: int):
    """Both GC modes derived from one wall-clock measurement, so the
    batch/interactive comparison is not polluted by run-to-run noise."""
    sink, add_one = make_sink()
    raw = allocation_throughput(add_one, _COUNT, threads)
    wall = _COUNT / raw
    return (
        _COUNT / (wall + _gc_overhead("batch", _COUNT)),
        _COUNT / (wall + _gc_overhead("interactive", _COUNT)),
    )


def _pure_sink():
    record_cls = Lineitem.managed_class()
    arrays = []

    def add_one(i):
        arrays.append(record_cls(orderkey=i))

    return arrays, add_one


def _bag_sink():
    bag = ManagedBag(Lineitem)

    def add_one(i):
        bag.add(orderkey=i)

    return bag, add_one


def _dict_sink():
    d = ManagedDictionary(Lineitem)

    def add_one(i):
        d.add(key=i, orderkey=i)

    return d, add_one


def _smc_throughput(threads: int, batch: int = 1) -> float:
    """Objects/second: ``add`` one at a time, or ``add_many`` *batch* at
    a time (each call's row dicts are built inside the timed region, as
    the single series builds its keyword arguments)."""
    manager = MemoryManager()
    coll = Collection(Lineitem, manager=manager)
    if batch == 1:
        def add_one(i):
            coll.add(orderkey=i)
    else:
        def add_one(i):
            coll.add_many([{"orderkey": i * batch + j} for j in range(batch)])
    rate = allocation_throughput(add_one, _COUNT // batch, threads) * batch
    manager.close()
    return rate


@pytest.fixture(scope="module")
def report():
    rep = FigureReport(
        "Figure 7", "batch allocation throughput", "objects/second"
    )
    yield rep
    rep.print()


def test_fig07_throughput_matrix(report, benchmark):
    def _run():
            results = {}
            for threads in _THREADS:
                batch, interactive = _managed_throughput_both(_pure_sink, threads)
                results[("pure", "batch", threads)] = batch
                results[("pure", "interactive", threads)] = interactive
                batch, interactive = _managed_throughput_both(_bag_sink, threads)
                results[("bag", "batch", threads)] = batch
                results[("bag", "interactive", threads)] = interactive
                batch, interactive = _managed_throughput_both(_dict_sink, threads)
                results[("dict", "batch", threads)] = batch
                results[("dict", "interactive", threads)] = interactive
                results[("smc", "any", threads)] = _smc_throughput(threads)
                results[("smc add_many", "any", threads)] = _smc_throughput(
                    threads, _BATCH
                )
            for (series, mode, threads), rate in results.items():
                report.record(f"{series} ({mode})", f"{threads}T", rate)
            for threads in _THREADS:
                # Batch GC must beat interactive GC for managed allocation
                # (the paper's consistent finding on this benchmark)...
                assert (
                    results[("pure", "batch", threads)]
                    > results[("pure", "interactive", threads)]
                )
                # ...and SMC allocation must stay in the same league as the
                # thread-safe managed collections.  NOTE (EXPERIMENTS.md):
                # the paper's SMC > pure-allocation ordering inverts in
                # CPython, where object allocation is a pooled pointer
                # bump while SMC construction serialises field bytes.
                assert (
                    results[("smc", "any", threads)]
                    > results[("dict", "batch", threads)] / 5
                )
            # GC-free SMC throughput is stable across thread counts.
            assert (
                results[("smc", "any", 4)]
                > results[("smc", "any", 1)] * 0.5
            )

    benchmark.pedantic(_run, rounds=1, iterations=1)

@pytest.mark.parametrize("kind", ["pure", "bag", "dict", "smc", "smc-add_many"])
def test_fig07_single_thread_benchmark(benchmark, kind):
    """One object per call; ``smc-add_many`` adds ``_BATCH`` per call."""
    if kind.startswith("smc"):
        manager = MemoryManager()
        coll = Collection(Lineitem, manager=manager)
        counter = iter(range(10**9))

        def unit():
            coll.add(orderkey=next(counter))

        def batch():
            coll.add_many([{"orderkey": next(counter)} for __ in range(_BATCH)])

        benchmark(unit if kind == "smc" else batch)
        manager.close()
        return
    sinks = {"pure": _pure_sink, "bag": _bag_sink, "dict": _dict_sink}
    __, add_one = sinks[kind]()
    counter = iter(range(10**9))
    benchmark(lambda: add_one(next(counter)))
