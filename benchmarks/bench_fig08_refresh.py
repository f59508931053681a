"""Figure 8 — TPC-H refresh-stream throughput.

Two stream kinds run with equal frequency: inserts of 0.1% of the
initial lineitem population, and single-enumeration removals of 0.1%
picked by ``orderkey`` through a hash set.  The paper reports streams per
minute for 1/2/4 threads; SMCs beat ConcurrentDictionary (List<T> is not
thread-safe and only appears in the single-threaded column).

Two SMC series: ``SMC`` hands each stream to ``add_many`` /
``remove_many`` (one call per stream, the write path a served ``mutate``
takes), ``SMC (add)`` adds and removes object by object.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import FigureReport
from repro.bench.workloads import RefreshStreams, lineitem_values
from repro.core.collection import Collection
from repro.managed.collections_ import ManagedDictionary, ManagedList
from repro.memory.manager import MemoryManager
from repro.tpch.schema import Lineitem

_POPULATION = 10_000
_SECONDS = 0.6
_THREADS = (1, 2, 4)


def _smc_streams(batch: bool = True):
    manager = MemoryManager()
    coll = Collection(Lineitem, manager=manager)
    rnd = random.Random(4)
    for i in range(_POPULATION):
        coll.add(**lineitem_values(rnd, i))

    def insert(values):
        coll.add(**values)

    def keys():
        return [h.orderkey for h in coll]

    def remove_by_orderkeys(victims):
        doomed = [h for h in list(coll) if h.orderkey in victims]
        if batch:
            coll.remove_many(doomed)
        else:
            for h in doomed:
                coll.remove(h)
        return len(doomed)

    streams = RefreshStreams(
        insert, keys, remove_by_orderkeys, _POPULATION,
        insert_many=coll.add_many if batch else None,
    )
    return manager, streams


def _dict_streams():
    coll = ManagedDictionary(Lineitem, key="orderkey")
    rnd = random.Random(4)
    for i in range(_POPULATION):
        coll.add(**lineitem_values(rnd, i))

    def insert(values):
        coll.add(**values)

    def keys():
        return [r.orderkey for r in coll.records_list()]

    def remove_by_orderkeys(victims):
        removed = 0
        for r in coll.records_list():
            if r.orderkey in victims and coll.remove(r.orderkey):
                removed += 1
        return removed

    streams = RefreshStreams(insert, keys, remove_by_orderkeys, _POPULATION)
    return None, streams


def _list_streams():
    coll = ManagedList(Lineitem)
    rnd = random.Random(4)
    for i in range(_POPULATION):
        coll.add(**lineitem_values(rnd, i))

    def insert(values):
        coll.add(**values)

    def keys():
        return [r.orderkey for r in coll]

    def remove_by_orderkeys(victims):
        return coll.remove_where(lambda r: r.orderkey in victims)

    streams = RefreshStreams(insert, keys, remove_by_orderkeys, _POPULATION)
    return None, streams


@pytest.fixture(scope="module")
def report():
    rep = FigureReport("Figure 8", "refresh-stream throughput", "streams/minute")
    yield rep
    rep.print()


def test_fig08_streams(report, benchmark):
    def _run():
            results = {}
            for threads in _THREADS:
                manager, smc = _smc_streams()
                results[("SMC", threads)] = smc.throughput(_SECONDS, threads)
                manager.close()
                manager, smc = _smc_streams(batch=False)
                results[("SMC (add)", threads)] = smc.throughput(_SECONDS, threads)
                manager.close()
                __, md = _dict_streams()
                results[("C. Dictionary", threads)] = md.throughput(_SECONDS, threads)
                if threads == 1:  # List<T> is not thread-safe (paper note)
                    __, ml = _list_streams()
                    results[("List", threads)] = ml.throughput(_SECONDS, threads)
            for (series, threads), rate in results.items():
                report.record(series, f"{threads}T", rate)
            for threads in _THREADS:
                assert results[("SMC", threads)] > 0
                assert results[("C. Dictionary", threads)] > 0
            # Paper shape: SMCs sustain at least comparable refresh throughput.
            assert (
                results[("SMC", 1)]
                > results[("C. Dictionary", 1)] * 0.3
            )

    benchmark.pedantic(_run, rounds=1, iterations=1)

@pytest.mark.parametrize("kind", ["smc", "smc-add", "dict", "list"])
def test_fig08_single_stream_benchmark(benchmark, kind):
    factories = {
        "smc": _smc_streams,
        "smc-add": lambda: _smc_streams(batch=False),
        "dict": _dict_streams,
        "list": _list_streams,
    }
    manager, streams = factories[kind]()

    def one_pair():
        streams.run_insert_stream()
        streams.run_delete_stream()

    benchmark(one_pair)
    if manager:
        manager.close()
