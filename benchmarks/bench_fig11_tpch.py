"""Figure 11 — TPC-H queries 1–6 on managed collections vs SMCs.

Series (all compiled, as in the paper): List<T>, ConcurrentDictionary,
SMC with managed-equivalent code ("SMC (C#)" → ``engine="smc-safe"``),
and SMC with raw-representation access ("SMC (unsafe C#)" → the default
compiled engine, the vectorised kernels).  Values are evaluation time
relative to List.

Expected shape (paper): SMC (unsafe) beats List by 47–80%; the gap to
the safe engine is largest on the decimal-heavy Q1; ConcurrentDictionary
never beats List.  Known divergence (see EXPERIMENTS.md): the navigation-
heavy Q2/Q3/Q5 favour managed Python objects, whose attribute chasing is
cheaper relative to block gathers than C# object access is relative to
pointer arithmetic.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import FigureReport, time_callable
from repro.tpch.queries import DEFAULT_PARAMS, QUERIES

QNAMES = ["q1", "q2", "q3", "q4", "q5", "q6"]


@pytest.fixture(scope="module")
def report():
    rep = FigureReport(
        "Figure 11", "TPC-H Q1-Q6, evaluation time relative to List", "x List"
    )
    yield rep
    rep.print()


def _time_query(collections, qname, engine="compiled") -> float:
    query = QUERIES[qname](collections)
    return time_callable(
        lambda: query.run(engine=engine, params=DEFAULT_PARAMS), repeat=3
    )


def test_fig11_relative_times(report, managed_list, managed_dict, smc, benchmark):
    def _run():
            for qname in QNAMES:
                base = _time_query(managed_list, qname)
                report.record("List", qname, 1.0)
                report.record(
                    "C. Dictionary", qname, _time_query(managed_dict, qname) / base
                )
                report.record(
                    "SMC (safe)", qname, _time_query(smc, qname, "smc-safe") / base
                )
                report.record("SMC (unsafe)", qname, _time_query(smc, qname) / base)
            # Paper's headline: SMC (unsafe) significantly beats List on the
            # scan/aggregation-dominated queries.
            for qname in ("q1", "q6"):
                unsafe = report.series["SMC (unsafe)"].value_at(qname)
                assert unsafe < 0.9, f"{qname}: SMC (unsafe) should beat List"
            # Q1's decimal math is where raw in-place access pays off most.
            q1_gap = report.series["SMC (safe)"].value_at("q1") / report.series[
                "SMC (unsafe)"
            ].value_at("q1")
            assert q1_gap > 2.0

    benchmark.pedantic(_run, rounds=1, iterations=1)

@pytest.mark.parametrize("qname", QNAMES)
def test_fig11_smc_unsafe_benchmark(benchmark, smc, qname):
    query = QUERIES[qname](smc)
    benchmark(lambda: query.run(params=DEFAULT_PARAMS))


@pytest.mark.parametrize("qname", QNAMES)
def test_fig11_list_benchmark(benchmark, managed_list, qname):
    query = QUERIES[qname](managed_list)
    benchmark(lambda: query.run(params=DEFAULT_PARAMS))
