"""TPC-H end-to-end: loaders and Q1–Q6 value agreement across ALL engines.

This is the repo's strongest correctness check: one generated dataset is
loaded into every storage engine — row SMC (indirect and direct-pointer),
columnar SMC, ManagedList, ManagedDictionary, and the RDBMS column store —
and all six evaluation queries must produce identical values everywhere
(compiled and interpreted).
"""

from decimal import Decimal

import pytest

from repro.memory.manager import MemoryManager
from repro.rdbms.queries import run_plan
from repro.tpch import DEFAULT_PARAMS, generate, load_managed, load_rdbms, load_smc
from repro.tpch.queries import QUERIES


def _norm_rows(rows):
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Decimal):
                cells.append(round(float(cell), 4))
            elif isinstance(cell, float):
                cells.append(round(cell, 4))
            else:
                cells.append(cell)
        out.append(tuple(cells))
    return sorted(out, key=repr)


@pytest.fixture(scope="module")
def engines(tpch_tiny):
    smc = load_smc(tpch_tiny)
    direct = load_smc(tpch_tiny, manager=MemoryManager(direct_pointers=True))
    columnar = load_smc(tpch_tiny, columnar=True)
    mlist = load_managed(tpch_tiny, "list")
    mdict = load_managed(tpch_tiny, "dict")
    rdbms = load_rdbms(tpch_tiny)
    return {
        "smc": smc,
        "smc-direct": direct,
        "columnar": columnar,
        "list": mlist,
        "dict": mdict,
        "rdbms": rdbms,
    }


def test_loaders_preserve_row_counts(tpch_tiny, engines):
    for label in ("smc", "columnar"):
        colls = engines[label]
        for table, count in tpch_tiny.row_counts().items():
            assert len(colls[table]) == count, (label, table)
    assert len(engines["rdbms"]["lineitem"]) == len(tpch_tiny.lineitem)


def test_smc_references_navigate(engines):
    li = next(iter(engines["smc"]["lineitem"]))
    assert li.order.orderkey == li.orderkey
    assert li.part.partkey == li.partkey
    assert li.supplier.suppkey == li.suppkey
    assert li.order.customer.nation.region.name in (
        "AFRICA",
        "AMERICA",
        "ASIA",
        "EUROPE",
        "MIDDLE EAST",
    )


def test_managed_references_navigate(engines):
    li = engines["list"]["lineitem"].records_list()[0]
    assert li.order.orderkey == li.orderkey
    assert li.order.customer.nation.region.name


def test_rdbms_clustered_indexes_exist(engines):
    assert "shipdate" in engines["rdbms"]["lineitem"].clustered
    assert "orderdate" in engines["rdbms"]["orders"].clustered


@pytest.mark.parametrize("qname", ["q1", "q2", "q3", "q4", "q5", "q6"])
def test_query_value_agreement(qname, engines):
    reference = None
    for label in ("smc", "smc-direct", "columnar", "list", "dict"):
        colls = engines[label]
        query = QUERIES[qname](colls)
        compiled = _norm_rows(query.run(params=DEFAULT_PARAMS).rows)
        if reference is None:
            reference = compiled
            assert reference, f"{qname} produced no rows at this scale"
        assert compiled == reference, f"{qname}: {label} compiled diverges"
    # Interpreted engine on two representatives (slow, so not all five).
    for label in ("smc", "list"):
        query = QUERIES[qname](engines[label])
        interp = _norm_rows(
            query.run(engine="interpreted", params=DEFAULT_PARAMS).rows
        )
        assert interp == reference, f"{qname}: {label} interpreted diverges"
    # The generated smc-safe engine (the paper's SMC (C#) series).
    query = QUERIES[qname](engines["smc"])
    safe = _norm_rows(
        query.run(engine="smc-safe", params=DEFAULT_PARAMS).rows
    )
    assert safe == reference, f"{qname}: smc-safe diverges"
    # The relational comparator.
    __, rows = run_plan(qname, engines["rdbms"], DEFAULT_PARAMS)
    assert _norm_rows(rows) == reference, f"{qname}: rdbms diverges"


def test_q1_group_count(engines):
    result = QUERIES["q1"](engines["smc"]).run(params=DEFAULT_PARAMS)
    flags = {(r[0], r[1]) for r in result.rows}
    assert flags <= {("A", "F"), ("R", "F"), ("N", "F"), ("N", "O")}
    assert len(flags) >= 3


def test_q3_returns_top10_by_revenue(engines):
    result = QUERIES["q3"](engines["smc"]).run(params=DEFAULT_PARAMS)
    revenues = result.column("revenue")
    assert revenues == sorted(revenues, reverse=True)
    assert len(result) <= 10


def test_q6_single_scalar(engines):
    result = QUERIES["q6"](engines["smc"]).run(params=DEFAULT_PARAMS)
    assert len(result) == 1
    assert result.rows[0][0] > 0


def test_parameter_sensitivity(engines):
    """Changing a parameter changes results without recompiling."""
    import datetime

    q = QUERIES["q6"](engines["smc"])
    p1 = dict(DEFAULT_PARAMS)
    p2 = dict(DEFAULT_PARAMS, q6_date=datetime.date(1993, 1, 1),
              q6_date_hi=datetime.date(1994, 1, 1))
    r1 = q.run(params=p1).rows[0][0]
    r2 = q.run(params=p2).rows[0][0]
    assert r1 != r2


@pytest.mark.parametrize("qname", ["q7", "q10", "q12", "q14"])
def test_extra_query_rdbms_agreement(qname, engines):
    """The comparator's plans for the extra queries match the SMC engines."""
    from repro.tpch.queries import EXTRA_QUERIES

    smc_rows = _norm_rows(
        EXTRA_QUERIES[qname](engines["smc"]).run(params=DEFAULT_PARAMS).rows
    )
    __, rows = run_plan(qname, engines["rdbms"], DEFAULT_PARAMS)
    assert _norm_rows(rows) == smc_rows
