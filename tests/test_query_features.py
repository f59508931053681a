"""Extended query features: case_when, year_of, having, distinct, explain,
and the extra TPC-H queries (Q7/Q10/Q12/Q14)."""

import datetime
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.managed.collections_ import ManagedList
from repro.memory.manager import MemoryManager
from repro.query.builder import Count, Sum
from repro.query.expressions import case_when, param, year_of

from tests.schemas import TEverything, TOrder, TPerson


@pytest.fixture
def trio(manager):
    """The same small dataset in SMC, columnar and managed form."""
    smc = Collection(TEverything, manager=manager)
    Collection(TPerson, manager=manager)
    m2 = MemoryManager()
    col = ColumnarCollection(TEverything, manager=m2)
    ColumnarCollection(TPerson, manager=m2)
    ml = ManagedList(TEverything)
    for i in range(60):
        row = dict(
            i32=i,
            price=Decimal(i),
            code=f"c{i % 3}",
            day=datetime.date(2019 + (i % 4), 3, 1),
            flag=bool(i % 2),
        )
        smc.add(**row)
        col.add(**row)
        ml.add(**row)
    yield smc, col, ml
    m2.close()


def _all_engines(build, trio, **params):
    smc, col, ml = trio
    results = [
        sorted(build(smc).run(params=params).rows, key=repr),
        sorted(build(col).run(params=params).rows, key=repr),
        sorted(build(ml).run(params=params).rows, key=repr),
        sorted(build(ml).run(engine="interpreted", params=params).rows, key=repr),
        sorted(
            build(smc).run(engine="smc-safe", params=params).rows, key=repr
        ),
    ]
    first = results[0]
    for other in results[1:]:
        assert other == first
    return first


def test_case_when_in_aggregate(trio):
    def build(src):
        return src.query().aggregate(
            evens=Sum(case_when(TEverything.flag == False, 1, 0)),  # noqa: E712
            odds=Sum(case_when(TEverything.flag == True, 1, 0)),  # noqa: E712
        )

    rows = _all_engines(build, trio)
    assert rows == [(30, 30)]


def test_case_when_with_decimal_branches(trio):
    def build(src):
        return src.query().aggregate(
            cheap=Sum(
                case_when(TEverything.price < 30, TEverything.price, 0)
            ),
        )

    rows = _all_engines(build, trio)
    assert rows[0][0] == sum(Decimal(i) for i in range(30))


def test_year_of_grouping(trio):
    def build(src):
        return (
            src.query()
            .group_by(year=year_of(TEverything.day))
            .aggregate(n=Count())
            .order_by("year")
        )

    rows = _all_engines(build, trio)
    assert [r[0] for r in rows] == [2019, 2020, 2021, 2022]
    assert all(r[1] == 15 for r in rows)


def test_having_filters_groups(trio):
    def build(src):
        return (
            src.query()
            .where(TEverything.i32 < param("cap"))
            .group_by(code=TEverything.code)
            .aggregate(n=Count())
            .having("n", ">=", 2)
            .order_by("code")
        )

    rows = _all_engines(build, trio, cap=5)
    # codes c0 (0,3), c1 (1,4), c2 (2) -> c2 filtered out.
    assert rows == [("c0", 2), ("c1", 2)]


def test_having_unknown_operator_rejected(trio):
    smc, __, ___ = trio
    with pytest.raises(ValueError):
        smc.query().group_by(c=TEverything.code).aggregate(n=Count()).having(
            "n", "~", 1
        )


def test_distinct(trio):
    def build(src):
        return src.query().select(code=TEverything.code).distinct()

    rows = _all_engines(build, trio)
    assert sorted(rows) == [("c0",), ("c1",), ("c2",)]


def test_explain_mentions_backend_and_ops(trio):
    smc, __, ml = trio
    text = smc.query().where(TEverything.i32 > 1).explain()
    assert "smc-unsafe" in text
    assert "where[" in text
    assert "TEverything" in text
    assert "managed" in ml.query().explain()


class TestExtraTpchQueries:
    @pytest.fixture(scope="class")
    def engines(self, tpch_tiny):
        from repro.tpch.loader import load_managed, load_smc

        return {
            "smc": load_smc(tpch_tiny),
            "columnar": load_smc(tpch_tiny, columnar=True),
            "list": load_managed(tpch_tiny, "list"),
        }

    @pytest.mark.parametrize("qname", ["q7", "q10", "q12", "q14"])
    def test_cross_engine_agreement(self, qname, engines):
        from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES

        reference = None
        for label, colls in engines.items():
            got = sorted(
                EXTRA_QUERIES[qname](colls).run(params=DEFAULT_PARAMS).rows,
                key=repr,
            )
            if reference is None:
                reference = got
            assert got == reference, f"{qname}: {label}"
        interp = sorted(
            EXTRA_QUERIES[qname](engines["list"])
            .run(engine="interpreted", params=DEFAULT_PARAMS)
            .rows,
            key=repr,
        )
        assert interp == reference

    def test_q12_counts_are_conditional(self, engines):
        from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES

        result = EXTRA_QUERIES["q12"](engines["smc"]).run(params=DEFAULT_PARAMS)
        assert result.columns == ["shipmode", "high_line_count", "low_line_count"]
        for __, high, low in result.rows:
            assert high >= 0 and low >= 0
            assert high + low > 0

    def test_q14_promo_share_sane(self, engines):
        from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES

        result = EXTRA_QUERIES["q14"](engines["smc"]).run(params=DEFAULT_PARAMS)
        promo, total = result.rows[0]
        assert 0 <= promo <= total
