"""Compiler internals: value semantics, caching, flavour names."""

import datetime
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.query.builder import Count, Sum
from repro.query.compiler import (
    CompileError,
    _to_raw,
    clear_cache,
    get_compiled,
)
from repro.query.expressions import param

from tests.schemas import TEverything, TPerson


@pytest.fixture
def rows(manager):
    coll = Collection(TEverything, manager=manager)
    Collection(TPerson, manager=manager)
    for i in range(50):
        coll.add(
            i32=i,
            i64=i * 1000,
            price=Decimal(i) / 2,
            fine=Decimal(i) / 16,
            ratio=i / 3,
            day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i),
            code=f"c{i % 4}",
            memo=f"memo {i}",
            flag=bool(i % 2),
        )
    return coll


def _both(q, **params):
    a = q.run(engine="compiled", params=params).rows
    b = q.run(engine="interpreted", params=params).rows
    return sorted(a, key=repr), sorted(b, key=repr)


def test_decimal_times_decimal_scale_sum(rows):
    # price (scale 2) * fine (scale 4) -> scale 6 in raw algebra.
    q = rows.query().aggregate(v=Sum(TEverything.price * TEverything.fine))
    compiled, interp = _both(q)
    assert float(compiled[0][0]) == pytest.approx(float(interp[0][0]))


def test_decimal_plus_int_alignment(rows):
    q = rows.query().where(TEverything.price + 1 > Decimal("20")).aggregate(
        n=Count()
    )
    compiled, interp = _both(q)
    assert compiled == interp


def test_decimal_division_goes_float(rows):
    q = rows.query().where(TEverything.price / 2 > 5).aggregate(n=Count())
    compiled, interp = _both(q)
    assert compiled[0][0] == interp[0][0]


def test_date_param_conversion(rows):
    q = rows.query().where(TEverything.day >= param("d")).aggregate(n=Count())
    compiled, interp = _both(q, d=datetime.date(2020, 2, 1))
    assert compiled == interp
    assert compiled[0][0] == 19


def test_char_param_conversion(rows):
    q = rows.query().where(TEverything.code == param("c")).aggregate(n=Count())
    compiled, interp = _both(q, c="c1")
    assert compiled == interp


def test_varstring_predicate(rows):
    q = rows.query().where(TEverything.memo.contains("4")).select(
        memo=TEverything.memo
    )
    compiled, interp = _both(q)
    assert compiled == interp
    assert any("4" in m[0] for m in compiled)


def test_bool_field_roundtrip(rows):
    q = rows.query().where(TEverything.flag == True).aggregate(n=Count())  # noqa: E712
    compiled, interp = _both(q)
    assert compiled[0][0] == 25


def test_float_arithmetic(rows):
    q = rows.query().aggregate(v=Sum(TEverything.ratio * 2))
    compiled, interp = _both(q)
    assert compiled[0][0] == pytest.approx(interp[0][0])


def test_retired_scalar_flavor_is_unknown(rows):
    """The per-row raw-struct flavour is gone, not aliased."""
    q = rows.query().where(TEverything.i32 >= param("lo")).select(v=TEverything.i32)
    with pytest.raises(CompileError):
        get_compiled(q, "smc-unsafe-scalar")


def test_cache_distinguishes_flavors(rows):
    q = rows.query().select(v=TEverything.i32)
    a = get_compiled(q, "managed")
    b = get_compiled(q, "smc-safe")
    assert a is not b
    assert get_compiled(q, "smc-safe") is b


def test_cache_distinguishes_query_structure(rows):
    q1 = rows.query().where(TEverything.i32 > 1).select(v=TEverything.i32)
    q2 = rows.query().where(TEverything.i32 > 2).select(v=TEverything.i32)
    assert get_compiled(q1, "smc-safe") is not get_compiled(q2, "smc-safe")


def test_param_does_not_change_cache_identity(rows):
    q = rows.query().where(TEverything.i32 > param("x")).select(v=TEverything.i32)
    before = get_compiled(q, "smc-safe")
    q.run(engine="smc-safe", x=10)
    q.run(engine="smc-safe", x=40)
    assert get_compiled(q, "smc-safe") is before


def test_clear_cache(rows):
    q = rows.query().select(v=TEverything.i32)
    a = get_compiled(q, "smc-safe")
    clear_cache()
    assert get_compiled(q, "smc-safe") is not a


def test_to_raw_helper():
    assert _to_raw(datetime.date(1970, 1, 2), ("date", None)) == 1
    assert _to_raw(Decimal("2.50"), ("decimal", 2)) == 250
    assert _to_raw("ab", ("str", 4)) == b"ab\x00\x00"
    assert _to_raw(7, ("int", None)) == 7
