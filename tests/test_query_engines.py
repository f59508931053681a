"""Query builder + engine agreement on randomized data.

The compiled engines (generated managed and smc-safe code, the
vectorised engine on both layouts) must produce exactly the results of
the interpreted reference engine for every plan shape.  Hypothesis
drives randomized datasets through a fixed set of plan shapes covering
filters, navigation, grouping, aggregation, semi-joins, ordering and
limits.
"""

import datetime
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.managed.collections_ import ManagedList
from repro.memory.manager import MemoryManager
from repro.query.builder import Avg, Count, Max, Min, Sum
from repro.query.compiler import CompileError, compiled_source
from repro.query.expressions import param

from tests.schemas import TOrder, TPerson


def _norm(rows):
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Decimal):
                cells.append(round(float(cell), 6))
            elif isinstance(cell, float):
                cells.append(round(cell, 6))
            else:
                cells.append(cell)
        out.append(tuple(cells))
    return sorted(out, key=repr)


def _build_sources(people, orders):
    m = MemoryManager()
    smc_p = Collection(TPerson, manager=m)
    smc_o = Collection(TOrder, manager=m)
    ml_p = ManagedList(TPerson)
    ml_o = ManagedList(TOrder)
    m2 = MemoryManager()
    col_p = ColumnarCollection(TPerson, manager=m2)
    col_o = ColumnarCollection(TOrder, manager=m2)
    smc_handles, ml_handles, col_handles = [], [], []
    for p in people:
        smc_handles.append(smc_p.add(**p))
        ml_handles.append(ml_p.add(**p))
        col_handles.append(col_p.add(**p))
    for o in orders:
        idx = o.pop("owner_idx")
        smc_o.add(owner=smc_handles[idx], **o)
        ml_o.add(owner=ml_handles[idx], **o)
        col_o.add(owner=col_handles[idx], **o)
        o["owner_idx"] = idx
    return {
        "smc": (smc_p, smc_o, m),
        "managed": (ml_p, ml_o, None),
        "columnar": (col_p, col_o, m2),
    }


people_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(["ann", "bob", "cal", "dot", "eli"]),
            "age": st.integers(min_value=0, max_value=90),
            "balance": st.decimals(
                min_value=-1000, max_value=1000, places=2, allow_nan=False
            ),
        }
    ),
    min_size=1,
    max_size=25,
)


@st.composite
def dataset(draw):
    people = draw(people_strategy)
    orders = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "orderkey": st.integers(min_value=0, max_value=10**6),
                    "owner_idx": st.integers(
                        min_value=0, max_value=len(people) - 1
                    ),
                    "total": st.decimals(
                        min_value=0, max_value=5000, places=2, allow_nan=False
                    ),
                    "placed": st.dates(
                        min_value=datetime.date(1990, 1, 1),
                        max_value=datetime.date(2030, 1, 1),
                    ),
                }
            ),
            min_size=0,
            max_size=40,
        )
    )
    return people, orders


def _check_plan(sources, build, params):
    reference = None
    for label, (pcoll, ocoll, mgr) in sources.items():
        q = build(pcoll, ocoll)
        got = _norm(q.run(engine="compiled", params=params).rows)
        interp = _norm(q.run(engine="interpreted", params=params).rows)
        assert got == interp, f"{label} compiled != interpreted"
        if label == "smc":
            safe = _norm(q.run(engine="smc-safe", params=params).rows)
            assert safe == interp, "smc-safe != interpreted"
        if reference is None:
            reference = got
        else:
            assert got == reference, f"{label} != first engine"
    for __, (___, ____, mgr) in sources.items():
        if mgr is not None:
            mgr.close()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=dataset())
def test_filter_group_aggregate(data):
    people, orders = data
    sources = _build_sources(people, orders)

    def build(pcoll, __):
        return (
            pcoll.query()
            .where(TPerson.age >= param("lo"))
            .group_by(name=TPerson.name)
            .aggregate(
                n=Count(),
                total=Sum(TPerson.balance),
                avg_age=Avg(TPerson.age),
                young=Min(TPerson.age),
                old=Max(TPerson.age),
            )
            .order_by("name")
        )

    _check_plan(sources, build, {"lo": 30})


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=dataset())
def test_navigation_and_select(data):
    people, orders = data
    sources = _build_sources(people, orders)

    def build(__, ocoll):
        return (
            ocoll.query()
            .where(TOrder.owner.ref("age") < param("hi"))
            .where(TOrder.placed >= param("since"))
            .select(
                okey=TOrder.orderkey,
                owner_name=TOrder.owner.ref("name"),
                weighted=TOrder.total * 2,
            )
        )

    _check_plan(
        sources, build, {"hi": 50, "since": datetime.date(2000, 1, 1)}
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=dataset())
def test_semijoin_where_in(data):
    people, orders = data
    sources = _build_sources(people, orders)

    def build(pcoll, ocoll):
        rich = pcoll.query().where(
            TPerson.balance > param("floor")
        ).select(name=TPerson.name)
        return (
            ocoll.query()
            .where_in(TOrder.owner.ref("name"), rich)
            .group_by(owner=TOrder.owner.ref("name"))
            .aggregate(total=Sum(TOrder.total))
            .order_by("owner")
        )

    _check_plan(sources, build, {"floor": Decimal("100.00")})


def test_order_by_and_take(manager):
    persons = Collection(TPerson, manager=manager)
    for i in range(20):
        persons.add(name=f"p{i % 4}", age=i, balance=Decimal(i))
    q = (
        persons.query()
        .select(name=TPerson.name, age=TPerson.age)
        .order_by("-age")
        .take(3)
    )
    top = q.run().rows
    assert [r[1] for r in top] == [19, 18, 17]
    assert q.run(engine="interpreted").rows == top


def test_enumeration_returns_refs(manager):
    persons = Collection(TPerson, manager=manager)
    handles = [persons.add(name=f"p{i}", age=i) for i in range(5)]
    result = persons.query().where(TPerson.age >= 3).run()
    assert len(result) == 2
    # Compiled enumeration yields references (paper section 4 listing).
    addresses = {r.address() for r in result.rows}
    assert addresses == {h.ref.address() for h in handles[3:]}


def test_count_helper(manager):
    persons = Collection(TPerson, manager=manager)
    for i in range(10):
        persons.add(name="x", age=i)
    assert persons.query().where(TPerson.age < 4).count() == 4


def test_between_and_isin(manager):
    persons = Collection(TPerson, manager=manager)
    for i in range(30):
        persons.add(name=f"n{i % 5}", age=i)
    q = (
        persons.query()
        .where(TPerson.age.between(param("lo"), param("hi")))
        .where(TPerson.name.isin(["n0", "n1"]))
        .select(age=TPerson.age)
    )
    got = sorted(q.run(lo=5, hi=15).column("age"))
    expect = sorted(
        i for i in range(5, 16) if i % 5 in (0, 1)
    )
    assert got == expect
    assert sorted(q.run(engine="interpreted", lo=5, hi=15).column("age")) == expect


def test_string_predicates_compiled(manager):
    persons = Collection(TPerson, manager=manager)
    for name in ["Adam", "Ada", "Eve", "Adrian", "Bob"]:
        persons.add(name=name, age=1)
    q = persons.query().where(TPerson.name.startswith("Ad")).select(
        name=TPerson.name
    )
    assert sorted(q.run().column("name")) == ["Ada", "Adam", "Adrian"]
    q2 = persons.query().where(TPerson.name.contains("v")).select(
        name=TPerson.name
    )
    assert q2.run().column("name") == ["Eve"]


def test_compiled_source_is_cached_and_inspectable(manager):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    q = persons.query().where(TPerson.age > param("n")).select(a=TPerson.age)
    src = compiled_source(q, "smc-safe")
    assert "def __query" in src
    assert "valid_slots" in src
    assert "decode_from" in src
    from repro.query.compiler import get_compiled

    assert get_compiled(q, "smc-safe") is get_compiled(q, "smc-safe")


def test_double_projection_rejected(manager):
    persons = Collection(TPerson, manager=manager)
    q = persons.query().select(a=TPerson.age).select(b=TPerson.age)
    with pytest.raises(CompileError):
        q.run()


def test_unknown_engine_rejected(manager):
    """An engine is named, never aliased: the retired per-row raw-struct
    engine and the vectorised engine's own name are unknown too."""
    persons = Collection(TPerson, manager=manager)
    q = persons.query().where(TPerson.age >= param("lo")).select(a=TPerson.age)
    for engine in ("quantum", "smc-unsafe-scalar", "smc-unsafe", "columnar"):
        with pytest.raises(ValueError):
            q.run(engine=engine, params={"lo": 10})


def test_smc_safe_refuses_direct_pointers(direct_manager):
    """Generated ``smc-safe`` code navigates through the indirection
    table: over direct in-row pointers it is refused before a byte is
    decoded, while the vectorised engine answers the same query."""
    persons = Collection(TPerson, manager=direct_manager)
    orders = Collection(TOrder, manager=direct_manager)
    owner = persons.add(name="ann", age=30)
    orders.add(orderkey=1, owner=owner, total=Decimal(5),
               placed=datetime.date(2000, 1, 1))
    q = orders.query().select(age=TOrder.owner.ref("age"))
    with pytest.raises(CompileError):
        q.run(engine="smc-safe")
    assert q.run().rows == [(30,)]


# ----------------------------------------------------------------------
# CHAR trailing spaces: every engine on both layouts
# ----------------------------------------------------------------------

CHAR_NAMES = ["AIR  ", "AIR", "MAIL ", "RAIL", "AIR ", "SHIP"]


def _char_queries(people, orders):
    short = people.query().where(TPerson.age < 3).select(name=TPerson.name)
    return {
        "eq": people.query().where(TPerson.name == "AIR").aggregate(n=Count()),
        "ne": people.query().where(TPerson.name != "AIR").aggregate(n=Count()),
        "inset": people.query()
        .where(TPerson.name.isin(["AIR", "MAIL"]))
        .aggregate(n=Count()),
        "group": people.query()
        .group_by(name=TPerson.name)
        .aggregate(n=Count(), age=Sum(TPerson.age))
        .order_by("name"),
        "order": people.query()
        .select(name=TPerson.name, age=TPerson.age)
        .order_by("name", "-age"),
        "semijoin": orders.query()
        .where_in(TOrder.owner.ref("name"), short)
        .select(key=TOrder.orderkey)
        .order_by("key"),
    }


@pytest.mark.parametrize("layout", [Collection, ColumnarCollection])
def test_char_values_compare_without_trailing_spaces(layout):
    """SQL CHAR ignores trailing spaces: ``"AIR  "`` and ``"AIR"`` are one
    value to every engine on both layouts — equal, one group, one sort
    key, one semi-join key.  The vectorised engine compares the stored
    bytes, so this holds because every write stores them canonically."""
    manager = MemoryManager()
    people = layout(TPerson, manager=manager)
    orders = layout(TOrder, manager=manager)
    for age, name in enumerate(CHAR_NAMES):
        owner = people.add(name=name, age=age, balance=Decimal(age))
        orders.add(orderkey=age, owner=owner, total=Decimal(1),
                   placed=datetime.date(2000, 1, 1))
    expected = {
        "eq": [(3,)],
        "ne": [(3,)],
        "inset": [(4,)],
        "group": [("AIR", 3, 5), ("MAIL", 1, 2), ("RAIL", 1, 3), ("SHIP", 1, 5)],
        "order": [("AIR", 4), ("AIR", 1), ("AIR", 0), ("MAIL", 2),
                  ("RAIL", 3), ("SHIP", 5)],
        "semijoin": [(0,), (1,), (2,), (4,)],
    }
    runs = {
        "vectorised": lambda q: q.run(),
        "interpreted": lambda q: q.run(engine="interpreted"),
    }
    if layout is Collection:  # generated slot code reads row blocks only
        runs["smc-safe"] = lambda q: q.run(engine="smc-safe")
    try:
        for name, query in _char_queries(people, orders).items():
            for engine, run in runs.items():
                rows = [tuple(row) for row in run(query).rows]
                assert rows == expected[name], (name, engine)
    finally:
        manager.close()
