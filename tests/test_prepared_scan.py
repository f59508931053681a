"""Prepare once, bind per request: the vectorised engine's scan plans.

Three kinds of test, none of which reads a clock:

* count gates on a TPC-H store: after its first execution, one ``Query``
  run again with *different* parameters makes zero calls to the planning
  functions (``plan_scan``, ``order_filters``, ``split_conjuncts``,
  ``table_stats``, ``derive_zone_tests``) — semi-join subqueries
  included — and binding it to them scans nothing;
* differentials over a parameter sweep that mixes fully zone-pruned
  windows with unpruned ones on the same prepared scan, against a freshly
  built ``Query`` and against the interpreted engine;
* invalidation traps: what a prepared scan must *not* freeze (dictionary
  code sets, zone bounds, the index key, anything per request) and what
  re-prepares it (a drift of the store's coarse statistics stamp).
"""

from __future__ import annotations

import collections
import datetime
import sys
import threading
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.memory.manager import MemoryManager
from repro.query import columnar_exec, compiler, planner
from repro.query.expressions import param
from repro.service.server import QueryService
from repro.tpch.loader import load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES
from repro.tpch.schema import Lineitem as L

from tests.schemas import TNote, TPerson
from tests.seams import unplanned

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}

PLANNING = (
    "plan_scan",
    "order_filters",
    "split_conjuncts",
    "table_stats",
    "derive_zone_tests",
)


def _d(year, month=1, day=1):
    return datetime.date(year, month, day)


def _window(prefix, lo, hi):
    return {f"{prefix}_date": lo, f"{prefix}_date_hi": hi}


#: Per query: parameter points in the order they are run.  Every sweep
#: holds a window beyond every generated date (1999: all blocks pruned
#: where the predicate is zone-testable) between windows that admit
#: blocks, so one prepared scan sees both.
SWEEPS = {
    "q1": [
        {"q1_date": _d(1998, 9, 2)},
        {"q1_date": _d(1991, 1, 1)},
        {"q1_date": _d(1995, 6, 17)},
        {"q1_date": _d(2100, 1, 1)},
    ],
    "q2": [
        {"q2_size": 15, "q2_region": "EUROPE"},
        {"q2_size": 45, "q2_region": "ASIA"},
        {"q2_size": 999, "q2_region": "ASIA"},
        {"q2_size": 5, "q2_region": "ATLANTIS"},
        {"q2_size": 25, "q2_region": "AFRICA"},
    ],
    "q3": [
        {"q3_segment": "BUILDING", "q3_date": _d(1995, 3, 15)},
        {"q3_segment": "MACHINERY", "q3_date": _d(1999, 6, 1)},
        {"q3_segment": "AUTOMOBILE", "q3_date": _d(1995, 3, 5)},
        {"q3_segment": "NO SUCH SEGMENT", "q3_date": _d(1995, 3, 5)},
    ],
    "q4": [
        _window("q4", _d(1993, 7), _d(1993, 10)),
        _window("q4", _d(1999, 3), _d(1999, 6)),
        _window("q4", _d(1995, 1), _d(1995, 4)),
    ],
    "q5": [
        dict(_window("q5", _d(1994), _d(1995)), q5_region="ASIA"),
        dict(_window("q5", _d(1999), _d(2000)), q5_region="EUROPE"),
        dict(_window("q5", _d(1996), _d(1997)), q5_region="AMERICA"),
    ],
    "q6": [
        _window("q6", _d(1994), _d(1995)),
        _window("q6", _d(1999, 3, 1), _d(1999, 3, 8)),
        dict(
            _window("q6", _d(1996), _d(1997)),
            q6_disc_lo=Decimal("0.02"),
            q6_disc_hi=Decimal("0.04"),
            q6_quantity=Decimal(30),
        ),
        dict(_window("q6", _d(1993), _d(1994)), q6_quantity=Decimal("0.5")),
    ],
    "q7": [
        {"q7_nation_a": "FRANCE", "q7_nation_b": "GERMANY"},
        {
            "q7_nation_a": "CHINA",
            "q7_nation_b": "JAPAN",
            "q7_date_lo": _d(1999, 1, 1),
            "q7_date_hi": _d(1999, 12, 31),
        },
        {"q7_nation_a": "BRAZIL", "q7_nation_b": "CANADA"},
    ],
    "q10": [
        _window("q10", _d(1993, 10), _d(1994, 1)),
        _window("q10", _d(1999, 1), _d(1999, 4)),
        _window("q10", _d(1995, 7), _d(1995, 10)),
    ],
    "q12": [
        _window("q12", _d(1994), _d(1995)),
        _window("q12", _d(1999, 3, 1), _d(1999, 3, 8)),
        _window("q12", _d(1996), _d(1997)),
    ],
    "q14": [
        _window("q14", _d(1995, 9), _d(1995, 10)),
        _window("q14", _d(1999, 3, 1), _d(1999, 3, 8)),
        _window("q14", _d(1995, 2), _d(1995, 3)),
    ],
}


def _params(point):
    merged = dict(DEFAULT_PARAMS)
    merged.update(point)
    return merged


def _canonical(result):
    return (tuple(result.columns), sorted(map(tuple, result.rows), key=repr))


@pytest.fixture(scope="module")
def tpch(tpch_tiny):
    """64 KiB blocks: several lineitem blocks even at the tiny scale, so
    a pruned window and an unpruned one differ in the blocks they read."""
    colls = load_smc(tpch_tiny, manager=MemoryManager(block_shift=16))
    assert colls["lineitem"].context.block_count() > 2
    yield colls
    colls["_manager"].close()


@pytest.fixture
def planning_calls(monkeypatch):
    """Counts calls to the planning functions, wherever they are bound."""
    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in PLANNING[:-1]:
        counted(planner, name)
    counted(compiler, "derive_zone_tests")
    counted(columnar_exec, "derive_zone_tests")
    return calls


# ----------------------------------------------------------------------
# Count gates and the parameter sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_QUERIES, key=lambda n: int(n[1:])))
def test_rebinding_plans_nothing_and_changes_no_answer(
    name, tpch, planning_calls
):
    extra = tpch["_manager"].stats.extra
    builder = ALL_QUERIES[name]
    query = builder(tpch)
    sweep = SWEEPS[name]
    first = query.run(params=_params(sweep[0]))
    assert planning_calls["plan_scan"] >= 1  # the one prepare
    assert _canonical(first) == _canonical(
        builder(tpch).run(engine="interpreted", params=_params(sweep[0]))
    )
    for point in sweep[1:] + sweep[:1]:
        params = _params(point)
        planning_calls.clear()
        # Binding scans nothing: a semi-join subquery runs when the plan
        # executes, not when it is bound.
        scans = {k: v for k, v in extra.items() if k.startswith("scan_")}
        columnar_exec.build_scan_plan(query, params)
        assert scans == {k: v for k, v in extra.items() if k.startswith("scan_")}
        got = query.run(params=params)
        assert not planning_calls, (name, point, dict(planning_calls))
        assert _canonical(got) == _canonical(builder(tpch).run(params=params))
        assert _canonical(got) == _canonical(
            builder(tpch).run(engine="interpreted", params=params)
        )


def test_one_prepared_scan_prunes_and_admits_by_request(tpch, planning_calls):
    """Trap (b): a Param-supplied bound that prunes every block on one
    request admits blocks on the next — the bounds are the request's."""
    extra = tpch["_manager"].stats.extra
    query = ALL_QUERIES["q6"](tpch)
    blocks = tpch["lineitem"].context.block_count()

    def run(point):
        before = (
            extra.get("zone_pruned_blocks", 0),
            extra.get("zone_scanned_blocks", 0),
        )
        result = query.run(params=_params(point))
        return (
            result.rows,
            extra.get("zone_pruned_blocks", 0) - before[0],
            extra.get("zone_scanned_blocks", 0) - before[1],
        )

    beyond, year = SWEEPS["q6"][1], SWEEPS["q6"][0]
    assert run(beyond)[1:] == (blocks, 0)
    planning_calls.clear()
    rows, pruned, scanned = run(year)
    assert rows[0][0] > 0 and scanned > 0 and pruned + scanned == blocks
    assert run(beyond)[1:] == (blocks, 0)
    assert not planning_calls


def test_subqueries_keep_prepared_scans_of_their_own(tpch):
    for name in ("q2", "q4"):
        query = ALL_QUERIES[name](tpch)
        query.run(params=_params(SWEEPS[name][0]))
        subqueries = [
            op.subquery for op in query.ops if hasattr(op, "subquery")
        ]
        assert subqueries
        before = [(id(sub._prepared), sub._prepared.stamp) for sub in subqueries]
        query.run(params=_params(SWEEPS[name][1]))
        after = [(id(sub._prepared), sub._prepared.stamp) for sub in subqueries]
        assert before == after


# ----------------------------------------------------------------------
# Invalidation traps
# ----------------------------------------------------------------------


def _notes(manager, texts):
    notes = Collection(TNote, manager=manager)
    for i, text in enumerate(texts):
        notes.add(text=text, stars=i % 5)
    return notes


@pytest.mark.parametrize("literal", ["const", "param"])
def test_a_string_interned_after_prepare_is_found(
    manager, planning_calls, literal
):
    """Trap (a): the CodeZoneTest's code set is looked up per request.  A
    code set frozen at prepare would be empty and prune every block."""
    notes = _notes(manager, ["ant", "bee", "cat", "dog", "eel"] * 20)
    wanted = "zebra" if literal == "const" else param("t")
    query = notes.query().where(TNote.text == wanted).select(stars=TNote.stars)
    assert query.run(t="zebra").rows == []
    stamp = planner.stats_stamp(manager)
    notes.add(text="zebra", stars=3)
    assert planner.stats_stamp(manager) is stamp  # 5 -> 6 strings: same bucket
    planning_calls.clear()
    assert query.run(t="zebra").rows == [(3,)]
    assert not planning_calls
    if literal == "param":
        assert len(query.run(t="bee").rows) == 20
        assert query.run(t="no such note").rows == []


def _people(manager, rows=4000, distinct=1000):
    persons = Collection(TPerson, manager=manager)
    for i in range(rows):
        persons.add(name=f"p{i}", age=i % distinct)
    return persons


def test_an_index_created_or_dropped_after_prepare_changes_the_path(manager):
    """Trap (c): the index set is part of the stamp; the key is the
    request's."""
    persons = _people(manager)
    extra = manager.stats.extra
    query = (
        persons.query()
        .where(TPerson.age == param("a"))
        .select(name=TPerson.name)
    )

    def lookups(a):
        before = extra.get("index_lookup_queries", 0)
        rows = sorted(query.run(a=a).rows)
        return rows, extra.get("index_lookup_queries", 0) - before

    scanned37, used = lookups(37)
    assert len(scanned37) == 4 and used == 0
    index = persons.create_index("age")
    assert lookups(37) == (scanned37, 1)
    with unplanned():
        fresh = (
            persons.query()
            .where(TPerson.age == param("a"))
            .select(name=TPerson.name)
        )
        scanned900 = sorted(fresh.run(a=900).rows)
    assert lookups(900) == (scanned900, 1)  # same prepared scan, new key
    assert lookups(-5) == ([], 1)
    # No public drop: unregister the index the way create_index registered it.
    persons._indexes.remove(index)
    persons._indexed_fields["age"].remove(index)
    assert lookups(37) == (scanned37, 0)


@pytest.fixture
def service(tpch_tiny):
    colls = load_smc(tpch_tiny, manager=MemoryManager(block_shift=16))
    svc = QueryService(colls, colls["_manager"], max_concurrency=4)
    yield svc
    colls["_manager"].close()


def test_growth_by_a_block_re_prepares_and_churn_inside_blocks_does_not(
    service, planning_calls
):
    """Trap (d), through the served path: the cached ``Query`` keeps its
    place in the plan cache and re-prepares itself when the stamp moves."""
    region = service.collections["region"]

    def q6():
        reply = service.handle({"op": "query", "query": "q6"})
        assert reply["ok"], reply
        return reply["rows"]

    want = q6()
    assert planning_calls["plan_scan"] == 1
    planning_calls.clear()
    assert q6() == want and not planning_calls

    # Steady-state churn: rows come and go inside existing blocks.
    blocks = region.context.block_count()
    for __ in range(100):
        handle = region.add(regionkey=77, name="AFRICA", comment="churn")
        assert q6() == want
        region.remove(handle)
        assert q6() == want
    assert region.context.block_count() == blocks
    assert not planning_calls

    # Real growth: one more block on any collection moves the stamp.
    grown = []
    while region.context.block_count() == blocks:
        grown.append(region.add(regionkey=78, name="AFRICA", comment="grow"))
    assert q6() == want
    assert planning_calls["plan_scan"] == 1
    planning_calls.clear()
    assert q6() == want and not planning_calls
    assert service.plans.stats()["misses"] == 1  # one build, ever


def test_two_threads_bind_one_prepared_query_to_their_own_params(tpch):
    """Trap (e): the prepared scan is shared, everything bound to it is
    the request's."""
    cases = []
    for name in ("q6", "q2", "q4"):
        query = ALL_QUERIES[name](tpch)
        points = [_params(p) for p in (SWEEPS[name][0], SWEEPS[name][-1])]
        wants = [_canonical(query.run(params=p)) for p in points]
        assert wants[0] != wants[1]
        cases.append((query, points, wants))

    failures = []
    barrier = threading.Barrier(2)

    def worker(which):
        try:
            barrier.wait(timeout=30)
            for __ in range(40):
                for query, points, wants in cases:
                    got = _canonical(query.run(params=points[which]))
                    if got != wants[which]:
                        failures.append((which, query.signature()[:40]))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append((which, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


def test_one_prepared_scan_per_query(tpch):
    """Trap (f): a query holds exactly one prepared scan, planned and
    pruned, and every request binds to that same one."""
    extra = tpch["_manager"].stats.extra
    query = (
        tpch["lineitem"]
        .query()
        .where(
            (L.order.ref("orderdate") < param("d")) & (L.shipdate >= param("d"))
        )
        .select(k=L.orderkey)
    )

    def scanned(d):
        before = extra.get("scan_blocks", 0)
        rows = query.run(params={"d": d}).rows
        return rows, extra.get("scan_blocks", 0) - before

    assert scanned(_d(1999, 1, 1)) == ([], 0)
    prepared = query._prepared
    assert isinstance(prepared, columnar_exec._PreparedScan)
    # Planned: the conjunction is split and the local conjunct runs first.
    assert [f.signature() for f in prepared.filters] == [
        (L.shipdate >= param("d")).signature(),
        (L.order.ref("orderdate") < param("d")).signature(),
    ]
    assert prepared.info is not None and prepared.zone_templates
    assert scanned(_d(1995, 1, 1))[1] > 0
    assert query._prepared is prepared


def test_table_stats_survive_adds_and_removes_inside_blocks(
    manager, monkeypatch
):
    """The envelope is cached under the coarse stamp; the row count is
    read live, so it never goes stale with it."""
    persons = _people(manager, rows=300)
    folds = collections.Counter()
    real = planner._collect_stats

    def counted(source):
        folds["n"] += 1
        return real(source)

    monkeypatch.setattr(planner, "_collect_stats", counted)
    stats = planner.table_stats(persons)
    assert stats.rows == 300 and folds["n"] == 1
    handles = [persons.add(name=f"x{i}", age=5) for i in range(50)]
    assert planner.table_stats(persons) is stats and stats.rows == 350
    for handle in handles:
        persons.remove(handle)
    assert planner.table_stats(persons) is stats and stats.rows == 300
    assert folds["n"] == 1
    blocks = persons.context.block_count()
    while persons.context.block_count() == blocks:
        persons.add(name="grow", age=6)
    assert planner.table_stats(persons) is not stats and folds["n"] == 2
