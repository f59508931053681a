"""Navigation columns (``repro.memory.navigation``), on both layouts.

A scanned block answers a navigated column from entry-indexed copies of
the target contexts' columns while every navigated context is at its
snapshot's version, and from the address path otherwise.  These tests
hold the compiled engine to the interpreter after each kind of change a
context sees, check that a quiet store really answers from the columns,
that a block never reads a column older than the block, that building
never raises while a scan reaching a dangling reference still does, and
that the columns of the SF 0.01 read mix stay under a megabyte.
"""

from __future__ import annotations

import datetime
import threading
from collections import Counter

import numpy as np
import pytest

from repro import sanitizer
from repro.core.columnar import ColumnarCollection
from repro.errors import NullReferenceError, ProtocolViolation
from repro.io.snapshot import load_collections, save_collections
from repro.memory.manager import MemoryManager
from repro.query.builder import Count
from repro.query.expressions import param
from repro.query.procexec import ProcessScanPool
from repro.sanitizer import ScheduleController
from repro.service.metrics import MetricsRegistry, instrument_manager
from repro.tpch import DEFAULT_PARAMS, generate, load_managed, load_smc
from repro.tpch.queries import EXTRA_QUERIES, QUERIES
from repro.tpch.schema import Lineitem as L, Orders as O

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}
LAYOUTS = ["row", "columnar"]
SCAN_MIX = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q10", "q12", "q14"]


def _canonical(result):
    return (tuple(result.columns), sorted(map(tuple, result.rows), key=repr))


def _differential(colls) -> None:
    """Every TPC-H query, compiled, answers what the interpreter does."""
    for name, builder in sorted(ALL_QUERIES.items()):
        got = builder(colls).run(params=DEFAULT_PARAMS)
        want = builder(colls).run(engine="interpreted", params=DEFAULT_PARAMS)
        assert _canonical(got) == _canonical(want), name


def _navs(colls):
    return [c.context.nav for k, c in colls.items() if k != "_manager"]


def _builds(colls) -> int:
    return sum(nav.builds for nav in _navs(colls))


def _fallbacks(colls) -> Counter:
    total: Counter = Counter()
    for nav in _navs(colls):
        total.update(nav.fallbacks)
    return total


@pytest.fixture(params=LAYOUTS)
def tpch(request, tpch_tiny):
    colls = load_smc(
        tpch_tiny,
        manager=MemoryManager(block_shift=16),
        columnar=request.param == "columnar",
    )
    assert colls["lineitem"].context.block_count() > 2
    yield colls
    colls["_manager"].close()


def _rows_of(collection, pred):
    return collection.query().where(pred).run().rows


# ----------------------------------------------------------------------
# A quiet store answers from the columns
# ----------------------------------------------------------------------


def test_a_quiet_store_answers_from_built_columns(tpch):
    _differential(tpch)
    builds = _builds(tpch)
    assert builds > 0
    _differential(tpch)
    # Nothing changed: no rebuild, and no block took the address path.
    assert _builds(tpch) == builds
    assert sum(_fallbacks(tpch).values()) == 0
    contexts = tpch["_manager"].telemetry()["contexts"]
    by_name = {ctx["name"]: ctx for ctx in contexts}
    assert by_name["Orders"]["nav_columns"] > 0
    assert by_name["Orders"]["nav_bytes"] > 0
    # The scanned fact table is navigated into by no query.
    assert by_name["Lineitem"]["nav_columns"] == 0


def test_metrics_export_the_columns(tpch):
    registry = MetricsRegistry()
    instrument_manager(registry, tpch["_manager"])
    ALL_QUERIES["q3"](tpch).run(params=DEFAULT_PARAMS)
    text = registry.expose()
    assert 'smc_nav_columns_bytes{context="Orders"} ' in text
    assert 'smc_nav_column_builds_total{context="Customer"} ' in text
    assert (
        'smc_nav_column_fallbacks_total{context="Lineitem",reason="stale"} 0'
        in text
    )


@pytest.mark.parametrize("name", ["q9", "q13", "q20"])
def test_varstring_predicates_match_the_managed_baseline(tpch, tpch_tiny, name):
    """Q9/Q20 match a part's varstring name through a reference (a
    code-space match set over a navigation column of dictionary codes);
    Q13 filters the scanned orders' comments."""
    builder = ALL_QUERIES[name]
    got = builder(tpch).run(params=DEFAULT_PARAMS)
    assert got.rows
    managed = builder(load_managed(tpch_tiny, "list")).run(params=DEFAULT_PARAMS)
    interpreted = builder(tpch).run(engine="interpreted", params=DEFAULT_PARAMS)
    assert got.rows == managed.rows == interpreted.rows


# ----------------------------------------------------------------------
# Churn: every change a context sees, then the full differential
# ----------------------------------------------------------------------


def _copy(collection, handle, **changes):
    """Add a row with *handle*'s values but *changes*."""
    values = {f.name: getattr(handle, f.name) for f in collection.layout.fields}
    values.update(changes)
    return collection.add(**values)


def _add_and_remove_rows(colls) -> None:
    """A new customer with a new order and lines, an unreferenced
    supplier added and removed, and an old order removed with its
    lines."""
    new_customer = _copy(
        colls["customer"],
        next(iter(colls["customer"])),
        custkey=900_001,
        mktsegment="BUILDING",
    )
    new_order = _copy(
        colls["orders"],
        next(iter(colls["orders"])),
        orderkey=9_000_001,
        customer=new_customer,
        custkey=900_001,
        orderdate=datetime.date(1995, 3, 1),
    )
    for line in list(colls["lineitem"])[:3]:
        _copy(
            colls["lineitem"],
            line,
            order=new_order,
            orderkey=9_000_001,
            shipdate=datetime.date(1995, 4, 1),
        )
    supplier = colls["supplier"]
    supplier.remove(_copy(supplier, next(iter(supplier)), suppkey=900_001))
    victim = next(iter(colls["orders"]))
    key = victim.orderkey
    colls["lineitem"].remove_many(_rows_of(colls["lineitem"], L.orderkey == key))
    colls["orders"].remove(victim)


def _update_char_target(colls) -> None:
    """``customer.mktsegment`` in place: a CHAR field, which does not
    move a block's zone version."""
    for i, handle in enumerate(colls["customer"]):
        if i % 3 == 0:
            handle.mktsegment = (
                "MACHINERY" if handle.mktsegment == "BUILDING" else "BUILDING"
            )


def _update_varstring_target(colls) -> None:
    """``part.name`` in place: the varstring Q9 and Q20 match."""
    for i, handle in enumerate(colls["part"]):
        if i % 4 == 0:
            handle.name = f"part 12{i} plated new"
        elif i % 4 == 1:
            handle.name = f"renamed {i}"


def _remove_half_the_orders(colls) -> None:
    orders = list(colls["orders"])[::2]
    keys = {handle.orderkey for handle in orders}
    lines = [h for h in colls["lineitem"] if h.orderkey in keys]
    colls["lineitem"].remove_many(lines)
    colls["orders"].remove_many(orders)


def test_churn_differential(tpch, tmp_path):
    columnar = isinstance(tpch["orders"], ColumnarCollection)
    _differential(tpch)
    for step in (_add_and_remove_rows, _update_char_target, _update_varstring_target):
        versions = {nav: nav.context.version for nav in _navs(tpch)}
        step(tpch)
        assert any(nav.context.version != v for nav, v in versions.items())
        builds = _builds(tpch)
        _differential(tpch)
        assert _builds(tpch) > builds, step.__name__  # rebuilt, not bypassed
    _remove_half_the_orders(tpch)
    _differential(tpch)
    if not columnar:  # compaction is defined for row blocks only
        manager = tpch["_manager"]
        moved = tpch["orders"].compact(occupancy_threshold=0.9)
        assert moved > 0 and manager.stats.relocations > 0
        # Relocation moves neither entries nor values: the orders
        # columns built before it still answer.
        builds = tpch["orders"].context.nav.builds
        stale = _fallbacks(tpch)["stale"]
        _differential(tpch)
        assert tpch["orders"].context.nav.builds == builds
        assert _fallbacks(tpch)["stale"] == stale
    path = str(tmp_path / "churned.smc")
    save_collections(path, {k: v for k, v in tpch.items() if k != "_manager"})
    loaded = load_collections(path)
    try:
        _differential(loaded)
        assert _builds(loaded) > 0
    finally:
        loaded["_manager"].close()


def test_the_sanitizer_recomputes_what_the_columns_answered(tpch):
    query = ALL_QUERIES["q3"](tpch)
    with sanitizer.enabled() as san:
        query.run(params=DEFAULT_PARAMS)
        assert san.event_counts["nav.check"] > 0
        san.assert_clean()
        # A column changed behind the version's back is caught.
        dates = tpch["orders"].context.nav.snapshot.values["orderdate"]
        dates += 1
        with pytest.raises(ProtocolViolation) as caught:
            query.run(params=DEFAULT_PARAMS)
        assert caught.value.invariant == "nav-column-stale"
        san.violations.clear()


def test_a_pass_that_sees_a_row_twice_builds_nothing(tpch, monkeypatch):
    """A pass racing a relocation can see a row in both its slots and
    miss another: the counts may agree, the rows do not."""
    context = tpch["lineitem"].context
    blocks = context.blocks()
    assert blocks[0].valid_count == blocks[1].valid_count  # two full blocks
    # The first block seen twice, the second not at all.
    racing = [blocks[0]] + blocks[:1] + blocks[2:]
    nav = context.nav
    monkeypatch.setattr(context, "blocks", lambda: racing)
    assert nav.build(["shipdate"]) == (None, {})
    monkeypatch.undo()
    snap, __ = nav.build(["shipdate"])
    assert snap is not None and nav.current() is snap
    monkeypatch.setattr(context, "blocks", lambda: racing)
    assert nav.build(["quantity"]) == (None, {})
    assert "quantity" not in snap.values


# ----------------------------------------------------------------------
# A write between two blocks of one scan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("built", ["before the scan", "by the scan"])
def test_an_update_between_two_blocks_of_a_scan_is_seen(tpch, built):
    """q3's navigation (lineitem -> order -> customer), grouped by the
    order's shippriority.  The scan parks before its second block; an
    order all of whose lines lie in later blocks gets a new priority;
    the later block must not answer from the column built before.

    Orders columns built by an earlier request are rebuilt by the later
    block; ones the scan built itself at its first block are not built
    twice in one request: the later block takes the address path."""
    lineitem = tpch["lineitem"]
    blocks = lineitem.context.blocks()
    first, second = blocks[0], blocks[1]
    keys_in_first = {
        int(k) for k in first.column("orderkey")[first.valid_slots()]
    }
    key = next(
        int(k)
        for k in second.column("orderkey")[second.valid_slots()]
        if int(k) not in keys_in_first
    )
    order = _order(tpch, key)
    segment = order.customer.mktsegment
    query = (
        lineitem.query()
        .where(L.order.ref("customer").ref("mktsegment") == param("segment"))
        .group_by(
            orderkey=L.order.ref("orderkey"),
            shippriority=L.order.ref("shippriority"),
        )
        .aggregate(lines=Count())
    )
    params = {"segment": segment}
    query.run(params=params)  # the columns exist before the scan starts
    if built == "by the scan":
        order.shippriority = 76  # stale: the scan's first block rebuilds
    orders_nav = tpch["orders"].context.nav
    builds, stale = orders_nav.builds, lineitem.context.nav.fallbacks["stale"]
    schedule = ScheduleController()
    with sanitizer.enabled(schedule=schedule) as san:
        gate = schedule.pause_at(
            "scan.block", thread="nav-reader", filter=lambda info: info["block"] is second
        )
        result = []
        reader = threading.Thread(
            target=lambda: result.append(query.run(params=params)), name="nav-reader"
        )
        reader.start()
        assert gate.wait_parked(timeout=10.0), "the scan never reached block 2"
        order.shippriority = 77
        gate.release()
        reader.join(timeout=30.0)
        assert not reader.is_alive()
        san.assert_clean()
    (got,) = result
    rows = {row[0]: row[1] for row in got.rows}
    assert rows[key] == 77
    want = query.run(engine="interpreted", params=params)
    assert _canonical(got) == _canonical(want)
    assert orders_nav.builds == builds + 1
    stale_blocks = lineitem.context.nav.fallbacks["stale"] - stale
    assert (stale_blocks > 0) == (built == "by the scan")


# ----------------------------------------------------------------------
# A dangling reference: building never raises, reaching it does
# ----------------------------------------------------------------------


def test_a_dangling_reference_raises_only_where_a_scan_reaches_it(tpch):
    segment = L.order.ref("customer").ref("mktsegment")
    by_segment = (
        tpch["lineitem"].query().group_by(segment=segment).aggregate(n=Count())
    )
    by_segment.run()  # the columns are built over the intact store
    victim = next(iter(tpch["lineitem"])).order.customer
    custkey = victim.custkey
    tpch["customer"].remove(victim)
    # Every order of the removed customer now holds a dangling word.
    doomed = sorted({h.orderkey for h in tpch["orders"] if h.custkey == custkey})
    away = (
        tpch["lineitem"]
        .query()
        .where(~L.orderkey.isin(doomed))
        .group_by(segment=segment)
        .aggregate(n=Count())
    )
    builds = _builds(tpch)
    got = away.run()  # rebuilds the orders -> customer hop: no raise
    assert _builds(tpch) > builds
    assert _canonical(got) == _canonical(away.run(engine="interpreted"))
    assert sum(_fallbacks(tpch).values()) == 0
    # A scan that reaches those orders raises the address path's error.
    with pytest.raises(NullReferenceError, match="incarnation mismatch"):
        by_segment.run()
    assert _fallbacks(tpch)["sentinel"] >= 1


def _order(colls, orderkey: int):
    (ref,) = colls["orders"].query().where(O.orderkey == orderkey).run().rows
    return colls["orders"]._handle(ref)


# ----------------------------------------------------------------------
# Where the columns do not answer
# ----------------------------------------------------------------------


def test_direct_pointers_take_the_address_path(tpch_tiny):
    colls = load_smc(tpch_tiny, manager=MemoryManager(direct_pointers=True))
    try:
        got = ALL_QUERIES["q5"](colls).run(params=DEFAULT_PARAMS)
        want = ALL_QUERIES["q5"](colls).run(
            engine="interpreted", params=DEFAULT_PARAMS
        )
        assert _canonical(got) == _canonical(want)
        assert _builds(colls) == 0
        assert colls["lineitem"].context.nav.fallbacks["direct"] > 0
    finally:
        colls["_manager"].close()


def test_process_workers_take_the_address_path(tpch_tiny):
    colls = load_smc(tpch_tiny, shm=True)
    manager = colls["_manager"]
    try:
        manager.exec_pool = ProcessScanPool(manager, workers=2)
        query = ALL_QUERIES["q3"](colls)
        serial = query.run(params=DEFAULT_PARAMS)
        pooled = query.run(params=DEFAULT_PARAMS, workers=2)
        assert _canonical(pooled) == _canonical(serial)
        assert colls["lineitem"].context.nav.fallbacks["worker"] > 0
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def test_the_read_mix_columns_fit_in_a_megabyte():
    colls = load_smc(generate(0.01, seed=42))
    try:
        for name in SCAN_MIX:
            ALL_QUERIES[name](colls).run(params=DEFAULT_PARAMS)
        contexts = colls["_manager"].telemetry()["contexts"]
        total = sum(ctx["nav_bytes"] for ctx in contexts)
        assert 0 < total <= 1 << 20
        # Sized by live rows: no array is longer than its context.
        for key, coll in colls.items():
            if key == "_manager":
                continue
            snap = coll.context.nav.snapshot
            if snap is None:
                continue
            assert snap.size == len(coll)
            for arr in list(snap.values.values()) + [h for __, h in snap.hops.values()]:
                assert isinstance(arr, np.ndarray) and arr.size == len(coll)
    finally:
        colls["_manager"].close()
