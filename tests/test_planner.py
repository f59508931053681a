"""Cost-based planner, memory governor, and the budgeted caches they govern.

The identity tests pin the planner's core contract: planning
(conjunct splitting, predicate reordering, access-path choice,
adaptive join sides) never changes what a query returns —
results are byte-identical to declaration-order evaluation with no
index (``tests.seams.unplanned``) across both SMC layouts, worker
counts, and compaction churn.  The unit tests pin the cost model's
arithmetic, the governor's rebalance invariants, and the
budget/eviction behaviour of the StringDict match cache and WAL
group-commit buffer.
"""

import datetime
import os

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.durability.wal import ADD, WriteAheadLog, encode_payload, scan_wal
from repro.memory.governor import MemoryGovernor
from repro.memory.manager import MemoryManager
from repro.query import planner
from repro.query.expressions import BoolOp, param
from repro.rdbms import engine as rdbms_engine
from repro.rdbms.queries import run_plan
from repro.tpch import load_rdbms, load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES
from repro.tpch.schema import Lineitem as L

from tests.schemas import TPerson
from tests.seams import unpruned, unplanned

ALL_QUERIES = dict(QUERIES)
ALL_QUERIES.update(EXTRA_QUERIES)


def _identical(result, baseline):
    assert list(result.columns) == list(baseline.columns)
    assert repr(result.rows) == repr(baseline.rows)


# ----------------------------------------------------------------------
# Planned == declaration order, byte for byte
# ----------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["row", "columnar"])
def test_planner_identity_all_queries(tpch_tiny, layout):
    """Every TPC-H query, both layouts, workers 1 and 4, before and
    after compaction churn: the planned result equals the unplanned one."""
    colls = load_smc(tpch_tiny, columnar=(layout == "columnar"))
    manager = colls["_manager"]
    try:
        def check_all():
            for name, builder in ALL_QUERIES.items():
                with unplanned():
                    baseline = builder(colls).run(params=DEFAULT_PARAMS)
                for workers in (1, 4):
                    planned = builder(colls).run(
                        params=DEFAULT_PARAMS, workers=workers
                    )
                    _identical(planned, baseline)

        check_all()
        # Churn: drop a stripe of lineitems, compact, and replan — stale
        # zone maps / block counts must never change answers, only costs.
        line = colls["lineitem"]
        victims = [h for i, h in enumerate(line) if i % 7 == 0]
        for h in victims:
            line.remove(h)
        if layout == "row":  # compaction is defined for row-layout SMCs
            line.compact(occupancy_threshold=0.95)
        check_all()
    finally:
        manager.close()


def test_planner_observed_selectivity_recorded(tpch_tiny):
    colls = load_smc(tpch_tiny, columnar=True)
    manager = colls["_manager"]
    try:
        result = QUERIES["q1"](colls).run(params=DEFAULT_PARAMS)
        assert result.rows
        extra = manager.stats.extra
        # Q1's shipdate predicate covers nearly the whole relation: the
        # zone test *runs* on every block but prunes nothing.  The
        # counters must say exactly that, not "no zone test happened".
        assert extra.get("zone_tested_blocks", 0) > 0
        assert extra.get("zone_tested_blocks") == extra.get(
            "zone_pruned_blocks", 0
        ) + extra.get("zone_scanned_blocks", 0)
        assert 0 < extra.get("last_scan_selectivity_ppm", 0) <= 1_000_000
        assert extra.get("scan_rows_matched", 0) > 0
    finally:
        manager.close()


def test_prune_off_counts_untested_blocks(tpch_tiny):
    colls = load_smc(tpch_tiny, columnar=True)
    manager = colls["_manager"]
    try:
        with unpruned():
            QUERIES["q6"](colls).run(params=DEFAULT_PARAMS)
        assert manager.stats.extra.get("zone_untested_blocks", 0) > 0
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


def test_split_conjuncts_flattens_top_level_ands():
    a = L.shipdate <= param("d")
    b = L.discount > param("lo")
    c = L.quantity < param("q")
    combined = BoolOp("and", (a, b))
    out = planner.split_conjuncts([combined, c])
    assert out == [a, b, c]
    # "or" is opaque: never split.
    kept = BoolOp("or", (a, b))
    assert planner.split_conjuncts([kept]) == [kept]


def test_nav_depth_and_predicate_cost():
    local = L.shipdate <= param("d")
    one_hop = L.order.ref("orderdate") <= param("d")
    two_hops = L.order.ref("customer").ref("mktsegment") == param("s")
    assert planner.nav_depth(local) == 0
    assert planner.nav_depth(one_hop) == 1
    assert planner.nav_depth(two_hops) == 2
    assert planner.predicate_cost(local) == 1.0
    assert planner.predicate_cost(one_hop) == 1.0 + planner.NAV_STEP_COST
    assert (
        planner.predicate_cost(two_hops)
        == 1.0 + 2 * planner.NAV_STEP_COST
    )


@pytest.fixture(scope="module")
def tpch_smc(tpch_tiny):
    colls = load_smc(tpch_tiny)
    yield colls
    colls["_manager"].close()


def test_range_selectivity_from_zone_maps(tpch_smc):
    line = tpch_smc["lineitem"]
    early = planner.estimate_selectivity(
        L.shipdate <= param("d"), {"d": datetime.date(1992, 6, 1)}, line
    )
    late = planner.estimate_selectivity(
        L.shipdate <= param("d"), {"d": datetime.date(1998, 6, 1)}, line
    )
    assert 0.0 < early < late <= 1.0
    assert late > 0.5  # covers most of the 1992-1998 shipdate domain


def test_eq_selectivity_uses_dictionary_cardinality(tpch_smc):
    line = tpch_smc["lineitem"]
    # returnflag has 3 distinct values -> eq selectivity ~ 1/3, far from
    # the uninformed default of 1.0.
    sel = planner.estimate_selectivity(
        L.returnflag == param("rf"), {"rf": "R"}, line
    )
    assert 0.0 < sel <= 0.5


def test_order_filters_prefers_cheap_local_predicates(tpch_smc):
    line = tpch_smc["lineitem"]
    d = {"d": datetime.date(1995, 6, 1)}
    f_nav = L.order.ref("orderdate") <= param("d")
    f_local = L.shipdate <= param("d")
    ordered, plans = planner.order_filters([f_nav, f_local], d, line)
    # Similar selectivity, 5x cost difference: the local predicate wins.
    assert ordered[0] is f_local
    assert plans[0].rank <= plans[1].rank
    # Ablation: order_filters is bypassed entirely when disabled at the
    # plan level, but the ranking itself must be deterministic.
    again, _ = planner.order_filters([f_nav, f_local], d, line)
    assert [e.signature() for e in again] == [
        e.signature() for e in ordered
    ]


def test_estimate_query_rows_and_routing(tpch_smc):
    q = QUERIES["q6"](tpch_smc)
    est = planner.estimate_query_rows(q, DEFAULT_PARAMS)
    assert est is not None and est >= 0
    stats = planner.table_stats(tpch_smc["lineitem"])
    assert est < stats.rows  # q6 is selective
    # Routing: tiny estimates collapse to one worker, big ones don't,
    # and "no estimate" never downgrades.
    assert planner.route_workers(10, 4) == 1
    assert planner.route_workers(planner.SMALL_SCAN_ROWS * 10, 4) == 4
    assert planner.route_workers(None, 4) == 4


# ----------------------------------------------------------------------
# Access-path choice (hash-index point lookups)
# ----------------------------------------------------------------------


def _people(manager, rows=4000, distinct=1000):
    persons = Collection(TPerson, manager=manager)
    for i in range(rows):
        persons.add(name=f"p{i}", age=i % distinct)
    return persons


def test_choose_index_point_lookup(manager):
    persons = _people(manager)
    persons.create_index("age")
    params = {"a": 37}
    pred = TPerson.age == param("a")
    ordered, plans = planner.order_filters([pred], params, persons)
    choice = planner.choose_index(persons, ordered, plans, params)
    assert choice is not None
    assert choice.key == 37
    __, __, info = planner.plan_scan("t", [pred], params, persons)
    assert info.access_path == "index-lookup"
    assert info.index_field == "age"


def test_index_lookup_results_identical(manager):
    persons = _people(manager)
    persons.create_index("age")

    def build():
        return persons.query().where(TPerson.age == param("a")).select(
            name=TPerson.name, age=TPerson.age
        )

    with unplanned():
        baseline = build().run(params={"a": 37})
    planned = build().run(params={"a": 37})
    _identical(planned, baseline)
    assert len(planned.rows) == 4  # 4000 rows, age = i % 1000
    assert manager.stats.extra.get("index_lookup_queries", 0) >= 1


def test_direct_pointer_manager_skips_index_path(direct_manager):
    persons = _people(direct_manager)
    persons.create_index("age")
    params = {"a": 37}
    pred = TPerson.age == param("a")
    ordered, plans = planner.order_filters([pred], params, persons)
    assert planner.choose_index(persons, ordered, plans, params) is None
    q = persons.query().where(TPerson.age == param("a")).select(
        age=TPerson.age
    )
    assert len(q.run(params=params).rows) == 4


# ----------------------------------------------------------------------
# Memory governor
# ----------------------------------------------------------------------


class _FakeTenant:
    def __init__(self):
        self.used = 0
        self.hits = 0
        self.misses = 0
        self.budget = None

    def register_on(self, gov, name, weight=1.0):
        gov.register(
            name,
            usage=lambda: self.used,
            counters=lambda: (self.hits, self.misses),
            set_budget=lambda n: setattr(self, "budget", n),
            weight=weight,
        )


def test_governor_rejects_bad_budget():
    with pytest.raises(ValueError):
        MemoryGovernor(0)


def test_governor_rejects_duplicate_tenant():
    gov = MemoryGovernor(1 << 20)
    t = _FakeTenant()
    t.register_on(gov, "cache")
    with pytest.raises(ValueError):
        t.register_on(gov, "cache")


def test_governor_shares_respect_budget_and_floor(tpch_tiny, tmp_path):
    budget = 1_000_000
    gov = MemoryGovernor(budget)
    a, b, c = _FakeTenant(), _FakeTenant(), _FakeTenant()
    a.register_on(gov, "a")
    b.register_on(gov, "b")
    c.register_on(gov, "c")
    snap = gov.snapshot()
    shares = [t["share_bytes"] for t in snap["tenants"].values()]
    floor = int(gov._floor_fraction * budget / 3)
    assert sum(shares) <= budget
    assert all(s >= floor for s in shares)
    # Every tenant actually received its installed budget.
    assert sorted([a.budget, b.budget, c.budget]) == sorted(shares)

    # Real tenants under churn: the string dictionaries' match caches and
    # a WAL group-commit buffer held open by one long batch overrun a
    # tiny budget; after every rebalance each sits within its share and
    # the total within the budget.
    from repro.sanitizer import hooks as _san

    colls = load_smc(tpch_tiny, columnar=True)
    wal = WriteAheadLog.create(str(tmp_path / "gov.log"), fsync_policy="none")
    try:
        budget = 96 * 1024
        gov = MemoryGovernor(budget, rebalance_every=8)
        gov.register(
            "wal_buffer",
            usage=lambda: wal.buffered_bytes,
            counters=lambda: (wal.buffered_records, wal.buffer_capacity_flushes),
            set_budget=wal.set_buffer_capacity,
        )
        dicts = [
            sd for c in colls.values() if (sd := getattr(c, "strdict", None)) is not None
        ]
        gov.register(
            "string_dicts",
            usage=lambda: sum(d.cache_bytes for d in dicts),
            counters=lambda: (
                sum(d.match_hits for d in dicts),
                sum(d.match_misses for d in dicts),
            ),
            set_budget=lambda n: [d.set_match_budget(max(1, n // len(dicts))) for d in dicts],
            weight=2.0,
        )
        needles = ["the", "slyly", "furious", "pending", "quick", "regular"]
        rebalances = 0
        with wal.batch():
            for i in range(160):
                wal.append(ADD, encode_payload({"c": "x", "e": i, "pad": "y" * 512}))
                if i % 4 == 0:
                    needle = needles[(i // 4) % len(needles)]
                    colls["lineitem"].query().where(
                        L.comment.contains(needle)
                    ).count()
                if gov.maybe_rebalance():
                    rebalances += 1
                    snap = gov.snapshot()
                    assert snap["usage_bytes"] <= budget * 1.01, i
                    for t in snap["tenants"].values():
                        assert t["usage_bytes"] <= t["share_bytes"] * 1.01, i
        assert rebalances == 20
        # The WAL's share forced flushes mid-batch (under the sanitizer
        # every append goes straight to the file: nothing is buffered).
        assert _san.SANITIZER is not None or wal.buffer_capacity_flushes > 0
    finally:
        wal.close()
        colls["_manager"].close()


def test_governor_rebalances_toward_miss_heavy_tenant():
    gov = MemoryGovernor(1_000_000)
    hot, cold = _FakeTenant(), _FakeTenant()
    hot.register_on(gov, "hot")
    cold.register_on(gov, "cold")
    hot.misses += 5000
    cold.hits += 5000
    gov.rebalance()
    assert hot.budget > cold.budget
    snap = gov.snapshot()
    assert snap["tenants"]["hot"]["misses"] == 5000
    assert snap["tenants"]["hot"]["share_bytes"] == hot.budget
    # Pressure subsides: deltas reset, shares converge again.
    gov.rebalance()
    assert abs(hot.budget - cold.budget) <= gov.budget_bytes * 0.01


def test_governor_maybe_rebalance_period():
    gov = MemoryGovernor(1 << 20, rebalance_every=8)
    t = _FakeTenant()
    t.register_on(gov, "t")
    before = gov.snapshot()["rebalances"]
    fired = sum(1 for __ in range(16) if gov.maybe_rebalance())
    assert fired == 2
    assert gov.snapshot()["rebalances"] == before + 2


def test_governor_weight_biases_initial_split():
    gov = MemoryGovernor(1_000_000)
    heavy, light = _FakeTenant(), _FakeTenant()
    heavy.register_on(gov, "heavy", weight=3.0)
    light.register_on(gov, "light", weight=1.0)
    gov.rebalance()
    assert heavy.budget > light.budget


# ----------------------------------------------------------------------
# StringDict match-set cache budget
# ----------------------------------------------------------------------


def test_strdict_match_cache_honours_budget(tpch_smc):
    sd = tpch_smc["lineitem"].strdict
    assert sd is not None
    sd.set_match_budget(None)
    for i in range(32):
        sd.match_codes("prefix", f"needle-{i}")
    assert sd._match_bytes > 0
    high_water = sd._match_bytes
    budget = high_water // 4
    sd.set_match_budget(budget)
    assert sd._match_bytes <= budget
    # New inserts keep respecting the ceiling.
    for i in range(32):
        sd.match_codes("contains", f"other-{i}")
    assert sd._match_bytes <= budget
    # Hit/miss counters move the right way for the governor.
    misses = sd.match_misses
    hits = sd.match_hits
    sd.match_codes("contains", "other-31")
    assert sd.match_hits == hits + 1 and sd.match_misses == misses
    assert sd.cache_bytes >= sd._match_bytes
    sd.set_match_budget(None)


# ----------------------------------------------------------------------
# WAL group-commit buffer
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _no_sanitizer_buffering(request):
    """Group-commit buffering is disabled under the protocol sanitizer
    (crash points need every byte on disk); skip the buffer tests."""
    from repro.sanitizer import hooks as _san

    if request.node.cls is TestWalGroupCommit and _san.SANITIZER is not None:
        pytest.skip("WAL buffering is off under the sanitizer")


class TestWalGroupCommit:
    def test_batch_buffers_until_commit(self, tmp_path):
        path = str(tmp_path / "gc.log")
        wal = WriteAheadLog.create(path, fsync_policy="none")
        base = os.path.getsize(path)
        with wal.batch():
            for i in range(10):
                wal.append(ADD, encode_payload({"c": "x", "e": i}))
            # Mid-batch: frames are staged in memory, not in the file.
            assert wal.buffered_bytes > 0
            assert os.path.getsize(path) == base
        # Commit boundary: one flush wrote BEGIN + records + COMMIT.
        assert wal.buffered_bytes == 0
        assert wal.buffered_records == 11  # BEGIN + 10 ADDs
        assert wal.buffer_flushes >= 1
        wal.close()
        scan = scan_wal(path)
        assert scan.committed_count == 12
        assert [r.payload.get("e") for r in scan.records][1:-1] == list(
            range(10)
        )

    def test_capacity_flush_mid_batch(self, tmp_path):
        path = str(tmp_path / "cap.log")
        wal = WriteAheadLog.create(path, fsync_policy="none")
        wal.set_buffer_capacity(4096)
        with wal.batch():
            for i in range(300):
                wal.append(ADD, encode_payload({"c": "x", "e": i, "pad": "y" * 64}))
        assert wal.buffer_capacity_flushes >= 1
        wal.close()
        assert scan_wal(path).committed_count == 302

    def test_power_loss_drops_buffered_tail(self, tmp_path):
        path = str(tmp_path / "pl.log")
        wal = WriteAheadLog.create(path, fsync_policy="commit")
        with wal.batch():
            wal.append(ADD, encode_payload({"c": "x", "e": 0}))
        wal.append(ADD, encode_payload({"c": "x", "e": 1}))  # auto-commit, flushed
        committed = scan_wal(path).committed_count
        try:
            wal._batch_depth = 1  # hold a batch open by hand
            wal.append(ADD, encode_payload({"c": "x", "e": 2}))
            assert wal.buffered_bytes > 0
            wal.simulate_power_loss()
        finally:
            wal._batch_depth = 0
        # The unflushed frame never reached the disk image.
        assert scan_wal(path).committed_count == committed


# ----------------------------------------------------------------------
# Adaptive join build side (rdbms comparator)
# ----------------------------------------------------------------------


def test_hash_join_identical_either_build_side():
    unique_keys = np.arange(100, dtype=np.int64)
    unique_rows = unique_keys * 10
    many_keys = np.array([5, 5, 3, 99, 42, 5], dtype=np.int64)
    prev = rdbms_engine.set_adaptive_joins(True)
    try:
        before = dict(rdbms_engine.JOIN_STATS)
        adaptive = rdbms_engine.hash_join(unique_keys, unique_rows, many_keys)
        assert (
            rdbms_engine.JOIN_STATS["build_many_side"]
            == before["build_many_side"] + 1
        )
        rdbms_engine.set_adaptive_joins(False)
        forced = rdbms_engine.hash_join(unique_keys, unique_rows, many_keys)
    finally:
        rdbms_engine.set_adaptive_joins(prev)
    np.testing.assert_array_equal(adaptive[0], forced[0])
    np.testing.assert_array_equal(adaptive[1], forced[1])
    # Output is ordered by many-side position with duplicates preserved.
    assert adaptive[1].tolist() == [0, 1, 2, 3, 4, 5]
    assert adaptive[0].tolist() == [50, 50, 30, 990, 420, 50]


def test_query_service_leaves_the_join_toggle_alone(manager):
    """Building a service must not flip the comparator's process-wide
    join side."""
    from repro.service.server import QueryService

    people = Collection(TPerson, manager=manager)
    prev = rdbms_engine.set_adaptive_joins(True)
    try:
        service = QueryService({"people": people}, manager)
        service.close()
        assert rdbms_engine.ADAPTIVE_JOINS is True
    finally:
        rdbms_engine.set_adaptive_joins(prev)


@pytest.mark.parametrize("qname", ["q3", "q5", "q10", "q12"])
def test_rdbms_plans_identical_under_join_toggle(tpch_tiny, qname):
    db = load_rdbms(tpch_tiny)
    prev = rdbms_engine.set_adaptive_joins(True)
    try:
        __, on_rows = run_plan(qname, db, DEFAULT_PARAMS)
        rdbms_engine.set_adaptive_joins(False)
        __, off_rows = run_plan(qname, db, DEFAULT_PARAMS)
    finally:
        rdbms_engine.set_adaptive_joins(prev)
    assert repr(on_rows) == repr(off_rows)
    assert on_rows


# ----------------------------------------------------------------------
# Service: explain op, governor wiring
# ----------------------------------------------------------------------


@pytest.fixture()
def planner_service(tpch_tiny):
    from repro.service.server import QueryService

    colls = load_smc(tpch_tiny)
    manager = colls["_manager"]
    service = QueryService(
        colls, manager, max_concurrency=4, governor_budget=1 << 20
    )
    yield service
    manager.close()


def test_service_explain_op(planner_service):
    reply = planner_service.handle({"op": "explain", "query": "q3"})
    assert reply["ok"]
    assert "planner:" in reply["text"]
    assert "sel=" in reply["text"] and "rank=" in reply["text"]
    # A "planner" field is served as if absent.
    flagged = planner_service.handle(
        {"op": "explain", "query": "q3", "planner": False}
    )
    assert flagged == reply
    bad = planner_service.handle({"op": "explain", "query": "q99"})
    assert not bad["ok"]


def test_service_governor_snapshot_in_info(planner_service):
    planner_service.handle({"op": "query", "query": "q6"})
    info = planner_service.handle({"op": "info"})
    assert info["ok"]
    gov = info["governor"]
    assert gov["budget_bytes"] == 1 << 20
    # The plan cache holds one plan per query name: it is no tenant.
    assert set(gov["tenants"]) == {"string_dicts"}
    shares = [t["share_bytes"] for t in gov["tenants"].values()]
    assert sum(shares) <= gov["budget_bytes"]
    # The match caches live within the share the governor installed.
    sd = gov["tenants"]["string_dicts"]
    assert sd["usage_bytes"] <= sd["share_bytes"]


def test_service_small_scan_routing(planner_service):
    # q6 on the tiny dataset estimates well under SMALL_SCAN_ROWS: a
    # 4-worker request is routed to 1 worker and counted.
    planner_service.handle({"op": "query", "query": "q6", "workers": 4})
    counter = planner_service.metrics.counter(
        "smc_serve_small_scans_routed_total",
        "Parallel queries routed to one worker by the planner estimate",
    )
    assert counter.value(query="q6") >= 1
