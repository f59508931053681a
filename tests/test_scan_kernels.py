"""Scan kernels: sort-free gathers, group-by factorisation, semi-joins.

Three kinds of test, none of which reads a clock:

* differentials against plain NumPy / scalar references (the sorted
  factoriser the kernels replaced is kept here as the reference);
* the empty and degenerate inputs of each kernel;
* count gates on a TPC-H store: how many comparison sorts
  (``np.unique`` / ``np.argsort`` / ``np.sort`` / ``sorted``) one request
  makes from ``columnar_exec`` itself, counted through a stand-in for
  the module's ``np`` — zero for the queries whose keys are all
  small-domain, and for every query the same number whether the data
  sits in 64 KiB or 1 MiB blocks.
"""

from __future__ import annotations

import collections
import datetime
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.memory.manager import MemoryManager
from repro.query import columnar_exec, planner
from repro.query.builder import Count, GroupBy, Min, Sum, WhereIn
from repro.query.columnar_exec import (
    _AddressGrouping,
    _BlockCtx,
    _DENSE_FLOOR,
    _KeyColumns,
    _group_factorize,
)
from repro.query.expressions import param
from repro.tpch.loader import load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

from tests.schemas import TEverything, TNote, TOrder, TPerson

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}


def _canonical(result):
    return (tuple(result.columns), sorted(map(tuple, result.rows), key=repr))


# ----------------------------------------------------------------------
# Group-by factorisation
# ----------------------------------------------------------------------


def _sorted_factorize(cols):
    """The factoriser the dense kernel replaced: ``np.unique`` per column,
    ranks combined, ``np.unique`` over the combined code."""
    if len(cols) == 1:
        uniq, inverse = np.unique(cols[0], return_inverse=True)
        return [(k,) for k in uniq.tolist()], inverse
    uniqs, invs, sizes = [], [], []
    for col in cols:
        u, inv = np.unique(col, return_inverse=True)
        uniqs.append(u)
        invs.append(inv.astype(np.int64, copy=False))
        sizes.append(max(1, len(u)))
    codes = invs[0]
    for inv, size in zip(invs[1:], sizes[1:]):
        codes = codes * size + inv
    ucodes, inverse = np.unique(codes, return_inverse=True)
    parts = []
    rem = ucodes
    for size in reversed(sizes[1:]):
        parts.append(rem % size)
        rem = rem // size
    parts.append(rem)
    parts.reverse()
    columns = [uniqs[j][parts[j]].tolist() for j in range(len(cols))]
    return list(zip(*columns)), inverse


def _check_factorize(cols):
    want_keys, want_inverse = _sorted_factorize(cols)
    uniq_cols, inverse = _group_factorize(cols)
    got_keys = list(zip(*[col.tolist() for col in uniq_cols]))
    assert got_keys == want_keys
    assert [type(v) for v in got_keys[0]] == [type(v) for v in want_keys[0]]
    assert np.array_equal(inverse, want_inverse)
    assert [u.dtype for u in uniq_cols] == [c.dtype for c in cols]


_COLUMN_KINDS = {
    "S1": st.sampled_from([b"A", b"F", b"N", b"O", b"R", b""]),
    "strcode": st.integers(0, 300),
    "small": st.integers(-40, 40),
    "wide": st.integers(-(2 ** 40), 2 ** 40),
    "date": st.integers(8000, 11000),
    "S10": st.sampled_from([b"MAIL", b"SHIP", b"AIR", b"REG AIR", b"TRUCK"]),
}
_COLUMN_DTYPES = {
    "S1": "S1", "strcode": np.int32, "small": np.int64, "wide": np.int64,
    "date": np.int64, "S10": "S10",
}


@st.composite
def key_columns(draw):
    n = draw(st.integers(1, 120))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=3))
    return [
        np.array(
            draw(st.lists(_COLUMN_KINDS[kind], min_size=n, max_size=n)),
            dtype=_COLUMN_DTYPES[kind],
        )
        for kind in kinds
    ]


@settings(max_examples=150, deadline=None)
@given(cols=key_columns())
def test_factorize_matches_the_sorted_factoriser(cols):
    _check_factorize(cols)


def test_factorize_degenerate_inputs():
    n = 3 * _DENSE_FLOOR
    rng = np.random.default_rng(7)
    flags = rng.choice(np.array([b"A", b"N", b"R"], dtype="S1"), n)
    years = rng.integers(1992, 1999, n)
    # One column of three exceeds the dense bound: it alone is sorted.
    _check_factorize([flags, rng.integers(0, 2 ** 40, n), years])
    # The columns are dense one by one, their product is not.
    _check_factorize([rng.integers(0, 4000, n), rng.integers(-4000, 0, n)])
    # Only constant keys; negative keys; the int64 extremes.
    _check_factorize([np.full(n, 7), np.full(n, b"x", dtype="S1")])
    _check_factorize([rng.integers(-50, -10, n).astype(np.int8)])
    info = np.iinfo(np.int64)
    _check_factorize([np.array([info.max, info.min, 0, info.max]), years[:4]])
    # Zero rows.
    uniq_cols, inverse = _group_factorize([flags[:0], years[:0]])
    assert [len(u) for u in uniq_cols] == [0, 0] and inverse.size == 0


# ----------------------------------------------------------------------
# Grouped sums
# ----------------------------------------------------------------------


def _python_sums(chunks, inverse, nuniq):
    out = [0] * nuniq
    for g, v in zip(inverse.tolist(), np.concatenate(chunks).tolist()):
        out[g] += v
    return out


def test_grouped_sums_fold_a_small_integer_column_in_one_bincount(monkeypatch):
    rng = np.random.default_rng(7)
    chunks = [rng.integers(-1000, 1000, size=n) for n in (5, 0, 17, 3)]
    inverse = rng.integers(0, 4, size=25)
    calls = collections.Counter()
    real = np.bincount

    def counted(*args, **kwargs):
        calls["bincount"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(columnar_exec.np, "bincount", counted)
    got = columnar_exec._grouped_sums(chunks, inverse, 4)
    assert calls["bincount"] == 1
    assert got.dtype == np.int64
    assert got.tolist() == _python_sums(chunks, inverse, 4)


def test_grouped_sums_stay_exact_beyond_float_precision():
    """A column whose worst-case sum reaches 2**53 folds chunk by chunk,
    and a chunk that reaches it alone through ``np.add.at``: the sums
    stay exact where float64 ``bincount`` weights would round."""
    big = 2 ** 52 + 1
    wide = np.array([big, big + 1, 3], dtype=np.int64)  # alone >= 2**53
    narrow = np.array([4, 7], dtype=np.int64)
    small = np.array([2 ** 40 + 1, 1], dtype=np.int64)  # alone < 2**53
    inverse = np.array([0, 0, 1, 0, 1, 1, 1])
    chunks = [wide, narrow, small]
    got = columnar_exec._grouped_sums(chunks, inverse, 2)
    expected = _python_sums(chunks, inverse, 2)
    assert got.tolist() == expected
    assert expected[0] == 2 ** 53 + 7 != float(expected[0])  # no float64 has it
    # The per-chunk path alone, with no chunk reaching 2**53 on its own.
    halves = [np.array([2 ** 51 + 1] * 2), np.array([2 ** 51 + 1] * 2)]
    inverse = np.zeros(4, dtype=np.int64)
    got = columnar_exec._grouped_sums(halves, inverse, 1)
    assert got.tolist() == [4 * (2 ** 51 + 1)]


def test_a_sum_and_an_average_share_one_grouped_sum(tpch_small, monkeypatch):
    """q1 sums and averages quantity and extendedprice: one grouped sum
    per distinct aggregate input (five), not one per aggregate (seven)."""
    colls = load_smc(tpch_small)
    calls = collections.Counter()
    real = columnar_exec._grouped_sums

    def counted(*args):
        calls["sums"] += 1
        return real(*args)

    monkeypatch.setattr(columnar_exec, "_grouped_sums", counted)
    try:
        query = ALL_QUERIES["q1"](colls)
        got = query.run(params=DEFAULT_PARAMS)
        assert calls["sums"] == 5
        assert _canonical(got) == _canonical(
            query.run(engine="interpreted", params=DEFAULT_PARAMS)
        )
    finally:
        colls["_manager"].close()


# ----------------------------------------------------------------------
# Reference gathers
# ----------------------------------------------------------------------


def _scalar_gather(manager, addrs, name):
    space = manager.space
    out = []
    for addr in addrs.tolist():
        block = space.block_by_id(addr >> space.block_shift)
        slot = block.slot_of_offset(addr & (space.block_size - 1))
        out.append(block.column(name)[slot])
    return out


@pytest.mark.parametrize("direct", [False, True], ids=["indirect", "direct"])
@pytest.mark.parametrize("targets", [1, 2, 40])
def test_gather_matches_a_scalar_reference(direct, targets):
    manager = MemoryManager(block_shift=12, direct_pointers=direct)
    try:
        people = Collection(TPerson, manager=manager)
        orders = Collection(TOrder, manager=manager)
        handles = [
            people.add(name=f"p{i}", age=i, balance=Decimal(i)) for i in range(4000)
        ]
        space = manager.space
        by_block = collections.defaultdict(list)
        for handle in handles:
            addr = int(manager.table._addr[handle.ref.entry])
            by_block[addr >> space.block_shift].append(handle)
        assert len(by_block) >= targets
        pools = list(by_block.values())[:targets]
        for i in range(60):  # one order block, `targets` person blocks
            pool = pools[(i * 7) % targets]
            orders.add(orderkey=i, owner=pool[(i * 13) % len(pool)],
                       total=Decimal(1), placed=datetime.date(2000, 1, 1))
        (block,) = orders.context.blocks()
        ctx = _BlockCtx(manager, block)
        steps = (TOrder.owner,)
        addrs = ctx.addresses(steps)
        assert len(set((addrs >> space.block_shift).tolist())) == targets
        for name in ("age", "balance", "name"):
            got = ctx.column(steps, name)
            assert got.dtype == block_dtype(manager, "TPerson", name)
            assert got.tolist() == _scalar_gather(manager, addrs, name)
        runs = ctx._groupings[steps].runs
        assert len(runs) == targets
        assert (runs[0][1] is None) == (targets == 1)  # one block: no permutation
    finally:
        manager.close()


def block_dtype(manager, schema, name):
    return manager.collections[schema].context.layout.columns[name][0]


def test_empty_gather_keeps_the_column_dtype(manager):
    people = Collection(TPerson, manager=manager)
    orders = Collection(TOrder, manager=manager)
    orders.add(orderkey=1, owner=people.add(name="a", age=1, balance=Decimal(1)),
               total=Decimal(1), placed=datetime.date(2000, 1, 1))
    (block,) = orders.context.blocks()
    ctx = _BlockCtx(manager, block)
    ctx.refine(np.zeros(1, dtype=bool))
    steps = (TOrder.owner,)
    assert _AddressGrouping(manager.space, np.empty(0, np.int64)).runs == []
    for name in ("age", "balance", "name"):
        got = ctx.column(steps, name)
        assert got.size == 0
        assert got.dtype == block_dtype(manager, "TPerson", name)


# ----------------------------------------------------------------------
# Base columns: slices of an unbroken block, gathers otherwise
# ----------------------------------------------------------------------


def _one_block_of_people(manager, n=100):
    people = Collection(TPerson, manager=manager)
    handles = [people.add(name=f"p{i}", age=i, balance=Decimal(i)) for i in range(n)]
    (block,) = people.context.blocks()
    return people, handles, block


def test_unbroken_block_reads_are_views(manager):
    people, handles, block = _one_block_of_people(manager)
    ctx = _BlockCtx(manager, block)
    ages = ctx.column((), "age")
    assert ages.base is not None and np.shares_memory(ages, block.column("age"))
    assert ages.tolist() == list(range(100))
    # A refine ends the run; the accumulator never keeps a view either.
    ctx.refine(ages >= 50)
    assert not np.shares_memory(ctx.column((), "age"), block.column("age"))
    ctx = _BlockCtx(manager, block)
    ctx.detach()
    assert not np.shares_memory(ctx.column((), "age"), block.column("age"))


def test_freed_tail_still_reads_as_a_slice(manager):
    people, handles, block = _one_block_of_people(manager)
    for handle in handles[90:]:
        people.remove(handle)
    ctx = _BlockCtx(manager, block)
    ages = ctx.column((), "age")
    assert np.shares_memory(ages, block.column("age"))
    assert ages.tolist() == list(range(90))
    assert people.query().aggregate(n=Count(), s=Sum(TPerson.age)).run().rows == [
        (90, sum(range(90)))
    ]


def test_a_hole_falls_back_to_the_gather(manager):
    people, handles, block = _one_block_of_people(manager)
    people.remove(handles[40])
    ctx = _BlockCtx(manager, block)
    ages = ctx.column((), "age")
    assert not np.shares_memory(ages, block.column("age"))
    assert ages.tolist() == [i for i in range(100) if i != 40]
    query = people.query().where(TPerson.age >= 30).select(age=TPerson.age)
    assert _canonical(query.run()) == _canonical(query.run(engine="interpreted"))
    assert len(query.run().rows) == 69


# ----------------------------------------------------------------------
# Degenerate queries, against the interpreted engine
# ----------------------------------------------------------------------


@pytest.fixture(params=["row", "columnar"])
def stores(request, manager):
    factory = Collection if request.param == "row" else ColumnarCollection
    people = factory(TPerson, manager=manager)
    orders = factory(TOrder, manager=manager)
    things = factory(TEverything, manager=manager)
    notes = factory(TNote, manager=manager)
    owners = [
        people.add(name=f"p{i % 5}", age=i, balance=Decimal(i) / 4) for i in range(30)
    ]
    for i in range(90):
        orders.add(orderkey=i * 1000, owner=owners[i % 30],
                   total=Decimal(i) / 2, placed=datetime.date(1995, 1, 1 + i % 28))
        things.add(i8=-(i % 7), i16=i, i32=-1000 - (i % 3), i64=i * (2 ** 40),
                   flag=bool(i % 2), ratio=i / 8, price=Decimal(i), fine=Decimal(i),
                   day=datetime.date(1995, 1, 1), code=f"c{i % 4}",
                   memo=f"memo {i % 6}", friend=owners[i % 30])
        notes.add(text=f"memo {i % 9 + 3}", stars=i % 5)
    return people, orders, things, notes


def _same_as_interpreted(query, **params):
    got = query.run(params=params)
    assert _canonical(got) == _canonical(query.run(engine="interpreted", params=params))
    return got.rows


def test_zero_matched_rows(stores):
    people, orders, __, __ = stores
    nobody = people.query().where(TPerson.age > 1000)
    assert _same_as_interpreted(nobody.select(age=TPerson.age)) == []
    assert _same_as_interpreted(
        nobody.group_by(name=TPerson.name).aggregate(n=Count())
    ) == []
    assert _same_as_interpreted(
        orders.query().where(TOrder.owner.ref("age") > 1000)
        .group_by(owner=TOrder.owner.ref("name")).aggregate(n=Count())
    ) == []


def test_group_by_constant_negative_and_wide_keys(stores):
    __, __, things, __ = stores
    rows = _same_as_interpreted(
        things.query().group_by(one=1, x="x").aggregate(n=Count())
    )
    assert rows == [(1, "x", 90)]
    rows = _same_as_interpreted(
        things.query().group_by(a=TEverything.i32, b=TEverything.i8)
        .aggregate(n=Count(), low=Min(TEverything.i16))
    )
    assert len(rows) == 21 and all(a < 0 and b <= 0 for a, b, __, __ in rows)
    # One key of three (i64, steps of 2**40) is far beyond the dense bound.
    rows = _same_as_interpreted(
        things.query()
        .group_by(code=TEverything.code, big=TEverything.i64, flag=TEverything.i32)
        .aggregate(n=Count())
    )
    assert len(rows) == 90


def test_semijoin_with_an_empty_subquery(stores):
    people, orders, __, __ = stores
    nobody = people.query().where(TPerson.age > param("floor")).select(age=TPerson.age)
    probe = TOrder.owner.ref("age")
    for negated, want in ((False, []), (True, [(90,)])):
        query = orders.query().where_in(probe, nobody, negated=negated).aggregate(n=Count())
        assert _same_as_interpreted(query, floor=1000) == want
    both = (
        orders.query().where_in(probe, nobody).select(key=TOrder.orderkey)
    )
    assert len(_same_as_interpreted(both, floor=14)) == 45


def test_semijoin_across_dictionaries(stores):
    """Keys coded by another collection's dictionary are translated once
    per unique string; a string the probe's dictionary lacks matches no
    row (and every row of the negated form)."""
    __, __, things, notes = stores
    memos = things.query().where(TEverything.i16 < param("n")).select(m=TEverything.memo)
    for negated in (False, True):
        query = (
            notes.query().where_in(TNote.text, memos, negated=negated)
            .group_by(text=TNote.text).aggregate(n=Count())
        )
        rows = _same_as_interpreted(query, n=90)
        # notes hold "memo 3".."memo 11", things "memo 0".."memo 5"
        assert sorted(t for t, __ in rows) == (
            [f"memo {i}" for i in (10, 11, 6, 7, 8, 9)] if negated
            else ["memo 3", "memo 4", "memo 5"]
        )


def test_semijoin_on_decoded_rows_takes_the_same_probe(stores):
    """A subquery with post-scan operators only exists as decoded rows;
    they convert to raw columns once (dates, decimals, strings, ints)."""
    people, orders, __, __ = stores
    top = (
        orders.query().select(day=TOrder.placed, total=TOrder.total)
        .order_by("-total").take(20)
    )
    query = (
        orders.query().where_in((TOrder.placed, TOrder.total), top)
        .select(key=TOrder.orderkey)
    )
    assert len(_same_as_interpreted(query)) == 20
    keys = _KeyColumns.from_rows(top.run().rows)
    assert [d[0] for d in keys.dtypes] == ["date", "decimal"]
    assert [c.dtype.kind for c in keys.columns] == ["i", "i"]
    names = people.query().select(name=TPerson.name).distinct()
    query = orders.query().where_in(TOrder.owner.ref("name"), names).aggregate(n=Count())
    assert _same_as_interpreted(query) == [(90,)]


# ----------------------------------------------------------------------
# Count gates on a TPC-H store
# ----------------------------------------------------------------------


class _CountingNumpy:
    """Stand-in for ``columnar_exec``'s ``np``: forwards everything,
    counts the comparison sorts the module itself asks for (whatever
    ``np.isin`` does internally is NumPy's business, not counted)."""

    SORTS = ("unique", "argsort", "sort")

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.SORTS:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.fixture
def counters(monkeypatch):
    fake = _CountingNumpy()
    monkeypatch.setattr(columnar_exec, "np", fake)

    def counting(name, real):
        def counted(*args, **kwargs):
            fake.calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name, real in (("sorted", sorted), ("set", set), ("frozenset", frozenset)):
        monkeypatch.setattr(columnar_exec, name, counting(name, real), raising=False)
    monkeypatch.setattr(
        columnar_exec, "_decode_column",
        counting("_decode_column", columnar_exec._decode_column),
    )
    return fake.calls


@pytest.fixture(scope="module")
def tpch_two_block_sizes(tpch_small):
    loads = {
        shift: load_smc(tpch_small, manager=MemoryManager(block_shift=shift))
        for shift in (16, 20)
    }
    small, large = (loads[s]["lineitem"].context.block_count() for s in (16, 20))
    assert small >= 8 * large
    yield loads
    for colls in loads.values():
        colls["_manager"].close()


def _key_column_count(query):
    count = 0
    for op in query.ops:
        if isinstance(op, GroupBy):
            count += len(op.keys)
        elif isinstance(op, WhereIn):
            count += _key_column_count(op.subquery)
    return count


def _sorts(calls):
    return sum(calls[name] for name in _CountingNumpy.SORTS + ("sorted",))


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_sort_count_per_request(tpch_two_block_sizes, counters, name):
    per_load = {}
    for shift, colls in tpch_two_block_sizes.items():
        query = ALL_QUERIES[name](colls)
        query.run(params=DEFAULT_PARAMS)  # warm: plans, match caches
        counters.clear()
        result = query.run(params=DEFAULT_PARAMS)
        per_load[shift] = _sorts(counters)
        assert _canonical(result) == _canonical(
            query.run(engine="interpreted", params=DEFAULT_PARAMS)
        )
    # Sorting happens per request, never per block ...
    assert per_load[16] == per_load[20]
    # ... at most once per group-by key column plus once for the combined
    # code; not at all when every key is small-domain.
    assert per_load[16] <= _key_column_count(ALL_QUERIES[name](colls)) + 1
    if name in ("q1", "q6", "q14"):
        assert per_load[16] == 0


@pytest.mark.parametrize("name", ["q2", "q4"])
def test_subquery_keys_stay_arrays(tpch_two_block_sizes, counters, name):
    colls = tpch_two_block_sizes[16]
    manager = colls["_manager"]
    query = ALL_QUERIES[name](colls)
    (subquery,) = [op.subquery for op in query.ops if isinstance(op, WhereIn)]
    query.run(params=DEFAULT_PARAMS)
    counters.clear()
    before = dict(manager.stats.extra)
    query.run(params=DEFAULT_PARAMS)
    # No Python set of subquery rows, and the subquery is never decoded:
    # the only decodes are the outer query's output columns, once each
    # (q2's five projected columns, q4's priority key; a count column
    # needs no decoding).
    assert counters["set"] == counters["frozenset"] == 0
    assert counters["_decode_column"] == (1 if name == "q4" else 5)
    # The subquery's scan is still a scan to the telemetry.
    extra = manager.stats.extra
    scanned = extra["scan_rows"] - before["scan_rows"]
    blocks = extra["scan_blocks"] - before["scan_blocks"]
    inner = subquery.source
    assert scanned >= len(inner) and blocks >= inner.context.block_count()
    assert planner.observation(subquery.signature())["rows_scanned"] == len(inner)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["q3", "q10"])
def test_finish_decodes_once_per_column(tpch_two_block_sizes, counters, name, workers):
    """Grouped results decode column by column, never key by key:
    ``finish()`` calls ``_decode_column`` once per non-count output column,
    whatever the group count and however many blocks (or morsels) the
    scan's partial aggregates came from."""
    for colls in tpch_two_block_sizes.values():
        query = ALL_QUERIES[name](colls)
        (groupby,) = [op for op in query.ops if isinstance(op, GroupBy)]
        decoded = len(groupby.keys) + sum(
            agg.kind != "count" for __, agg in groupby.aggs
        )
        query.run(params=DEFAULT_PARAMS, workers=workers)
        counters.clear()
        result = query.run(params=DEFAULT_PARAMS, workers=workers)
        assert counters["_decode_column"] == decoded
        assert result.rows
