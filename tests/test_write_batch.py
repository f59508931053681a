"""The batch write path.

A ``mutate`` request is checked whole, then applied as runs of
``add_many`` / ``remove_many``; crash recovery hands the committed log
to ``apply_batch``.  The gates:

* the WAL a fixed request sequence writes is byte-identical to the one
  the per-row write path wrote (a recorded sha256);
* the same ops sent as one request and as one-op requests give the same
  entries, rows and mutation records — under a memory budget whose cold
  blocks the writes must fault hot, with a compaction between requests;
* ``recover()`` ends in the writer's state, including a
  self-referencing row whose target an earlier row of the same replayed
  run adds, and — over random tails — when it applies only the tail's
  net effect;
* a request rejected at any op leaves rows and WAL bytes untouched.
"""

from __future__ import annotations

import hashlib
import tempfile
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import Collection
from repro.durability import DurableStore, MutationError, recover, scan_wal
from repro.durability.wal import ADD, BEGIN, COMMIT, REMOVE, UPDATE
from repro.memory.manager import MemoryManager
from repro.schema.fields import RefField
from repro.tpch import schema as tpch_schema
from tests.schemas import TLedger, TNote, TPerson

TABLES = ("region", "nation", "supplier", "customer", "part", "orders", "lineitem")

#: sha256 of the WAL segment :func:`run_golden` writes, as recorded with
#: the per-row write path (one ``Collection.add`` per op, every value
#: converted three times) that the batch path replaced.
GOLDEN_WAL_SHA256 = "4e4e9860f5ac7e38cf8a14d4429adbc02e7fa530b1db33835341a6b5555acc79"


def _d(text):
    return {"$d": text}


def _t(text):
    return {"$t": text}


def _r(entry):
    return {"$r": entry}


def _add(collection, **values):
    return {"op": "add", "collection": collection, "values": values}


def _remove(collection, entry):
    return {"op": "remove", "collection": collection, "entry": entry}


def _update(collection, entry, **values):
    return {"op": "update", "collection": collection, "entry": entry, "values": values}


def _collections(manager):
    colls = {
        name: Collection(tpch_schema.SCHEMAS[name], manager=manager)
        for name in TABLES
    }
    colls["ledger"] = Collection(TLedger, manager=manager, name="ledger")
    colls["_manager"] = manager
    return colls


def _store(path, manager=None, **kwargs):
    kwargs.setdefault("fsync_policy", "none")
    colls = _collections(manager or MemoryManager())
    return DurableStore.create(str(path), collections=colls, **kwargs), colls


def _entries(results):
    return [r["entry"] for r in results]


def _lineitem(order, part, supplier, number, **values):
    row = dict(
        order=_r(order), part=_r(part), supplier=_r(supplier),
        orderkey=100 + number, partkey=7, suppkey=3, linenumber=number,
        quantity=_d("1"), extendedprice=_d("10.5"), discount=_d("0.05"),
        tax=_d("0"), returnflag="N", linestatus="O",
        shipdate=_t("1996-03-13"), commitdate=_t("1996-02-12"),
        receiptdate=_t("1996-03-22"), shipinstruct="DELIVER IN PERSON",
        shipmode="TRUCK", comment="line",
    )
    row.update(values)
    return _add("lineitem", **row)


def run_golden(store):
    """The fixed request sequence behind :data:`GOLDEN_WAL_SHA256`."""
    apply = store.apply
    (region,) = _entries(apply([_add("region", regionkey=1, name="EUROPE", comment="old")]))
    (nation,) = _entries(apply([
        _add("nation", nationkey=7, name="GERMANY", region=_r(region),
             regionkey=1, comment="old"),
    ]))
    supplier, customer = _entries(apply([
        _add("supplier", suppkey=3, name="Supplier#3", address="1 main st",
             nation=_r(nation), nationkey=7, phone="17-555-0100",
             acctbal=_d("-12.5"), comment="reliable"),
        _add("customer", custkey=9, name="Customer#9", address="2 side st",
             nation=_r(nation), nationkey=7, phone="17-555-0199",
             acctbal=_d("0"), mktsegment="BUILDING", comment="reliable"),
    ]))
    (part,) = _entries(apply([
        _add("part", partkey=7, name="blue steel", mfgr="Manufacturer#1",
             brand="Brand#13", type="PROMO BRASS", size=5,
             container="SM CASE", retailprice=_d("1e3"), comment="shiny"),
    ]))
    orders = _entries(apply([
        _add("orders", orderkey=100 + i, customer=_r(customer), custkey=9,
             orderstatus="O", totalprice=price, orderdate=_t("1996-01-02"),
             orderpriority="1-URGENT", clerk="Clerk#1", shippriority=0,
             comment=comment)
        for i, (price, comment) in enumerate(
            [(_d("24"), "rush"), (_d("1e2"), "rush"), (_d("-0.5"), "slow boat")]
        )
    ]))
    lines = _entries(apply([
        _lineitem(orders[i // 2], part, supplier, i, quantity=quantity,
                  extendedprice=price, comment=comment)
        for i, (quantity, price, comment) in enumerate([
            (_d("1e2"), _d("-12.34"), "rush"),
            (_d("3"), _d("0.10"), "fragile"),
            (_d("0"), _d("5"), "fragile"),
            (_d("-2"), _d("17.00"), "line"),
            (_d("17.00"), _d("1E+1"), "reliable"),
            (_d("0.5"), _d("-0"), "the last one"),
        ])
    ]))
    apply([
        _remove("lineitem", lines[1]),
        _remove("lineitem", lines[4]),
        _update("orders", orders[0], comment="delayed", totalprice=_d("30")),
        _lineitem(orders[2], part, supplier, 9, comment="delayed"),
    ])
    ledger = _entries(apply([
        _add("ledger", units=_d("7"), amount=_d("0.10"), day=_t("2001-02-03"),
             flag=True, ratio=1.5, tag="a", memo="first"),
        _add("ledger", units=_d("-3"), amount=_d("0"), day=_t("1970-01-01"),
             flag=False, ratio=0, tag="", memo=""),
        _add("ledger", units=_d("2.5"), amount=_d("1e1"), memo="first"),
        _add("ledger", units=_d("5"), memo="sparse"),
    ]))
    apply([
        _add("ledger", units=_d("-0"), amount=_d("-7.25"), parent=_r(ledger[0]),
             memo="child", tag="kid"),
        _update("ledger", ledger[1], parent=_r(ledger[0]), memo="second"),
        _remove("ledger", ledger[2]),
        _remove("lineitem", lines[0]),
    ])
    apply([_remove("lineitem", e) for e in (lines[2], lines[3], lines[5])]
          + [_remove("orders", orders[1])])


def _wal_bytes(store) -> bytes:
    with open(store.wal.path, "rb") as fh:
        return fh.read()


def _mutations(path):
    """(kind, payload) of every mutation / INTERN record of a segment."""
    return [
        (rec.kind, rec.payload)
        for rec in scan_wal(path).records
        if rec.kind not in (BEGIN, COMMIT)
    ]


def _value(coll, handle, field):
    value = getattr(handle, field.name)
    if isinstance(field, RefField):
        # A reference by what it points at: entry ids differ between a
        # writer and a store that replayed its log.  One whose target is
        # removed reads as null.
        if value is None or not value.is_alive:
            return None
        return _row(value.collection, value, deep=False)
    return value


def _row(coll, handle, deep=True):
    return tuple(
        _value(coll, handle, f) if deep or not isinstance(f, RefField) else None
        for f in coll.layout.fields
    )


def _logical(colls):
    """Every collection's rows, references resolved to their targets."""
    return {
        name: sorted((repr(_row(coll, h)) for h in coll))
        for name, coll in colls.items()
        if not name.startswith("_")
    }


def _by_entry(colls):
    """Every collection's rows keyed by entry id, references as ids."""
    out = {}
    for name, coll in colls.items():
        if name.startswith("_"):
            continue
        rows = {}
        for h in coll:
            row = []
            for f in coll.layout.fields:
                value = getattr(h, f.name)
                if isinstance(f, RefField) and value is not None:
                    value = value.ref.entry
                row.append(value)
            rows[h.ref.entry] = tuple(row)
        out[name] = rows
    return out


def _incarnations(colls):
    """Every collection's live rows: entry id -> incarnation."""
    return {
        name: {h.ref.entry: h.ref.inc for h in coll}
        for name, coll in colls.items()
        if not name.startswith("_")
    }


# ----------------------------------------------------------------------
# WAL golden
# ----------------------------------------------------------------------


def test_wal_is_byte_identical_to_the_per_row_path(tmp_path):
    store, __ = _store(tmp_path / "golden")
    run_golden(store)
    digest = hashlib.sha256(_wal_bytes(store)).hexdigest()
    store.close()
    assert digest == GOLDEN_WAL_SHA256


def test_logged_values_are_canonical(tmp_path):
    """What a record logs is a function of the stored raw: the tagged
    form of ``from_raw(raw)``, whatever spelling the request used."""
    store, colls = _store(tmp_path / "canon")
    run_golden(store)
    path = store.wal.path
    store.close()
    ledger = [p["v"] for kind, p in _mutations(path) if p.get("c") == "ledger" and "v" in p]
    assert ledger[0]["units"] == {"$d": "7"}
    assert ledger[1]["units"] == {"$d": "-3"}
    assert ledger[2]["units"] == {"$d": "2"}  # scale 0: 2.5 rounds half-even
    assert ledger[2]["amount"] == {"$d": "10.00"}
    assert ledger[3] == {"units": {"$d": "5"}, "memo": {"$s": ledger[3]["memo"]["$s"]}}
    lines = [p["v"] for kind, p in _mutations(path) if p.get("c") == "lineitem" and "v" in p]
    assert lines[0]["quantity"] == {"$d": "100.00"}
    assert lines[5]["extendedprice"] == {"$d": "0.00"}
    assert lines[4]["extendedprice"] == {"$d": "10.00"}


# ----------------------------------------------------------------------
# Batch vs singleton
# ----------------------------------------------------------------------


def _base(manager):
    """A lineitem population spanning many 64 KiB blocks."""
    colls = _collections(manager)
    region = colls["region"].add(regionkey=1, name="EUROPE", comment="old")
    nation = colls["nation"].add(nationkey=7, name="GERMANY", region=region)
    supplier = colls["supplier"].add(suppkey=3, nation=nation, comment="s")
    customer = colls["customer"].add(custkey=9, nation=nation, comment="c")
    part = colls["part"].add(partkey=7, name="blue steel", comment="p")
    orders = colls["orders"].add_many(
        [dict(orderkey=i, customer=customer, comment=f"order {i % 7}")
         for i in range(40)]
    )
    colls["lineitem"].add_many(
        [dict(order=orders[i % 40], part=part, supplier=supplier,
              orderkey=i % 40, linenumber=i, quantity=Decimal(i % 50),
              comment=f"line {i % 13}") for i in range(1500)]
    )
    return colls


def _phases(colls):
    """Op lists naming only rows the base holds, so both runs send the
    very same ops."""
    orders = [h.ref.entry for h in colls["orders"]]
    lines = [h.ref.entry for h in colls["lineitem"]]
    part = next(iter(colls["part"])).ref.entry
    supplier = next(iter(colls["supplier"])).ref.entry
    adds = [
        _lineitem(orders[i % 40], part, supplier, i, quantity=_d(str(i % 9)),
                  comment=f"new {i % 5}" if i % 3 else "line 4")
        for i in range(30)
    ]
    return [
        adds[:10] + [_remove("lineitem", e) for e in lines[5:300:7]]
        + [_update("lineitem", lines[900], comment="touched", quantity=_d("-1"))],
        [_remove("lineitem", e) for e in lines[1000:1500:11]] + adds[10:20]
        + [_remove("orders", orders[3]), _update("orders", orders[4], comment="x")],
        adds[20:] + [_remove("lineitem", e) for e in lines[301:700:5]],
    ]


def _run_phases(tmp_path, name, singleton):
    manager = MemoryManager(block_shift=16, memory_budget=4 << 16)
    colls = _base(manager)
    store = DurableStore.create(
        str(tmp_path / name), collections=colls, fsync_policy="none"
    )
    results = []
    for ops in _phases(colls):
        manager.pager.maintain()  # demote: the phase's writes fault blocks hot
        assert manager.pager.telemetry()["cold_blocks"] > 0
        for request in ([op] for op in ops) if singleton else [ops]:
            results += store.apply(request)
        colls["lineitem"].compact(occupancy_threshold=0.9)
    state = _by_entry(colls)
    path = store.wal.path
    faults = manager.pager.telemetry()["faults"]
    store.close()
    manager.close()
    return results, state, _mutations(path), faults


def test_batch_and_singleton_requests_agree(tmp_path):
    batch = _run_phases(tmp_path, "batch", singleton=False)
    single = _run_phases(tmp_path, "single", singleton=True)
    assert batch[0] == single[0]  # entries handed out, in order
    assert batch[1] == single[1]  # every row, under its entry id
    assert batch[2] == single[2]  # every ADD / REMOVE / UPDATE / INTERN
    assert batch[3] > 0 and batch[3] == single[3]  # cold blocks faulted


# ----------------------------------------------------------------------
# Replay: recovery
# ----------------------------------------------------------------------


def test_recovery_ends_in_the_writers_state(tmp_path):
    store, colls = _store(tmp_path / "primary")
    run_golden(store)
    # Python-API mutations land in the same tail.
    with store.batch():
        ledger = colls["ledger"]
        root = ledger.add(units=1, memo="root")
        ledger.add_many([{"units": 2, "parent": root}, {"units": 3, "parent": root}])
    expected = _logical(colls)

    store.close(checkpoint=False)  # the tail is all there is
    loaded, report = recover(str(tmp_path / "primary"))
    assert report.replayed > 0
    assert _logical(loaded) == expected
    loaded["_manager"].close()
    store.manager.close()


def test_replayed_run_resolves_references_to_its_own_rows(tmp_path):
    """ADD records replay as one run per collection, but a row that
    references a row of the same run is added after it."""
    store, colls = _store(tmp_path / "chain")
    ledger = colls["ledger"]
    with store.batch():
        first = ledger.add(units=1, memo="a")
        second = ledger.add(units=2, parent=first, memo="b")
        ledger.add(units=3, parent=second, memo="c")
    (entry,) = _entries(store.apply([_add("ledger", units=_d("4"), parent=_r(second.ref.entry))]))
    store.apply([_add("ledger", units=_d("5"), parent=_r(entry))])
    expected = _logical(colls)
    store.close(checkpoint=False)
    loaded, report = recover(str(tmp_path / "chain"))
    assert report.replayed == 5
    assert _logical(loaded) == expected
    chain = {h.units: h.parent.units if h.parent else None for h in loaded["ledger"]}
    assert chain == {1: None, 2: 1, 3: 2, 4: 2, 5: 4}
    loaded["_manager"].close()
    store.manager.close()


MEMOS = ("", "a", "bb", "shared memo")


def _net_effect_ops(data, coll, n):
    """Draw and run *n* single mutations on *coll* (``ledger`` or
    ``notes``): adds, removes of live rows, and updates of a scalar, a
    string or a reference — the reference to any live ledger row, one
    a later op may remove included."""
    ledger = coll.manager.collections["TLedger"]
    for __ in range(n):
        rows = list(coll)
        kind = data.draw(st.sampled_from(["add", "remove", "update"] if rows else ["add"]))
        if kind == "remove":
            coll.remove(data.draw(st.sampled_from(rows)))
            continue
        if coll.schema is TNote:
            values = {"text": data.draw(st.sampled_from(MEMOS)),
                      "stars": data.draw(st.integers(0, 5))}
        else:
            parents = [None] + list(ledger)
            values = {"units": data.draw(st.integers(-9, 9)),
                      "memo": data.draw(st.sampled_from(MEMOS)),
                      "parent": data.draw(st.sampled_from(parents))}
        if kind == "add":
            coll.add(**values)
        else:
            name = data.draw(st.sampled_from(sorted(values)))
            setattr(data.draw(st.sampled_from(rows)), name, values[name])


def _tail_mutations(path):
    """The committed ADD / REMOVE / UPDATE records of a segment."""
    return sum(
        rec.kind in (ADD, REMOVE, UPDATE)
        for rec in scan_wal(path).committed_records()
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_net_effect_replay_matches_the_writer(data):
    """Replay applies only the tail's net effect — a row the tail adds
    and removes is skipped, unless an applied record referenced it —
    and ends in the writer's state; a store opened on it, mutated by
    the entries it hands out and opened again ends in the acknowledged
    state."""
    with tempfile.TemporaryDirectory() as root:
        manager = MemoryManager()
        colls = {
            "ledger": Collection(TLedger, manager=manager, name="ledger"),
            "notes": Collection(TNote, manager=manager, name="notes"),
            "_manager": manager,
        }
        store = DurableStore.create(root, collections=colls, fsync_policy="none")
        steps = data.draw(st.integers(1, 12), label="steps")
        checkpoint_at = data.draw(st.integers(0, steps), label="checkpoint at")
        visitors = None
        for step in range(steps):
            if step == checkpoint_at:
                store.checkpoint()
            if visitors is None and step >= min(checkpoint_at, steps - 1):
                # A collection first seen in the tail; its rows all go.
                visitors = colls["visitors"] = Collection(TPerson, manager=manager, name="visitors")
                visitors.mutation_log = store
                visitors.add(name="guest", age=step)
            kind = data.draw(st.sampled_from(
                ["single", "batch", "reuse", "visitor", "dangling"]))
            coll = colls[data.draw(st.sampled_from(["ledger", "notes"]))]
            if kind == "dangling":
                # A reference, from a new row or by an update, to a row
                # the tail removes now or maybe later.
                ledger = colls["ledger"]
                rows = list(ledger)
                target = ledger.add(units=0, memo="target")
                if rows and data.draw(st.booleans()):
                    data.draw(st.sampled_from(rows)).parent = target
                else:
                    ledger.add(units=1, parent=target)
                if data.draw(st.booleans()):
                    ledger.remove(target)
            elif kind == "single":
                _net_effect_ops(data, coll, 1)
            elif kind == "batch":
                with store.batch():
                    _net_effect_ops(data, coll, data.draw(st.integers(2, 5)))
            elif kind == "reuse":
                for __ in range(3):  # removed entries are handed out again
                    manager.epochs.try_advance()
            elif visitors is not None:
                visitors.add(name="walk-in", age=step)
        with store.batch():
            for handle in list(visitors):
                visitors.remove(handle)
        expected = _logical(colls)
        by_entry, incarnations = _by_entry(colls), _incarnations(colls)
        path = store.wal.path
        store.close(checkpoint=False)
        manager.close()

        loaded, report = recover(root)
        assert _logical(loaded) == expected
        assert report.replayed + report.skipped == _tail_mutations(path)
        # One identity across the crash: every row at the writer's entry
        # and incarnation, and no row at an entry the tail freed for good.
        assert _by_entry(loaded) == by_entry
        assert _incarnations(loaded) == incarnations
        freed = set()
        for rec in scan_wal(path).committed_records():
            if rec.kind == REMOVE:
                freed.add(rec.payload["e"])
            elif rec.kind == ADD:
                freed.discard(rec.payload["e"])
        assert all(loaded["_manager"].live_ref(e) is None for e in freed)
        loaded["_manager"].close()

        for __ in range(2):
            store = DurableStore.open(root, fsync_policy="none")
            entries = [h.ref.entry for h in store.collections["ledger"]]
            ops = [_add("ledger", units=_d("1"), memo="restarted",
                        parent=_r(entries[-1]) if entries else None)]
            if entries:
                ops += [_update("ledger", entries[-1], memo="touched"),
                        _remove("ledger", entries[0])]
            store.apply(ops)
            expected = _logical(store.collections)
            store.close()
        store = DurableStore.open(root, fsync_policy="none")
        assert _logical(store.collections) == expected
        store.close()


# ----------------------------------------------------------------------
# A rejected request changes nothing
# ----------------------------------------------------------------------


def _rejection_store(tmp_path):
    store, colls = _store(tmp_path / "reject")
    ledger = _entries(store.apply([
        _add("ledger", units=_d(str(i)), memo=f"row {i}") for i in range(4)
    ]))
    (region,) = _entries(store.apply([_add("region", regionkey=1, name="ASIA")]))
    return store, colls, ledger, region


def _valid_ops(ledger, region):
    return [
        _add("region", regionkey=2, name="AFRICA", comment="new"),
        _add("nation", nationkey=1, name="KENYA", region=_r(region)),
        _remove("ledger", ledger[0]),
        _update("ledger", ledger[1], memo="changed", units=_d("9")),
        _add("ledger", units=_d("1"), parent=_r(ledger[2]), memo="child"),
        _remove("ledger", ledger[3]),
    ]


@pytest.mark.parametrize("index", range(6))
def test_rejection_at_any_op_changes_nothing(tmp_path, index):
    store, colls, ledger, region = _rejection_store(tmp_path)
    ops = _valid_ops(ledger, region)
    ops[index] = _add("region", regionkey=3, name="ATLANTIS", bogus=1)
    before = (_by_entry(colls), _wal_bytes(store))
    with pytest.raises(MutationError, match=f"op {index}:"):
        store.apply(ops)
    assert (_by_entry(colls), _wal_bytes(store)) == before
    # The same request without the bad op goes through.
    del ops[index]
    assert len(store.apply(ops)) == 5
    store.close()
    store.manager.close()


BAD_OPS = {
    "unknown field": lambda L, R: _add("region", regionkey=3, bogus=1),
    "unknown collection": lambda L, R: _add("nope", units=1),
    "unknown op": lambda L, R: {"op": "upsert", "collection": "region"},
    "bad decimal": lambda L, R: _add("ledger", units=_d("a lot")),
    "bad date": lambda L, R: _add("ledger", day=_t("1996-13-45")),
    "int out of range": lambda L, R: _add("region", regionkey=2**40),
    "char too long": lambda L, R: _add("region", name="X" * 13),
    "ref to a non-ref field": lambda L, R: _add("region", regionkey=_r(R)),
    "ref of the wrong collection": lambda L, R: _add("nation", region=_r(L[1])),
    "ref that is not a ref": lambda L, R: _add("nation", region=5),
    "dead entry": lambda L, R: _remove("ledger", 10**6),
    "values not an object": lambda L, R: {"op": "add", "collection": "region", "values": [1]},
    "remove then $r": lambda L, R: _add("ledger", parent=_r(L[3])),
    "remove then update": lambda L, R: _update("ledger", L[3], memo="ghost"),
    "remove twice": lambda L, R: _remove("ledger", L[3]),
}


@pytest.mark.parametrize("bad", sorted(BAD_OPS))
def test_rejected_op_kinds_change_nothing(tmp_path, bad):
    store, colls, ledger, region = _rejection_store(tmp_path)
    ops = _valid_ops(ledger, region) + [BAD_OPS[bad](ledger, region)]
    before = (_by_entry(colls), _wal_bytes(store))
    with pytest.raises(MutationError, match="op 6:"):
        store.apply(ops)
    assert (_by_entry(colls), _wal_bytes(store)) == before
    store.close()
    store.manager.close()


def test_add_many_checks_every_row_first(manager):
    """A bad row anywhere in an ``add_many`` adds nothing at all."""
    ledger = Collection(TLedger, manager=manager)
    ledger.add(units=1)
    allocations = manager.stats.allocations
    with pytest.raises(TypeError):
        ledger.add_many([{"units": 2}, {"units": 3}, {"nope": 4}])
    with pytest.raises(ValueError, match="tag"):
        ledger.add_many([{"units": 2}, {"tag": "far too long"}])
    assert manager.stats.allocations == allocations
    assert [h.units for h in ledger] == [1]
    handles = ledger.add_many([{"units": 2}, {"units": 3, "parent": ledger.add(units=9)}])
    assert [h.units for h in handles] == [2, 3]
    assert handles[1].parent.units == 9


def test_sparse_rows_keep_missing_strings_null(manager):
    """As field-by-field construction did: a row given under half its
    fields leaves the strings it was not given null; a fuller row stores
    them as ``""`` (dictionary code 0)."""
    ledger = Collection(TLedger, manager=manager)
    memo = TLedger.__layout__.by_name["memo"]

    def memo_word(handle):
        address = handle.ref.address()
        block = manager.space.block_at(address)
        offset = manager.space.offset_of(address) + memo.offset
        return memo._struct.unpack_from(block.buf, offset)[0]

    sparse, full = ledger.add_many(
        [{"units": 1}, {"units": 1, "amount": 2, "flag": True, "ratio": 0.5}]
    )
    assert (memo_word(sparse), memo_word(full)) == (-1, 0)
    assert sparse.memo == full.memo == ""
