"""Multi-process scatter-gather execution over shared-memory block pools.

Differential guarantees first: with blocks in named shared-memory
segments, every TPC-H query routed through the process pool must return
exactly the serial in-process rows, on both layouts, across mutations
(worker respawn) and worker death (morsel redispatch).  Then the
protocol pieces: segment visibility and the attach round-trip, the
parent's epoch pin over its workers, plan/accumulator wire encoding,
and the zero-orphan ``/dev/shm`` contract.

All tests here are sanitizer-compatible (``pytest --sanitize``).
"""

from __future__ import annotations

import glob
import os
import threading

import numpy as np
import pytest

from repro.memory.manager import MemoryManager
from repro.memory.shm import SEGMENT_PREFIX, SharedBuffers
from repro.query.procexec import ProcessScanPool
from repro.tpch.loader import load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES
from tests.seams import unpruned

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}


def _canonical(result):
    """Order-insensitive comparison form of a query result."""
    return (tuple(result.columns), sorted(map(tuple, result.rows)))


def _segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


# ----------------------------------------------------------------------
# Buffer policy: named segments, attach round-trip, leak contract
# ----------------------------------------------------------------------


def test_shared_buffers_create_attach_release():
    before = _segments()
    buffers = SharedBuffers()
    seg = buffers.create(4096)
    assert seg.name.startswith(SEGMENT_PREFIX)
    assert f"/dev/shm/{seg.name}" in _segments() - before

    view = np.frombuffer(seg.buf, dtype=np.uint8)
    view[: 4] = (1, 2, 3, 4)
    # Same-process attach returns the cached mapping; the bytes written
    # through the owner's view are the bytes an attacher reads.
    att = buffers.attach(seg.name)
    assert bytes(att.buf[:4]) == b"\x01\x02\x03\x04"

    view = None
    seg.release()
    buffers.close()
    assert _segments() == before


def test_heap_vs_shm_results_identical(tpch_tiny):
    heap = load_smc(tpch_tiny, columnar=True)
    shm = load_smc(tpch_tiny, columnar=True, shm=True)
    try:
        for name, builder in sorted(ALL_QUERIES.items()):
            want = _canonical(builder(heap).run(params=DEFAULT_PARAMS))
            got = _canonical(builder(shm).run(params=DEFAULT_PARAMS))
            assert got == want, name
    finally:
        heap["_manager"].close()
        shm["_manager"].close()


def test_no_orphan_segments_after_close(tpch_tiny):
    before = _segments()
    collections = load_smc(tpch_tiny, shm=True)
    manager = collections["_manager"]
    pool = ProcessScanPool(manager, workers=2)
    manager.exec_pool = pool
    query = ALL_QUERIES["q6"](collections)
    query.run(params=DEFAULT_PARAMS, workers=2)
    assert _segments() - before  # blocks really live in /dev/shm
    manager.close()  # shuts the pool, unlinks every segment
    assert _segments() == before


# ----------------------------------------------------------------------
# Scatter-gather differential: every query, both layouts
# ----------------------------------------------------------------------


def _mutate_batches(store):
    """Three ``mutate`` requests: lineitem removes, updates, and adds
    that copy existing rows, so every query keeps matching rows."""
    from repro.tagged import encode_value
    from repro.tpch.schema import Lineitem

    lines = list(store.collections["lineitem"])
    entries = [h.ref.entry for h in lines]
    refs = {
        name: {"$r": next(iter(store.collections[coll])).ref.entry}
        for name, coll in (
            ("order", "orders"), ("part", "part"), ("supplier", "supplier")
        )
    }
    scalars = [f for f in Lineitem.field_names() if f not in refs]
    adds = [
        {
            "op": "add",
            "collection": "lineitem",
            "values": dict(
                refs, **{f: encode_value(getattr(h, f)) for f in scalars}
            ),
        }
        for h in lines[::50]
    ]
    store.apply(
        [{"op": "remove", "collection": "lineitem", "entry": e}
         for e in entries[::7]]
    )
    store.apply(
        [{"op": "update", "collection": "lineitem", "entry": e,
          "values": {"comment": "touched", "shipmode": "AIR"}}
         for e in entries[1::7]]
    )
    store.apply(adds)


@pytest.fixture(scope="module", params=["row", "columnar"])
def pooled_smc(request, tpch_tiny, tmp_path_factory):
    if request.param != "composed":
        collections = load_smc(
            tpch_tiny, columnar=request.param == "columnar", shm=True
        )
        manager = collections["_manager"]
        manager.exec_pool = ProcessScanPool(manager, workers=2)
        yield collections
        manager.close()
        return
    # The composed server's shape: a data directory served from shared
    # memory under a hot budget, which took mutate batches before and
    # after a checkpoint and again after recovering onto that shape.
    from repro.durability import DurableStore

    data_dir = str(tmp_path_factory.mktemp("composed") / "dd")
    shape = dict(shm=True, memory_budget=1 << 17)
    store = DurableStore.create(
        data_dir,
        collections=load_smc(
            tpch_tiny, manager=MemoryManager(block_shift=16, **shape)
        ),
        fsync_policy="none",
    )
    _mutate_batches(store)
    store.checkpoint()
    _mutate_batches(store)
    store.close()
    store.manager.close()
    store = DurableStore.open(data_dir, fsync_policy="none", **shape)
    assert store.report.replayed > 0
    _mutate_batches(store)
    manager = store.manager
    manager.exec_pool = ProcessScanPool(manager, workers=2)
    manager.pager.maintain()
    assert manager.pager.residency_counts()["cold"] > 0
    yield dict(store.collections, _manager=manager)
    store.close()


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
@pytest.mark.parametrize(
    "pooled_smc", ["row", "columnar", "composed"], indirect=True
)
def test_differential_process_pool(pooled_smc, name):
    """Process-pool scans return exactly the serial in-process rows, in
    the serial order, down to each ``Decimal``'s exponent."""
    manager = pooled_smc["_manager"]
    query = ALL_QUERIES[name](pooled_smc)
    expected = repr(query.run(params=DEFAULT_PARAMS, workers=1).rows)
    before = manager.stats.extra.get("exec_process_queries", 0)
    got = query.run(params=DEFAULT_PARAMS, workers=2)
    assert repr(got.rows) == expected
    # The query really took the process path, not the serial fallback.
    assert manager.stats.extra.get("exec_process_queries", 0) == before + 1


def test_unordered_group_by_keeps_the_serial_order(tpch_small):
    """A group-by without ``order_by`` whose keys fall as blocks rise:
    the process pool returns the serial scan's rows in the serial scan's
    order, not merely the same set — partial aggregates merge as arrays
    in block order and fold once."""
    from repro.query.builder import Count, Sum
    from repro.tpch.schema import Lineitem as L

    manager = MemoryManager(block_shift=16, shm=True)
    collections = load_smc(tpch_small, manager=manager)
    try:
        assert collections["lineitem"].context.block_count() >= 4
        query = (
            collections["lineitem"].query()
            .group_by(k=L.orderkey * -1)
            .aggregate(n=Count(), revenue=Sum(L.extendedprice))
        )
        serial = query.run(workers=1).rows
        manager.exec_pool = ProcessScanPool(manager, workers=2)
        processes = query.run(workers=2).rows
        assert manager.stats.extra.get("exec_process_queries", 0) == 1
        assert len(serial) == len(collections["orders"])
        assert repr(processes) == repr(serial)
    finally:
        manager.close()


def test_two_column_semijoin_through_the_pool(pooled_smc):
    """A q2-shaped ``(reference, decimal)`` semi-join: the subquery's
    group-by output reaches the workers as two raw arrays, and every
    part's cheapest offer comes back exactly as the serial scan finds it."""
    from repro.query.builder import Min, ref_key
    from repro.query.columnar_exec import build_scan_plan
    from repro.query.procexec import _dump_plan, _load_plan
    from repro.tpch.schema import PartSupp as ps

    manager = pooled_smc["_manager"]
    partsupp = pooled_smc["partsupp"]
    cheapest = (
        partsupp.query()
        .group_by(part=ref_key(ps.part))
        .aggregate(cost=Min(ps.supplycost))
    )
    query = (
        partsupp.query()
        .where_in((ref_key(ps.part), ps.supplycost), cheapest)
        .select(partkey=ps.part.ref("partkey"), cost=ps.supplycost)
    )
    expected = query.run(engine="interpreted")
    assert len(expected.rows) >= len(pooled_smc["part"])
    before = manager.stats.extra.get("exec_process_queries", 0)
    got = query.run(workers=2)
    assert _canonical(got) == _canonical(expected)
    assert _canonical(query.run(workers=1)) == _canonical(expected)
    assert manager.stats.extra.get("exec_process_queries", 0) == before + 1

    plan, __ = build_scan_plan(query, {})
    plan.run_subqueries()
    decoded = _load_plan(manager, _dump_plan(manager, plan))
    ((__, keys),) = decoded.inset_ops
    assert [c.dtype.kind for c in keys.columns] == ["i", "i"]
    assert [d[0] for d in keys.dtypes] == ["ref", "decimal"]


def _empty_mirror(columnar):
    """A second manager with the same (empty) collections: what a worker
    holds for blocks its parent mapped after the fork — the contexts,
    but no block objects."""
    from repro.core.collection import Collection
    from repro.core.columnar import ColumnarCollection
    from repro.tpch import schema as tpch_schema

    mirror = MemoryManager(shm=True)
    factory = ColumnarCollection if columnar else Collection
    for name in tpch_schema.TABLES:
        factory(tpch_schema.SCHEMAS[name], manager=mirror)
    return mirror


def _attach(mirror, wire, block_id):
    """Run the worker's attach hook in-process for one block."""
    from multiprocessing import resource_tracker

    from repro.query.procexec import _make_attach_miss

    name = wire["heap_map"].get(block_id) or wire["space_map"][block_id]
    try:
        return _make_attach_miss(mirror, wire["space_map"], wire["heap_map"])(
            block_id
        )
    finally:
        # Attachers untrack what they map; in ONE process that also
        # drops the owner's registration, so put it back.
        resource_tracker.register("/" + name, "shared_memory")


def test_attach_hook_binds_the_owners_classes(pooled_smc):
    """procexec owns no block code: what the hook returns for a segment
    name is the class that owns the block in the parent."""
    from repro.memory.block import Block, ColumnarBlock
    from repro.memory.stringheap import StringBlock
    from repro.query.procexec import _space_map

    manager = pooled_smc["_manager"]
    columnar = pooled_smc["lineitem"].compiled_flavor == "columnar"
    mirror = _empty_mirror(columnar)
    try:
        wire = _space_map(manager)
        assert all(isinstance(v, str) for v in wire["space_map"].values())
        classes = set()
        for block in manager.space.live_blocks():
            attached = _attach(mirror, wire, block.block_id)
            assert type(attached) is type(block)
            assert mirror.space.block_by_id(block.block_id) is attached
            assert bytes(attached.buf[:64]) == bytes(block.buf[:64])
            classes.add(type(attached))
        assert classes == {ColumnarBlock if columnar else Block, StringBlock}
        attached = None
    finally:
        mirror.close()


def test_attach_hook_rejects_foreign_header(pooled_smc):
    """A segment whose header does not fit the context it names (here:
    the other layout) raises, naming the block; in a worker that is the
    error message that sends the query back to the serial scan."""
    from repro.query.procexec import _space_map

    manager = pooled_smc["_manager"]
    columnar = pooled_smc["lineitem"].compiled_flavor == "columnar"
    mirror = _empty_mirror(not columnar)
    try:
        wire = _space_map(manager)
        block_id = next(iter(wire["space_map"]))
        with pytest.raises(ValueError, match=f"block {block_id}:"):
            _attach(mirror, wire, block_id)
        assert mirror.space.live_block_count == 0
    finally:
        mirror.close()


def test_enumeration_falls_back_to_serial(pooled_smc):
    """Plans without a terminal (handle enumeration) stay in-process: the
    pool declines them and they run the serial scan, counted as
    ``exec_thread_queries``."""
    manager = pooled_smc["_manager"]
    before = manager.stats.extra.get("exec_thread_queries", 0)
    rows = pooled_smc["region"].query().run(workers=2)
    assert len(list(rows)) == len(pooled_smc["region"])
    assert manager.stats.extra.get("exec_thread_queries", 0) == before + 1


# ----------------------------------------------------------------------
# Mutations, worker death, epoch pins
# ----------------------------------------------------------------------


def _shm_tpch(tpch_tiny, columnar=False):
    collections = load_smc(tpch_tiny, columnar=columnar, shm=True)
    manager = collections["_manager"]
    manager.exec_pool = ProcessScanPool(manager, workers=2)
    return collections, manager


def _striped_tpch(tpch_tiny):
    """The row layout over 16 KiB blocks: lineitem spans enough blocks
    that a two-worker pool sends each worker a run."""
    manager = MemoryManager(block_shift=14, shm=True)
    collections = load_smc(tpch_tiny, manager=manager)
    manager.exec_pool = ProcessScanPool(manager, workers=2)
    return collections, manager


def test_mutation_respawns_workers(tpch_tiny):
    collections, manager = _shm_tpch(tpch_tiny)
    try:
        query = ALL_QUERIES["q1"](collections)
        expected = _canonical(query.run(params=DEFAULT_PARAMS, workers=1))
        assert _canonical(query.run(params=DEFAULT_PARAMS, workers=2)) == expected
        fp = manager.exec_pool.fingerprint()
        collections["lineitem"].add(**tpch_tiny.lineitem[0])
        assert manager.exec_pool.fingerprint() != fp
        post = _canonical(query.run(params=DEFAULT_PARAMS, workers=1))
        assert _canonical(query.run(params=DEFAULT_PARAMS, workers=2)) == post
        assert manager.stats.extra.get("exec_worker_respawns", 0) >= 1
    finally:
        manager.close()


def test_worker_crash_redispatches_morsels(tpch_tiny):
    """A worker SIGKILLed mid-query is detected; its unacked morsels are
    re-executed in the parent and the result stays byte-identical."""
    from repro import sanitizer

    collections, manager = _shm_tpch(tpch_tiny)
    try:
        query = ALL_QUERIES["q1"](collections)
        expected = _canonical(query.run(params=DEFAULT_PARAMS, workers=1))
        # after=0: every participating worker dies on its first morsel,
        # so the parent must recover the entire dispatch set.
        plan = sanitizer.FaultPlan().crash_at("exec.worker", after=0)
        with sanitizer.enabled(manager=manager, faults=plan):
            got = query.run(params=DEFAULT_PARAMS, workers=2)
        assert _canonical(got) == expected
        assert manager.stats.extra.get("exec_morsels_redispatched", 0) >= 1
        # The next query respawns a full complement and still agrees.
        again = query.run(params=DEFAULT_PARAMS, workers=2)
        assert _canonical(again) == expected
        assert manager.exec_pool.alive_workers() == 2
    finally:
        manager.close()


def test_compaction_churn_differential(tpch_tiny):
    """Serial and process-pool scans agree across compaction cycles, the
    second through a one-worker pool, and every pooled scan really takes
    the process path."""
    collections, manager = _shm_tpch(tpch_tiny)  # row layout: compactable
    try:
        lineitem = collections["lineitem"]
        for i, handle in enumerate(list(lineitem)):
            if i % 3 == 0:
                lineitem.remove(handle)
        for cycle in range(2):
            if cycle:
                manager.exec_pool.shutdown()
                manager.exec_pool = ProcessScanPool(manager, workers=1)
            moved = lineitem.compact(occupancy_threshold=0.9)
            assert moved >= 0
            for name in ("q1", "q6", "q14"):
                query = ALL_QUERIES[name](collections)
                want = _canonical(query.run(params=DEFAULT_PARAMS, workers=1))
                before = manager.stats.extra.get("exec_process_queries", 0)
                got = _canonical(query.run(params=DEFAULT_PARAMS, workers=2))
                assert got == want, name
                assert manager.stats.extra.get("exec_process_queries", 0) == before + 1
    finally:
        manager.close()


def test_parent_section_pins_the_epoch_while_workers_read(
    tpch_tiny, monkeypatch
):
    """While the parent waits on its workers, its critical section is the
    pin: another thread's try_advance takes the global epoch one step
    past the section's entry epoch, never two."""
    from repro.query import procexec

    collections, manager = _striped_tpch(tpch_tiny)
    epochs = manager.epochs
    real_wait = procexec.wait
    seen = []

    def advancing_wait(readable, *args):
        if not seen:
            entry = epochs.local_epoch()  # the parent's section
            advancer = threading.Thread(
                target=lambda: [epochs.try_advance() for __ in range(4)]
            )
            advancer.start()
            advancer.join(timeout=30)
            seen.append(
                (entry, epochs.global_epoch, len(readable), advancer.is_alive())
            )
        return real_wait(readable, *args)

    try:
        query = ALL_QUERIES["q1"](collections)
        expected = repr(query.run(params=DEFAULT_PARAMS, workers=1).rows)
        monkeypatch.setattr(procexec, "wait", advancing_wait)
        got = query.run(params=DEFAULT_PARAMS, workers=2)
        monkeypatch.undo()
        assert repr(got.rows) == expected
        assert manager.stats.extra.get("exec_process_queries", 0) == 1
        ((entry, reached, waiting, advancer_alive),) = seen
        assert not advancer_alive
        assert waiting == 2
        assert reached == entry + 1
    finally:
        manager.close()


def test_unwind_mid_fan_out_reaps_every_participant(tpch_tiny, monkeypatch):
    """An exception inside the fan-out leaves no worker alive (so none
    can still read once the parent's section closes), no section open,
    and a pool the next query respawns."""
    from repro.query import procexec

    def failing_wait(*args):
        raise RuntimeError("wait failed")

    collections, manager = _striped_tpch(tpch_tiny)
    pool = manager.exec_pool
    try:
        query = ALL_QUERIES["q1"](collections)
        expected = repr(query.run(params=DEFAULT_PARAMS, workers=1).rows)
        monkeypatch.setattr(procexec, "wait", failing_wait)
        with pytest.raises(RuntimeError, match="wait failed"):
            query.run(params=DEFAULT_PARAMS, workers=2)
        monkeypatch.undo()
        assert len(pool._procs) == 2 and pool.alive_workers() == 0
        for rec in pool._procs:
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(rec["pid"], os.WNOHANG)
        assert manager.epochs.min_active_epoch() == manager.epochs.global_epoch

        got = query.run(params=DEFAULT_PARAMS, workers=2)
        assert repr(got.rows) == expected
        assert manager.stats.extra.get("exec_process_queries", 0) == 1
        assert pool.alive_workers() == 2
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------


def _field_refs(node):
    """Every ``FieldRef`` in a plan's expressions and terminal."""
    from repro.query.expressions import FieldRef, Signed

    if isinstance(node, FieldRef):
        yield node
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _field_refs(item)
    elif isinstance(node, Signed):
        for cls in type(node).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if slot != "_sig" and hasattr(node, slot):
                    yield from _field_refs(getattr(node, slot))


def test_plan_wire_roundtrip_executes(tpch_tiny):
    """Every query's plan, pickled by the pool against one manager and
    unpickled against a second loaded from the same data, runs there to
    the serial rows; each field it names is the receiving layout's own
    object, not a copy."""
    from repro.query.columnar_exec import _finish, build_scan_plan
    from repro.query.procexec import _dump_plan, _load_plan

    sender = load_smc(tpch_tiny)
    receiver = load_smc(tpch_tiny)
    manager = receiver["_manager"]
    try:
        for name, builder in sorted(ALL_QUERIES.items()):
            query = builder(sender)
            expected = repr(query.run(params=DEFAULT_PARAMS, workers=1).rows)
            plan, post = build_scan_plan(query, DEFAULT_PARAMS)
            plan.run_subqueries()
            decoded = _load_plan(manager, _dump_plan(sender["_manager"], plan))
            assert decoded.zone_tests == []  # workers never prune
            assert decoded.source is manager.collections[plan.source.name]

            refs = list(
                _field_refs(
                    [decoded.filters, decoded.terminal]
                    + [op.exprs for op, __ in decoded.inset_ops]
                )
            )
            assert refs, name
            for ref in refs:
                for field in (ref.field, *ref.steps):
                    layout = manager.collections[field.owner.__name__].layout
                    assert field is layout.by_name[field.name], name

            acc = decoded.make_accumulator()
            for block in decoded.source.context.blocks():
                decoded.process_block(block, acc)
            assert repr(_finish(decoded, acc, post).rows) == expected, name
    finally:
        sender["_manager"].close()
        manager.close()


def _leaves(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _by_comment(collections):
    """Lineitems grouped by a dictionary-coded string: the one output
    kind whose dtype carries a ``StringDict``."""
    from repro.query.builder import Count
    from repro.tpch.schema import Lineitem as L

    return collections["lineitem"].query().group_by(c=L.comment).aggregate(n=Count())


@pytest.mark.parametrize("name", ["q1", "q3", "q10", "by_comment"])
def test_accumulator_wire_is_arrays(tpch_tiny, name):
    """A partial crosses the wire as one folded chunk of ndarrays plus
    ``(kind, meta)`` dtypes — no Python rows — whose string dictionaries
    arrive as the receiving collection's own; merged after a serial
    partial, it yields the serial rows."""
    from repro.query.columnar_exec import build_scan_plan
    from repro.query.procexec import _dumps, _from_partial, _loads, _partial

    collections = load_smc(tpch_tiny, manager=MemoryManager(block_shift=16))
    receiver = load_smc(tpch_tiny, manager=MemoryManager(block_shift=16))
    manager = collections["_manager"]
    try:
        builder = dict(ALL_QUERIES, by_comment=_by_comment)[name]
        plan, __ = build_scan_plan(builder(collections), DEFAULT_PARAMS)
        blocks = [b for b in plan.source.context.blocks() if plan.admits(b)]
        assert len(blocks) >= 2

        def scan(part):
            acc = plan.make_accumulator()
            for block in part:
                plan.process_block(block, acc)
            return acc

        half = len(blocks) // 2
        sent = scan(blocks[half:])
        partial = _loads(receiver["_manager"], _dumps(manager, _partial(sent)))
        rows, keys, cells = partial[0]
        assert isinstance(rows, int) and rows > 0
        assert all(isinstance(a, np.ndarray) for a in _leaves([keys, cells]))

        owners = {
            id(coll.strdict): coll_name
            for coll_name, coll in manager.collections.items()
            if coll.strdict is not None
        }
        strcodes = 0
        for (kind, meta), (__, mine) in zip(
            partial[1] + partial[2], sent.key_dtypes + sent.agg_dtypes
        ):
            if kind == "strcode":
                strcodes += 1
                owner = receiver["_manager"].collections[owners[id(mine)]]
                assert meta is owner.strdict
            else:
                assert meta == mine
        assert strcodes == (name == "by_comment")

        merged = scan(blocks[:half])
        merged.merge(_from_partial(plan.terminal, partial))
        want = scan(blocks).finish(manager)
        assert repr(merged.finish(manager)) == repr(want)
        assert want[1]
    finally:
        manager.close()
        receiver["_manager"].close()


def test_worker_unpickling_error_falls_back_to_serial(tpch_tiny, monkeypatch):
    """A worker that cannot unpickle its plan answers ``error``: the query
    returns the serial rows, is not counted as a process query, and the
    worker stays alive (an error is not a death)."""
    import pickle

    from repro.query import procexec

    def refuse(self, pid):
        raise pickle.UnpicklingError(f"cannot resolve {pid!r}")

    collections, manager = _striped_tpch(tpch_tiny)
    try:
        query = ALL_QUERIES["q1"](collections)
        expected = repr(query.run(params=DEFAULT_PARAMS, workers=1).rows)
        # Workers fork on the first pooled query, so they inherit this.
        monkeypatch.setattr(procexec._Unpickler, "persistent_load", refuse)
        got = query.run(params=DEFAULT_PARAMS, workers=2)
        monkeypatch.undo()
        assert repr(got.rows) == expected
        extra = manager.stats.extra
        assert extra.get("exec_process_queries", 0) == 0
        assert extra.get("exec_thread_queries", 0) == 1
        assert extra.get("exec_morsels_redispatched", 0) == 0
        assert manager.exec_pool.alive_workers() == 2
    finally:
        manager.close()


def test_pool_requires_shared_buffers(tpch_tiny):
    collections = load_smc(tpch_tiny)  # heap policy
    manager = collections["_manager"]
    try:
        with pytest.raises(ValueError, match="shared-memory"):
            ProcessScanPool(manager, workers=2)
    finally:
        manager.close()


def test_foreign_plan_is_refused(tpch_tiny):
    """A pool never runs a plan built against a different manager."""
    from repro.query.columnar_exec import build_scan_plan

    a = load_smc(tpch_tiny, shm=True)
    b = load_smc(tpch_tiny)
    try:
        pool = ProcessScanPool(a["_manager"], workers=1)
        a["_manager"].exec_pool = pool
        with unpruned():
            plan, __ = build_scan_plan(ALL_QUERIES["q6"](b), DEFAULT_PARAMS)
        assert pool.run(plan) is None
    finally:
        a["_manager"].close()
        b["_manager"].close()
