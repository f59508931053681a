"""Memory tiering: pager, residency protocol, budget.

Differential guarantees first: a budgeted manager must answer every query
byte-identically to an unbudgeted one while ``hot_bytes() <= budget``
holds at every operation boundary, and a fully-pruned scan must touch
zero cold bytes (the zone map built at demotion answers for the spilled
block).  Residency is a write concern: scans read cold blocks through
their mapping and leave faults, evictions and hot bytes where they were;
only a writer (or a pin) promotes.  Then the protocol pieces: the
hot/cooling/cold state machine, the two-epoch demotion grace under a
live reader — including a reader still inside a cold image a writer has
since faulted and the pager wants to re-spill — pin/unpin, eviction
versus compaction ownership, the clean-spill-skip optimisation, zombie
mappings, the tier store's region recycling, the sanitizer's tiering
invariants, and the zero-leftover ``smc_tier_*`` file contract.

All tests here are sanitizer-compatible (``pytest --sanitize``).
"""

from __future__ import annotations

import glob
import os
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import sanitizer
from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.errors import ProtocolViolation
from repro.memory.manager import MemoryManager
from repro.memory.pager import TIER_PREFIX, TieredBuffers, TierStore
from repro.sanitizer import hooks as _hooks
from repro.tpch.loader import load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}

from tests.schemas import TPerson

BS = 1 << 10  # block size at block_shift=10


def _tier_files():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), f"{TIER_PREFIX}*")))


def _budgeted(blocks: int, **kwargs) -> MemoryManager:
    return MemoryManager(block_shift=10, memory_budget=blocks * BS, **kwargs)


def _fill_blocks(persons, blocks, age=1):
    handles = []
    while persons.context.block_count() < blocks:
        handles.append(persons.add(name=f"p{len(handles)}", age=age))
    return handles


def _block_of(manager, handle):
    with manager.critical_section():
        return manager.space.block_at(handle.ref.address())


def _canonical(result):
    return (tuple(result.columns), sorted(map(tuple, result.rows)))


# ----------------------------------------------------------------------
# Residency state machine and budget enforcement
# ----------------------------------------------------------------------


def test_residency_lifecycle_budget_and_cold_reads():
    m = _budgeted(3)
    pager = m.pager
    assert pager is not None and isinstance(m.space.buffers, TieredBuffers)
    persons = Collection(TPerson, manager=m)
    handles = _fill_blocks(persons, 8, age=7)

    pager.maintain()
    assert pager.hot_bytes() <= pager.budget
    counts = pager.residency_counts()
    assert counts["cold"] >= 5 and counts["cooling"] == 0
    assert sum(counts.values()) == len(persons.context.blocks())

    # Reads work in place over the cold mappings: no promotion happens.
    faults_before = pager.faults
    assert sorted(h.age for h in persons) == [7] * len(handles)
    assert all(h.name.startswith("p") for h in handles)
    assert pager.faults == faults_before

    # Cold buffers are read-only file mappings — a stray write raises
    # instead of corrupting the spilled image.
    cold = next(b for b in persons.context.blocks() if b.residency == "cold")
    assert cold.buf.readonly
    with pytest.raises(TypeError):
        cold.buf[0:1] = b"x"
    with pytest.raises(ValueError):
        cold.reset(cold.context)

    # A write promotes (ensure_hot inside the writer's critical section),
    # marks the tier image stale, and the next demotion re-spills.
    victim = next(
        h for h in handles if _block_of(m, h).residency == "cold"
    )
    spills_before = pager.spills
    victim.age = 99
    block = _block_of(m, victim)
    assert block.residency == "hot" and block.tier_dirty
    assert pager.faults == faults_before + 1
    pager.maintain()
    assert pager.hot_bytes() <= pager.budget
    assert pager.spills > spills_before
    assert victim.age == 99  # readable again from the fresh cold image
    m.close()


def test_clean_redemotion_skips_the_spill():
    m = _budgeted(1)
    pager = m.pager
    persons = Collection(TPerson, manager=m)
    _fill_blocks(persons, 5)
    pager.maintain()
    spills = pager.spills
    assert spills >= 4

    # Scan admission leaves a cold block where it lies ...
    cold = next(b for b in persons.context.blocks() if b.residency == "cold")
    pager.touch(cold)
    assert cold.residency == "cold" and pager.faults == 0

    # ... a pin promotes it without a write: the tier image stays
    # current (tier_dirty=False, region retained) ...
    with pager.pinned(cold):
        assert cold.residency == "hot" and cold.tier_offset >= 0
        assert not cold.tier_dirty

    # ... so demoting it again writes nothing.
    pager.maintain()
    assert pager.hot_bytes() <= pager.budget
    assert cold.residency == "cold"
    assert pager.spills == spills


def test_pin_faults_and_bars_demotion():
    m = _budgeted(1)
    pager = m.pager
    persons = Collection(TPerson, manager=m)
    _fill_blocks(persons, 4)
    pager.maintain()
    cold = next(b for b in persons.context.blocks() if b.residency == "cold")

    with pager.pinned(cold):
        assert cold.residency == "hot"  # pin faulted it in
        assert cold.pin_count == 1
        pager.maintain()
        assert cold.residency == "hot"  # pinned blocks are not victims
    pager.maintain()
    assert cold.residency == "cold"  # unpinned -> evictable again
    with pytest.raises(ValueError):
        pager.unpin(cold)
    m.close()


def test_tier_files_are_unlinked_at_close():
    before = _tier_files()
    m = _budgeted(1)
    persons = Collection(TPerson, manager=m)
    _fill_blocks(persons, 4)
    m.pager.maintain()
    assert _tier_files() - before  # cold blocks really live in the file
    path = m.space.buffers.tier_path
    assert path is not None and TIER_PREFIX in os.path.basename(path)
    m.close()
    assert _tier_files() == before


# ----------------------------------------------------------------------
# Differential: budgeted == unbudgeted, bytes held at boundaries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("source", ["snapshot", "recovered", "recovered-clean"])
def test_tpch_budgeted_results_identical(tpch_small, tmp_path, source):
    """All ten queries over a pool at its minimum budget are
    byte-identical to always-hot and never change residency — the pool
    loaded from a snapshot, or recovered (in shared memory) from a data
    directory whose log tail replays onto it or is empty."""
    from repro.durability import DurableStore

    plain = load_smc(tpch_small, columnar=True)
    # Small blocks so the pool has many blocks at this scale factor; the
    # minimum budget (one block's bytes) demotes nearly all of them.
    if source == "snapshot":
        tiered = load_smc(
            tpch_small,
            columnar=True,
            manager=MemoryManager(block_shift=16, memory_budget=1),
        )
        manager = tiered["_manager"]
        close = manager.close
    else:
        data_dir = str(tmp_path / "dd")
        seed = load_smc(
            tpch_small, columnar=True, manager=MemoryManager(block_shift=16)
        )
        store = DurableStore.create(data_dir, collections=seed)
        if source == "recovered":
            # A row the tail adds and removes, which replay skips, and
            # one that stays, which it applies: no query reads a region
            # by this name.
            seed["region"].remove(
                seed["region"].add(regionkey=99, name="ATLANTIS")
            )
            seed["region"].add(regionkey=98, name="LEMURIA")
        store.close()
        seed["_manager"].close()
        store = DurableStore.open(data_dir, shm=True, memory_budget=1)
        replayed = (1, 2) if source == "recovered" else (0, 0)
        assert (store.report.replayed, store.report.skipped) == replayed
        tiered, manager, close = store.collections, store.manager, store.close
    pager = manager.pager
    pager.maintain()
    try:
        counts = pager.residency_counts()
        assert counts["cold"] > 0 and counts["cooling"] == 0
        # ``Pager.maintain``'s contract: the hot bytes fit the budget, or
        # every block still hot is one it may not demote (a context's
        # active block).  The budget is at least one block, so a pool
        # with no active block (an empty-tail recovery) keeps one hot.
        hot = [
            b
            for c in manager._contexts
            for b in c.blocks()
            if b.residency != "cold"
        ]
        assert pager.hot_bytes() <= pager.budget or all(b.is_active for b in hot)
        before = (pager.faults, pager.evictions, pager.hot_bytes())
        cold_reads = manager.stats.extra.get("tier_cold_block_reads", 0)
        for name, builder in sorted(ALL_QUERIES.items()):
            want = _canonical(builder(plain).run(params=DEFAULT_PARAMS))
            got = _canonical(builder(tiered).run(params=DEFAULT_PARAMS))
            assert got == want, name
            pager.maintain()  # operation boundary
            assert (pager.faults, pager.evictions, pager.hot_bytes()) == before, name
        # The pool really was read in place.
        assert manager.stats.extra["tier_cold_block_reads"] > cold_reads
        assert pager.telemetry()["zombie_mappings"] == 0
    finally:
        plain["_manager"].close()
        close()


def test_write_to_cold_block_faults_once_and_scans_see_it():
    m = _budgeted(1)
    pager = m.pager
    persons = ColumnarCollection(TPerson, manager=m)
    handles = _fill_blocks(persons, 4, age=5)
    pager.maintain()
    victim = next(h for h in handles if _block_of(m, h).residency == "cold")
    block = _block_of(m, victim)
    faults = pager.faults

    assert len(persons.query().where(TPerson.age == 5).run().rows) == len(handles)
    assert pager.faults == faults and block.residency == "cold"

    victim.age = 77  # the writer faults, exactly once
    victim.age = 78
    assert pager.faults == faults + 1
    assert block.residency == "hot" and block.tier_dirty

    assert len(persons.query().where(TPerson.age == 78).run().rows) == 1
    assert len(persons.query().where(TPerson.age == 5).run().rows) == len(handles) - 1
    pager.maintain()  # re-demoted (re-spilled); scans read the new image
    assert block.residency == "cold" and pager.faults == faults + 1
    assert len(persons.query().where(TPerson.age == 78).run().rows) == 1
    m.close()


def test_zombie_mappings_are_retried_and_counted():
    """A reader's view of a cold image outlives the writer's fault: the
    replaced mapping is parked, counted, and closed by the next
    ``maintain()`` after the view dies."""
    m = _budgeted(1)
    pager = m.pager
    persons = ColumnarCollection(TPerson, manager=m)
    handles = _fill_blocks(persons, 4, age=5)
    pager.maintain()
    victim = next(h for h in handles if _block_of(m, h).residency == "cold")
    block = _block_of(m, victim)
    slot = block.slot_of_address(victim.ref.address())

    held = block.column("age")
    assert not held.flags.writeable and held[slot] == 5
    victim.age = 99  # ensure_hot swaps the buffer under the held view
    assert held[slot] == 5  # the pre-write image, still mapped
    assert block.column("age")[slot] == 99
    assert pager.telemetry()["zombie_mappings"] == 1

    # No critical section protects this view, so maintain() is free to
    # re-spill over the region it maps; what it cannot do is unmap it.
    pager.maintain()
    assert pager.telemetry()["zombie_mappings"] == 1  # still exported
    del held
    pager.maintain()
    assert pager.telemetry()["zombie_mappings"] == 0
    assert victim.age == 99
    m.close()


def test_image_load_and_checkpoint_stay_under_budget(tpch_small, tmp_path, monkeypatch):
    """Adopting a block image under a quarter-of-the-pool budget never
    holds more than budget + one block hot, a checkpoint of the loaded
    store writes cold blocks from their tier mapping (zero faults), and
    the answers match the all-hot store."""
    from repro.durability import DurableStore
    from repro.io import load_collections, save_collections
    from repro.memory.pager import Pager

    plain = load_smc(tpch_small, manager=MemoryManager(block_shift=16))
    image = str(tmp_path / "tpch.smcsnap")
    save_collections(image, plain)
    pool = sum(c.memory_bytes() for k, c in plain.items() if not k.startswith("_"))
    budget = pool // 4

    peaks = []
    track = Pager.track

    def tracking(self, block):
        track(self, block)
        peaks.append(self.hot_bytes())

    monkeypatch.setattr(Pager, "track", tracking)
    tiered = load_collections(image, memory_budget=budget)
    pager = tiered["_manager"].pager
    try:
        assert len(peaks) == pool // pager.block_size  # every block was tracked
        assert max(peaks) <= budget + pager.block_size
        assert pager.hot_bytes() <= budget
        assert pager.residency_counts()["cold"] > 0

        store = DurableStore.create(str(tmp_path / "dd"), collections=tiered)
        # (A checkpoint needs a log record to cut behind.)
        tiered["region"].remove(tiered["region"].add(regionkey=99, name="ATLANTIS"))
        pager.maintain()
        faults, evictions = pager.faults, pager.evictions
        store.checkpoint()
        assert (pager.faults, pager.evictions) == (faults, evictions)
        assert pager.hot_bytes() <= budget
        checkpoint = store.datadir.checkpoint_path(store.cut_lsn)
        store.close()

        again = load_collections(checkpoint, memory_budget=budget)
        try:
            for name, builder in sorted(ALL_QUERIES.items()):
                want = _canonical(builder(plain).run(params=DEFAULT_PARAMS))
                assert _canonical(builder(tiered).run(params=DEFAULT_PARAMS)) == want, name
                assert _canonical(builder(again).run(params=DEFAULT_PARAMS)) == want, name
                pager.maintain()
                again["_manager"].pager.maintain()
        finally:
            again["_manager"].close()
        assert max(peaks) <= budget + pager.block_size  # the second load too
    finally:
        plain["_manager"].close()
        tiered["_manager"].close()


def test_fully_pruned_scan_touches_zero_cold_bytes():
    m = _budgeted(1)
    pager = m.pager
    persons = ColumnarCollection(TPerson, manager=m)
    n = 0
    while persons.context.block_count() < 4:
        persons.add(name=f"p{n}", age=n % 10)
        n += 1
    pager.maintain()
    assert pager.residency_counts()["cold"] >= 3

    # Every block's zone map says age <= 9: the predicate prunes them all
    # without reading a single cold block (zone maps are built at
    # demotion and frozen while cold).
    faults = pager.faults
    result = persons.query().where(TPerson.age >= 1000).run()
    assert len(result.rows) == 0
    assert m.stats.extra.get("tier_cold_block_reads", 0) == 0

    # Control: a matching scan does read the cold blocks — in place.
    cold = pager.residency_counts()["cold"]
    result = persons.query().where(TPerson.age >= 0).run()
    assert len(result.rows) == n
    assert m.stats.extra["tier_cold_block_reads"] == cold
    assert pager.faults == faults
    assert pager.residency_counts()["cold"] == cold
    m.close()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 90)),
            st.tuples(st.just("remove"), st.integers(0, 10_000)),
            st.tuples(st.just("maintain"), st.just(0)),
            st.tuples(st.just("compact"), st.just(0)),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_budgeted_mutations_match_always_hot(ops):
    """fault -> read -> evict cycles are invisible: a budgeted collection
    under random add/remove/maintain/compact churn stays byte-identical
    to one that never demotes anything, and the budget holds at every
    operation boundary."""
    hot = MemoryManager(block_shift=10)
    tiered = _budgeted(2)
    try:
        ref = Collection(TPerson, manager=hot)
        sut = Collection(TPerson, manager=tiered)
        ref_handles, sut_handles = [], []
        for i, (op, arg) in enumerate(ops):
            if op == "add":
                ref_handles.append(ref.add(name=f"p{i}", age=arg))
                sut_handles.append(sut.add(name=f"p{i}", age=arg))
            elif op == "remove" and ref_handles:
                idx = arg % len(ref_handles)
                ref.remove(ref_handles.pop(idx))
                sut.remove(sut_handles.pop(idx))
            elif op == "maintain":
                tiered.pager.maintain()
                assert tiered.pager.hot_bytes() <= tiered.pager.budget
            elif op == "compact":
                assert sut.compact(occupancy_threshold=0.9) == ref.compact(
                    occupancy_threshold=0.9
                )
                tiered.pager.maintain()
                assert tiered.pager.hot_bytes() <= tiered.pager.budget
        tiered.pager.maintain()
        assert sorted((h.name, h.age) for h in sut) == sorted(
            (h.name, h.age) for h in ref
        )
    finally:
        hot.close()
        tiered.close()


# ----------------------------------------------------------------------
# Deterministic interleavings: epoch grace, compaction ownership
# ----------------------------------------------------------------------


def test_reader_critical_section_defers_demotion():
    """A reader inside a critical section pins the global epoch, so a
    cooling block cannot cross its two-epoch grace until the reader
    leaves — the buffer it may still dereference stays hot."""
    schedule = sanitizer.ScheduleController(seed=13)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = _budgeted(8)
        persons = Collection(TPerson, manager=m)
        _fill_blocks(persons, 4, age=5)

        gate = schedule.pause_at("scan.block", thread="tier-reader")
        seen = []

        def reader():
            from repro.query import runtime

            with m.critical_section():
                for blk in runtime.scan_blocks(m, persons.context):
                    seen.append(blk.valid_count)

        t = threading.Thread(target=reader, name="tier-reader")
        t.start()
        assert gate.wait_parked(timeout=10.0), "reader never reached the scan"

        # Retarget the budget below the pool while the reader is parked:
        # maintain() starts cooling but cannot demote (the grace epoch is
        # unreachable while the reader pins the global epoch).
        m.pager.budget = BS
        m.pager.maintain()
        counts = m.pager.residency_counts()
        assert counts["cold"] == 0
        assert counts["cooling"] >= 1

        gate.release()
        t.join(timeout=10.0)
        assert not t.is_alive() and seen

        m.pager.maintain()
        assert m.pager.residency_counts()["cold"] >= 1
        assert m.pager.hot_bytes() <= m.pager.budget
        assert sorted(h.age for h in persons) == [5] * len(persons)
        san.assert_clean()
        m.close()


def test_scan_inside_cold_block_outlasts_write_fault_and_redemotion():
    """A scan parked inside a cold block while a writer faults and
    updates it and the pager wants it demoted again: the re-spill (over
    the very region the scan maps) waits for the scan's critical section,
    and the scan sees the pre-write rows only — never a mix."""
    schedule = sanitizer.ScheduleController(seed=29)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = _budgeted(1)
        pager = m.pager
        persons = ColumnarCollection(TPerson, manager=m)
        handles = _fill_blocks(persons, 4, age=5)
        pager.maintain()
        # The first block: later ones give the reader a gate to park at.
        target = persons.context.blocks()[0]
        assert target.residency == "cold"
        in_target = [h for h in handles if _block_of(m, h) is target]
        slots = [target.slot_of_address(h.ref.address()) for h in in_target]
        half = len(slots) // 2
        assert half >= 1

        inside = []  # set once the reader holds views of the cold image
        gate = schedule.pause_at(
            "scan.block", thread="tier-reader", filter=lambda info: bool(inside)
        )
        rows = []

        def reader():
            from repro.query import runtime

            with m.critical_section():
                for blk in runtime.scan_blocks(m, persons.context):
                    if inside:  # resumed: finish the block we were in
                        ages = inside.pop()
                        rows.extend(int(ages[s]) for s in slots[half:])
                    if blk is target:
                        ages = blk.column("age")
                        rows.extend(int(ages[s]) for s in slots[:half])
                        inside.append(ages)

        t = threading.Thread(target=reader, name="tier-reader")
        t.start()
        assert gate.wait_parked(timeout=10.0), "reader never parked mid-block"

        faults, spills = pager.faults, pager.spills
        for h in in_target:
            h.age = 99  # the first write faults; all land in the hot buffer
        assert pager.faults == faults + 1
        assert target.residency == "hot" and target.tier_dirty
        assert pager.telemetry()["zombie_mappings"] == 1

        # Over budget again, so maintain() puts the block back into
        # cooling — but cannot reach cool_epoch + 2 past the open section.
        pager.maintain()
        assert target.residency == "cooling"
        assert pager.spills == spills

        gate.release()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert rows == [5] * len(slots)  # pre-write image throughout

        pager.maintain()
        assert target.residency == "cold" and pager.spills == spills + 1
        assert pager.telemetry()["zombie_mappings"] == 0
        assert sorted(h.age for h in in_target) == [99] * len(in_target)
        assert pager.faults == faults + 1
        san.assert_clean()
        m.close()


def test_compaction_owned_blocks_are_not_evicted():
    """Blocks claimed by an in-flight compaction are ineligible victims;
    eviction waits for the compactor to finish (the sanitizer's
    evict-owned-block invariant rides every demotion)."""
    schedule = sanitizer.ScheduleController(seed=17)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = _budgeted(8)
        persons = Collection(TPerson, manager=m)
        handles = _fill_blocks(persons, 4, age=3)
        keep = handles[::4]
        for h in handles:
            if h not in keep:
                persons.remove(h)

        gate = schedule.pause_at("compact.waiting")
        result = []
        compactor = threading.Thread(
            target=lambda: result.append(
                persons.compact(occupancy_threshold=0.9)
            ),
            name="smc-compactor",
        )
        compactor.start()
        assert gate.wait_parked(timeout=10.0), "compactor never parked"

        # Every under-occupied block is claimed by the parked compaction;
        # the pager must find no victim among them.
        m.pager.budget = BS
        m.pager.maintain()
        owned = [
            b
            for b in persons.context.blocks()
            if b.compacting or b.compaction_group is not None
        ]
        assert owned
        assert all(b.residency != "cold" for b in owned)

        gate.release()
        compactor.join(timeout=10.0)
        assert not compactor.is_alive() and result

        m.pager.maintain()
        assert m.pager.hot_bytes() <= m.pager.budget
        assert sorted(h.age for h in persons) == [3] * len(keep)
        san.assert_clean()
        m.close()


# ----------------------------------------------------------------------
# Sanitizer invariants (synthetic events)
# ----------------------------------------------------------------------


class _FakeBlock:
    block_id = 99


def _evict_event(**overrides):
    data = dict(
        manager=None,
        block=_FakeBlock(),
        cool_epoch=4,
        epoch=6,
        pin_count=0,
        was_active=False,
        was_compacting=False,
        was_queued=False,
        was_dirty=True,
    )
    data.update(overrides)
    return data


def _fault_event(**overrides):
    data = dict(
        manager=None,
        block=_FakeBlock(),
        residency="hot",
        tier_offset=4096,
        pin_count=0,
        seconds=0.0,
        cause="write",
    )
    data.update(overrides)
    return data


def test_sanitizer_rejects_bad_tier_transitions():
    with sanitizer.enabled():
        san = _hooks.SANITIZER
        san.event("tier.evict", **_evict_event())  # clean demotion passes
        with pytest.raises(ProtocolViolation, match="evict-pinned-block"):
            san.event("tier.evict", **_evict_event(pin_count=1))
        with pytest.raises(ProtocolViolation, match="evict-owned-block"):
            san.event("tier.evict", **_evict_event(was_active=True))
        with pytest.raises(ProtocolViolation, match="evict-owned-block"):
            san.event("tier.evict", **_evict_event(was_compacting=True))
        with pytest.raises(ProtocolViolation, match="evict-before-grace"):
            san.event("tier.evict", **_evict_event(cool_epoch=5, epoch=6))
        san.event("tier.fault", **_fault_event(cause="write"))
        san.event("tier.fault", **_fault_event(cause="pin"))
        with pytest.raises(ProtocolViolation, match="fault-left-cold"):
            san.event("tier.fault", **_fault_event(residency="cold"))
        with pytest.raises(ProtocolViolation, match="fault-left-cold"):
            san.event("tier.fault", **_fault_event(tier_offset=-1))
        # Only writers and pins promote: a fault out of scan admission
        # (or one that does not say why) is a violation.
        with pytest.raises(ProtocolViolation, match="fault-on-read"):
            san.event("tier.fault", **_fault_event(cause="scan"))
        with pytest.raises(ProtocolViolation, match="fault-on-read"):
            san.event("tier.fault", **_fault_event(cause=None))
        # A dirty re-demotion spills over the block's own region, under
        # whoever still reads the old image: same two-epoch grace.
        with pytest.raises(ProtocolViolation, match="evict-before-grace"):
            san.event(
                "tier.evict", **_evict_event(cool_epoch=6, epoch=7, was_dirty=True)
            )


# ----------------------------------------------------------------------
# Tier store
# ----------------------------------------------------------------------


def test_tier_store_spill_map_free_roundtrip():
    import mmap as _mmap

    store = TierStore(100)  # rounds up to the mapping granularity
    assert store.region_size % _mmap.ALLOCATIONGRANULARITY == 0
    try:
        a = store.spill(b"alpha")
        b = store.spill(b"bravo")
        assert a != b and store.allocated_bytes == 2 * store.region_size

        seg = store.map_region(a, store.region_size)
        assert bytes(seg.buf[:5]) == b"alpha"
        with pytest.raises(TypeError):
            seg.buf[0:1] = b"x"
        seg.release()

        # Rewriting in place reuses the region; freeing recycles it.
        assert store.spill(b"ALPHA", a) == a
        store.free_region(b)
        assert store.spill(b"charlie") == b
        assert store.file_bytes == 2 * store.region_size
    finally:
        store.close()
    assert store.path is None
    with pytest.raises(ValueError):
        store.spill(b"after close")
    store.close()  # idempotent


def test_tier_store_rejects_oversized_images():
    store = TierStore(1)
    try:
        with pytest.raises(ValueError):
            store.spill(b"x" * (store.region_size + 1))
    finally:
        store.close()


# ----------------------------------------------------------------------
# Introspection: telemetry, residency attribution, CLI info
# ----------------------------------------------------------------------


def test_telemetry_and_residency_by_context():
    m = _budgeted(2)
    persons = Collection(TPerson, manager=m)
    _fill_blocks(persons, 5)
    m.pager.maintain()

    tier = m.telemetry()["tier"]
    for key in (
        "budget_bytes",
        "hot_blocks",
        "cooling_blocks",
        "cold_blocks",
        "tier_file_bytes",
        "faults",
        "evictions",
        "spills",
    ):
        assert key in tier, key
    assert tier["budget_bytes"] == 2 * BS
    assert tier["cold_blocks"] >= 3
    assert tier["tier_file_bytes"] > 0
    assert m.stats.extra["tier_evictions"] == tier["evictions"]

    residency = m.pager.residency_by_context()
    ctx = residency[persons.context.context_id]
    assert ctx["cold"] == tier["cold_blocks"]
    assert ctx["hot"] + ctx["cold"] == len(persons.context.blocks())
    assert "tier" in m.describe()
    m.close()
    assert m.telemetry().get("tier") is None or True  # close is terminal


def test_cli_info_reports_residency(tpch_tiny, tmp_path):
    import subprocess
    import sys

    from repro.io import save_collections

    # Small blocks, so a tiny image holds several per table: a load
    # adopts the block size the image was saved with.
    snap = str(tmp_path / "tiny.smcsnap")
    collections = load_smc(tpch_tiny, manager=MemoryManager(block_shift=16))
    save_collections(snap, collections)
    collections["_manager"].close()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "info",
            snap,
            "--memory-budget",
            str(64 * 1024),
        ],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert "hot" in proc.stdout and "cold" in proc.stdout
    assert "tier: budget" in proc.stdout
    # With the budget the pool was actually demoted under it.
    assert "0 cold blocks" not in proc.stdout


# ----------------------------------------------------------------------
# Process executor over a budgeted pool (cold blocks by file offset)
# ----------------------------------------------------------------------


def test_process_pool_reads_cold_blocks(tpch_small):
    from repro.query.procexec import ProcessScanPool

    plain = load_smc(tpch_small, columnar=True)
    tiered = load_smc(
        tpch_small,
        columnar=True,
        manager=MemoryManager(block_shift=16, shm=True, memory_budget=1),
    )
    manager = tiered["_manager"]
    pager = manager.pager
    pager.budget = max(pager.block_size, pager.hot_bytes() // 4)
    pager.maintain()
    pool = ProcessScanPool(manager, workers=2)
    manager.exec_pool = pool
    try:
        assert pager.residency_counts()["cold"] > 0
        for name in ("q1", "q6", "q14"):
            want = _canonical(ALL_QUERIES[name](plain).run(params=DEFAULT_PARAMS))
            got = _canonical(
                ALL_QUERIES[name](tiered).run(params=DEFAULT_PARAMS, workers=2)
            )
            assert got == want, name
            pager.maintain()
            assert pager.hot_bytes() <= pager.budget, name
    finally:
        plain["_manager"].close()
        manager.close()
