"""Block-scan runtime: compaction-group protocol of section 5.2.

Every rule is checked for both shapes in which a scan's one reader
drains its :class:`~repro.query.runtime.BlockCursor` (each test runs
every drain in ``DRAINS`` on a fresh store): the generator
(``scan_blocks``: the serial scan, generated code, enumeration) and the
process-pool parent's loop of ``next_unit()`` calls that reads
``pinned`` to keep a pinned group's blocks at home.
"""

import threading

import pytest

from repro import sanitizer
from repro.core.collection import Collection
from repro.core.compaction import Compactor
from repro.memory.indirection import FROZEN
from repro.memory.manager import MemoryManager
from repro.query import runtime
from repro.query.runtime import BlockCursor, scan_blocks

from tests.schemas import TPerson


def _worn(blocks=4):
    m = MemoryManager(block_shift=10)
    persons = Collection(TPerson, manager=m)
    handles = []
    while persons.context.block_count() < blocks:
        handles.append(persons.add(name=f"p{len(handles)}", age=len(handles)))
    keep = handles[::4]
    for h in handles:
        if h not in keep:
            persons.remove(h)
    return m, persons, keep


def _one_consumer(m, context, visit=None):
    """``scan_blocks`` inside one critical section; the blocks in scan
    order, *visit* called on each while its unit is out."""
    seen = []
    with m.critical_section():
        for block in scan_blocks(m, context):
            if visit is not None:
                visit(block)
            seen.append(block)
    return seen


def _unit_loop(m, context, visit=None):
    """``next_unit()`` calls inside one critical section, as the
    process-pool parent drains: every block of a unit the cursor reports
    ``pinned`` must belong to that group and see its pin held."""
    cursor = BlockCursor(m, context)
    seen = []
    with m.critical_section():
        try:
            while (blocks := cursor.next_unit()) is not None:
                group = cursor.pinned
                for block in blocks:
                    if group is not None:
                        assert group.reader_count >= 1
                        assert block.compaction_group in (group, None)
                    if visit is not None:
                        visit(block)
                    seen.append(block)
        finally:
            cursor.release()
    return seen


DRAINS = (_one_consumer, _unit_loop)


def _live(blocks):
    return sum(len(b.valid_slots()) for b in blocks)


def test_plain_scan_covers_all_blocks(manager):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    for drain in DRAINS:
        blocks = drain(manager, persons.context)
        assert blocks == persons.context.blocks(), drain.__name__


def test_scan_deduplicates_block_ids(manager):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    for drain in DRAINS:
        seen = [b.block_id for b in drain(manager, persons.context)]
        assert len(seen) == len(set(seen)), drain.__name__


def test_scan_of_finished_group_yields_dest_once():
    for drain in DRAINS:
        m, persons, keep = _worn()
        persons.compact(occupancy_threshold=0.9)
        blocks = drain(m, persons.context)
        ids = [b.block_id for b in blocks]
        assert len(ids) == len(set(ids)), drain.__name__
        assert _live(blocks) == len(keep), drain.__name__
        m.close()


def test_failed_group_scans_sources():
    """A failed group yields its sources — once each, even when all but
    one of them already read as plain blocks (markers half cleared)."""
    for drain in DRAINS:
        m, persons, keep = _worn()
        compactor = Compactor(m)
        groups = compactor._plan_groups(persons.context, 0.9)
        assert any(len(g.sources) > 1 for g in groups)
        for g in groups:
            g.failed = True
            for b in g.sources[:-1]:
                b.compaction_group = None
        blocks = drain(m, persons.context)
        ids = [b.block_id for b in blocks]
        assert len(ids) == len(set(ids)), drain.__name__
        assert {b.block_id for g in groups for b in g.sources} <= set(ids)
        assert _live(blocks) == len(keep), drain.__name__
        compactor.detach()
        m.close()


def test_scan_counts_objects_exactly_once_mid_compaction():
    """Even with dest attached early and sources half-moved, a scan sees
    each live object exactly once (moved slots are limbo in the source)."""
    for drain in DRAINS:
        m, persons, keep = _worn(blocks=5)
        compactor = Compactor(m)
        groups = compactor._plan_groups(persons.context, 0.9)
        compactor._build_relocation_lists(groups)
        group = groups[0]
        # Move half of the group's items by hand (moving-phase mechanics).
        for item in group.items[: len(group.items) // 2]:
            m.table.set_flags(item.entry, FROZEN)
            compactor._move_item_locked(item)
        counts = []
        drain(m, persons.context, lambda b: counts.append(len(b.valid_slots())))
        assert sum(counts) == len(keep), drain.__name__
        assert group.reader_count == 0, drain.__name__
        compactor.detach()
        m.close()


def test_prestate_pin_released_on_generator_close():
    m, persons, keep = _worn()
    compactor = Compactor(m)
    groups = compactor._plan_groups(persons.context, 0.9)
    assert groups
    group = groups[0]
    gen = scan_blocks(m, persons.context)
    # Drive the generator into the group's pre-state...
    emitted = [next(gen)]
    while emitted[-1].compaction_group is not group:
        emitted.append(next(gen))
    assert group.reader_count == 1
    gen.close()  # ...and abandoning the scan must release the pin.
    assert group.reader_count == 0
    compactor.detach()
    m.close()


def test_cursor_names_the_pinned_group_until_release():
    """The process-pool parent's shape: ``next_unit()`` reaches a group's
    pre-state, ``pinned`` names the group while the unit is out, and
    ``release()`` (or the next call) returns the pin."""
    m, persons, keep = _worn()
    compactor = Compactor(m)
    groups = compactor._plan_groups(persons.context, 0.9)
    assert groups
    with m.critical_section():
        cursor = BlockCursor(m, persons.context)
        while (blocks := cursor.next_unit()) is not None:
            if cursor.pinned is not None:
                break
            assert all(b.compaction_group is None for b in blocks)
        group = cursor.pinned
        assert group in groups and blocks
        assert group.reader_count == 1
        assert {b.block_id for b in group.sources} <= {b.block_id for b in blocks}
        cursor.release()
        assert cursor.pinned is None and group.reader_count == 0
        cursor.release()  # idempotent
        assert group.reader_count == 0
        # The rest of the walk pins (and unpins) each later group in turn.
        while cursor.next_unit() is not None:
            pass
        assert cursor.pinned is None
        assert all(g.reader_count == 0 for g in groups)
    compactor.detach()
    m.close()


def test_prestate_pin_released_when_the_consumer_raises():
    for drain in DRAINS:
        m, persons, keep = _worn()
        compactor = Compactor(m)
        group = compactor._plan_groups(persons.context, 0.9)[0]
        held = []

        def visit(block):
            if block.compaction_group is group:
                held.append(group.reader_count)
                raise RuntimeError("consumer failed inside the group")

        with pytest.raises(RuntimeError, match="inside the group"):
            drain(m, persons.context, visit)
        assert held == [1], drain.__name__
        assert group.reader_count == 0, drain.__name__
        compactor.detach()
        m.close()


def test_waiting_phase_group_is_deferred_then_visited_once(monkeypatch):
    """A scan that enters while the compactor is parked in its waiting
    phase defers every group, visits all plain blocks first, then
    revisits each group exactly once and pins its pre-state."""
    resolutions = []
    resolve = runtime.resolve_group

    def counting(manager, group, defer_ok=True):
        kind, members = resolve(manager, group, defer_ok)
        resolutions.append((group, defer_ok, kind))
        return kind, members

    monkeypatch.setattr(runtime, "resolve_group", counting)
    schedule = sanitizer.ScheduleController(seed=31)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        for drain in DRAINS:
            resolutions.clear()
            m, persons, keep = _worn(blocks=6)
            gate = schedule.pause_at("compact.waiting")
            compactor = threading.Thread(
                target=lambda: persons.compact(occupancy_threshold=0.9),
                name="smc-compactor",
            )
            compactor.start()
            try:
                assert gate.wait_parked(timeout=10.0), "compactor never waited"
                assert m.epochs.global_epoch == m.next_relocation_epoch
                marked = {}
                blocks = drain(
                    m,
                    persons.context,
                    lambda b: marked.setdefault(
                        b.block_id,
                        (b.compaction_group is not None, len(b.valid_slots())),
                    ),
                )
            finally:
                schedule.remove_gate(gate)
                compactor.join(timeout=10.0)
            assert not compactor.is_alive()

            groups = {g for g, __, __ in resolutions}
            assert groups, drain.__name__
            for group in groups:
                mine = [(ok, kind) for g, ok, kind in resolutions if g is group]
                assert mine == [
                    (True, runtime.GROUP_DEFERRED),
                    (False, runtime.GROUP_PINNED),
                ], drain.__name__
            ids = [b.block_id for b in blocks]
            assert len(ids) == len(set(ids)), drain.__name__
            order = [marked[i][0] for i in ids]
            # Every group after every plain block.
            assert order == sorted(order), drain.__name__
            assert sum(live for __, live in marked.values()) == len(keep)
            assert sorted(h.age for h in persons) == sorted(h.age for h in keep)
            m.close()
        san.assert_clean()
