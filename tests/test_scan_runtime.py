"""Block-scan runtime: compaction-group protocol of section 5.2."""

import pytest

from repro.core.collection import Collection
from repro.core.compaction import CompactionGroup, Compactor
from repro.memory.manager import MemoryManager
from repro.query.runtime import scan_blocks

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


def test_plain_scan_covers_all_blocks(manager):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    blocks = list(scan_blocks(manager, persons.context))
    assert blocks == persons.context.blocks()


def test_scan_deduplicates_block_ids(manager):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    seen = [b.block_id for b in scan_blocks(manager, persons.context)]
    assert len(seen) == len(set(seen))


def test_scan_of_finished_group_yields_dest_once():
    m, persons, keep = _worn()
    persons.compact(occupancy_threshold=0.9)
    ids = [b.block_id for b in scan_blocks(m, persons.context)]
    assert len(ids) == len(set(ids))
    total = sum(len(b.valid_slots()) for b in scan_blocks(m, persons.context))
    assert total == len(keep)
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


def test_failed_group_scans_sources():
    m, persons, keep = _worn()
    compactor = Compactor(m)
    groups = compactor._plan_groups(persons.context, 0.9)
    for g in groups:
        g.failed = True
        for b in g.sources:
            b.compaction_group = g  # leave markers in place
    total = sum(len(b.valid_slots()) for b in scan_blocks(m, persons.context))
    assert total == len(keep)
    compactor.detach()
    m.close()


def test_scan_counts_objects_exactly_once_mid_compaction():
    """Even with dest attached early and sources half-moved, a scan sees
    each live object exactly once (moved slots are limbo in the source)."""
    m, persons, keep = _worn(blocks=5)
    compactor = Compactor(m)
    groups = compactor._plan_groups(persons.context, 0.9)
    compactor._build_relocation_lists(groups)
    group = groups[0]
    # Move half of the group's items by hand (moving-phase mechanics).
    for item in group.items[: len(group.items) // 2]:
        from repro.memory.indirection import FROZEN

        m.table.set_flags(item.entry, FROZEN)
        compactor._move_item_locked(item)
    with m.critical_section():
        total = sum(
            len(b.valid_slots()) for b in scan_blocks(m, persons.context)
        )
    assert total == len(keep)
    compactor.detach()
    m.close()

