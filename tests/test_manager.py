"""Memory manager: allocation, free, limbo reclamation, block pooling."""

import pytest

from repro.core.collection import Collection
from repro.durability.recovery import apply_batch
from repro.durability.wal import ADD, REMOVE, RecoveryError, WalRecord
from repro.errors import ConcurrencyProtocolError, NullReferenceError
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import INC_MASK, IndirectionTable
from repro.memory.manager import MemoryManager
from repro.memory.slots import LIMBO, VALID
from tests.schemas import TPerson


@pytest.fixture
def ctx(manager):
    return manager.create_context(slot_size=48, type_name="T")


def test_type_ids_are_interned(manager):
    a = manager.type_id_for("X")
    assert manager.type_id_for("X") == a
    assert manager.type_id_for("Y") != a


def test_allocate_returns_live_ref(manager, ctx):
    block, slot, ref = manager.allocate_object(ctx)
    assert block.state_of(slot) == VALID
    assert ref.is_alive
    assert ref.address() == block.slot_address(slot)
    assert int(block.backptrs[slot]) == ref.entry


def test_free_nulls_reference(manager, ctx):
    __, __, ref = manager.allocate_object(ctx)
    manager.free_object(ref)
    assert not ref.is_alive
    with pytest.raises(NullReferenceError):
        ref.address()


def test_double_free_raises(manager, ctx):
    __, __, ref = manager.allocate_object(ctx)
    manager.free_object(ref)
    with pytest.raises(NullReferenceError):
        manager.free_object(ref)


def test_free_moves_slot_to_limbo(manager, ctx):
    block, slot, ref = manager.allocate_object(ctx)
    manager.free_object(ref)
    assert block.state_of(slot) == LIMBO
    assert ctx.live_count == 0


def test_free_bumps_slot_header_incarnation(manager, ctx):
    block, slot, ref = manager.allocate_object(ctx)
    before = int(block.slot_incs[slot])
    manager.free_object(ref)
    assert int(block.slot_incs[slot]) == before + 1


def test_free_defers_entry_recycling_by_two_epochs(manager, ctx):
    """The entry's pointer survives the free (grace-period readers may
    still follow it); the entry is recycled two epochs later."""
    block, slot, ref = manager.allocate_object(ctx)
    manager.free_object(ref)
    # Immediately after the free the pointer is intact and the entry is
    # not yet reusable.
    assert manager.table.address_of(ref.entry) == block.slot_address(slot)
    assert manager.table.free_count == 0
    manager.advance_epoch()
    manager.advance_epoch()
    manager.allocate_object(ctx)  # allocation drains retired entries
    assert manager.table.address_of(ref.entry) == NULL_ADDRESS or (
        manager.table.address_of(ref.entry) != block.slot_address(slot)
    )


def test_limbo_slot_reused_after_two_epochs(manager):
    # Small blocks force the allocator to face the limbo slots quickly.
    small = MemoryManager(block_shift=10, reclamation_threshold=0.01)
    ctx = small.create_context(slot_size=48, type_name="T")
    refs = [small.allocate_object(ctx)[2] for __ in range(200)]
    blocks = ctx.block_count()
    for ref in refs:
        small.free_object(ref)
    # Allocations drive epoch advancement and reclaim the queued blocks.
    for __ in range(200):
        small.allocate_object(ctx)
    assert ctx.block_count() <= blocks + 1
    assert small.stats.limbo_reuses > 0 or small.stats.blocks_recycled > 0
    small.close()


def test_stats_counters(manager, ctx):
    __, __, ref = manager.allocate_object(ctx)
    manager.free_object(ref)
    assert manager.stats.allocations == 1
    assert manager.stats.frees == 1
    assert manager.stats.blocks_allocated == 1


def test_block_pooling_across_contexts(manager):
    c1 = manager.create_context(slot_size=48, type_name="A")
    manager.allocate_object(c1)
    c1.close()
    c2 = manager.create_context(slot_size=48, type_name="B")
    manager.allocate_object(c2)
    assert manager.stats.blocks_pooled == 1
    assert manager.stats.blocks_allocated == 1


def test_reclamation_threshold_validation():
    with pytest.raises(ValueError):
        MemoryManager(reclamation_threshold=1.5)


def test_closed_manager_rejects_operations(ctx, manager):
    manager.close()
    with pytest.raises(ConcurrencyProtocolError):
        manager.allocate_object(ctx)


def test_close_is_idempotent(manager):
    manager.close()
    manager.close()


def test_context_manager_protocol():
    with MemoryManager() as m:
        ctx = m.create_context(slot_size=48, type_name="T")
        m.allocate_object(ctx)
    with pytest.raises(ConcurrencyProtocolError):
        m.allocate_object(ctx)


def test_total_bytes_counts_blocks(manager, ctx):
    assert manager.total_bytes() == 0
    manager.allocate_object(ctx)
    assert manager.total_bytes() == manager.space.block_size


def test_advance_epoch_helper(manager):
    e = manager.epochs.global_epoch
    assert manager.advance_epoch()
    assert manager.epochs.global_epoch == e + 1
    assert manager.stats.epoch_advances == 1


def test_ref_equality_and_hash(manager, ctx):
    __, __, ref = manager.allocate_object(ctx)
    from repro.memory.reference import Ref

    clone = Ref(manager, ref.entry, ref.inc)
    assert ref == clone
    assert hash(ref) == hash(clone)
    __, __, other = manager.allocate_object(ctx)
    assert ref != other


def test_stale_ref_against_reused_entry(manager, ctx):
    """A recycled indirection entry must not resurrect old references."""
    __, __, ref = manager.allocate_object(ctx)
    manager.free_object(ref)
    manager.advance_epoch()
    manager.advance_epoch()
    # Reuse the same entry for a fresh object (drained at allocation).
    __, __, fresh = manager.allocate_object(ctx)
    assert fresh.entry == ref.entry
    assert fresh.is_alive
    with pytest.raises(NullReferenceError):
        ref.address()


def test_try_address(manager, ctx):
    __, __, ref = manager.allocate_object(ctx)
    assert ref.try_address() is not None
    manager.free_object(ref)
    assert ref.try_address() is None


# ----------------------------------------------------------------------
# Log replay places rows at the entries the writer logged
# ----------------------------------------------------------------------


@pytest.fixture
def persons(manager):
    return Collection(TPerson, manager=manager, name="persons")


def _replay(persons, *ops):
    """Replay ``(kind, entry)`` records, LSNs from 1, onto *persons*,
    whose rows stand for a checkpoint's.  Afterwards the table's free
    and retired lists are what an image load of its arrays computes."""
    records = []
    for lsn, (kind, entry) in enumerate(ops, 1):
        payload = {"c": "persons", "e": entry}
        if kind == ADD:
            payload.update(s="TPerson", v={"name": f"r{lsn}", "age": lsn})
        records.append(WalRecord(lsn, kind, payload, 0, 0))
    manager = persons.manager
    result = apply_batch({"persons": persons}, manager, {}, records)
    adopted = IndirectionTable()
    adopted.adopt(*manager.table.export())
    assert manager.table._free == adopted._free
    assert manager.table._retired == adopted._retired
    return result


def _rows(persons):
    return {h.name: (h.ref.entry, h.ref.inc) for h in persons}


def test_replay_places_a_run_at_free_entries(manager, persons):
    """The run takes its logged entries in log order, not the
    allocator's lowest-free-first."""
    rows = [persons.add(name=f"c{i}", age=i) for i in range(4)]
    persons.remove(rows[1])
    persons.remove(rows[2])
    for __ in range(3):
        manager.advance_epoch()
    persons.add(name="c4", age=4)  # recycles 1 and 2, takes 2
    assert _replay(persons, (ADD, 4), (ADD, 1)) == (2, 0)
    assert _rows(persons)["r1"] == (4, 0)
    assert _rows(persons)["r2"] == (1, 1)
    assert persons.add(name="next", age=0).ref.entry == 5


def test_replay_grows_the_table_past_its_size(manager, persons):
    """A logged entry past the table's end grows it there, as the
    writer's grew; so does the entry of a row the tail added and
    removed, which comes back free with its incarnation advanced."""
    persons.add(name="c0", age=0)
    assert _replay(persons, (ADD, 5), (ADD, 8), (REMOVE, 8), (ADD, 3)) == (2, 2)
    assert _rows(persons) == {"c0": (0, 0), "r1": (5, 0), "r4": (3, 0)}
    table = manager.table
    assert table.size == 9
    assert table.incarnation(8) == 1 and manager.live_ref(8) is None
    assert sorted(table._free) == [1, 2, 4, 6, 7, 8]


def test_replay_places_a_row_at_an_entry_it_freed(manager, persons):
    """An entry replay freed a record earlier waits out no grace
    period: recovery has no reader.  An ADD/REMOVE pair the replay
    skipped in between still advances the incarnation."""
    persons.add(name="c0", age=0)
    ops = [(REMOVE, 0), (ADD, 0), (REMOVE, 0), (ADD, 0)]
    assert _replay(persons, *ops) == (2, 2)
    assert _rows(persons) == {"r4": (0, 2)}
    assert not manager._retired_entries


def test_replay_refuses_an_add_at_a_live_entry(manager, persons):
    persons.add(name="c0", age=0)
    persons.add(name="c1", age=1)
    with pytest.raises(RecoveryError, match="LSN 2: ADD at entry 1, which holds a live row"):
        _replay(persons, (ADD, 2), (ADD, 1))
    with pytest.raises(RecoveryError, match="LSN 2: ADD at entry 5, which holds a live row"):
        _replay(persons, (ADD, 5), (ADD, 5))


def test_replay_keeps_a_spent_entry_retired(manager, persons):
    """A row whose entry's counter the replayed remove spends leaves
    the entry retired, and an ADD logged at it is refused."""
    doomed = persons.add(name="c0", age=0)
    manager.table._inc[doomed.ref.entry] = INC_MASK - 1
    persons.add(name="c1", age=1)
    assert _replay(persons, (REMOVE, 0)) == (1, 0)
    assert manager.table._retired == [0] and 0 not in manager.table._free
    with pytest.raises(RecoveryError, match="LSN 1: ADD at entry 0, which is retired"):
        _replay(persons, (ADD, 0))
