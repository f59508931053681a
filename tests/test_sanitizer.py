"""The protocol sanitizer: seeded violations are caught, real runs are clean.

Each seeded-violation test forges exactly one illegal protocol transition
(reusing a limbo slot too early, freeing twice, freezing a dead slot, ...)
and asserts the sanitizer reports it as a :class:`ProtocolViolation`
naming the broken invariant.  The clean-workload tests run the ordinary
add/remove/compact/query machinery under the sanitizer and assert no
false positives.  The fault-injection tests arm a :class:`FaultPlan` and
assert the system degrades into exactly the injected error.
"""

import threading

import pytest

from repro import sanitizer
from repro.core.collection import Collection
from repro.errors import (
    IncarnationOverflowError,
    MemoryExhaustedError,
    ProtocolViolation,
)
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import FROZEN, INC_MASK, LOCKED
from repro.memory.manager import MemoryManager
from repro.query.builder import Count

from tests.schemas import TNote, TPerson


def _locate(manager, handle):
    """(block, slot, entry) of a live handle."""
    with manager.critical_section():
        address = handle.ref.address()
    block = manager.space.block_at(address)
    return block, block.slot_of_address(address), handle.ref.entry


# ----------------------------------------------------------------------
# Seeded violations
# ----------------------------------------------------------------------


def test_detects_premature_limbo_reuse():
    with sanitizer.enabled() as san:
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="victim", age=1)
        block, slot, _ = _locate(m, h)
        persons.remove(h)  # slot -> LIMBO, stamped with the current epoch
        # Republishing without two epoch advances is a use-after-free window.
        with pytest.raises(ProtocolViolation) as exc:
            block.mark_valid(slot)
        assert "premature-reclaim" in str(exc.value)
        assert "event trace" in str(exc.value)
        assert san.violations
        m.close()


def test_detects_early_dictionary_code_reuse():
    """A retired dictionary code handed out again inside its grace
    period (planted by pushing it onto the free codes at once) is caught
    when the new text binds to it."""
    with sanitizer.enabled() as san:
        m = MemoryManager()
        notes = Collection(TNote, manager=m)
        sd = notes.strdict
        code = sd.intern("retired")
        sd.release(code)  # retired at the current epoch
        sd._free_codes.append(code)
        with pytest.raises(ProtocolViolation) as exc:
            sd.intern("rebound too soon")
        assert "strdict-code-reused-early" in str(exc.value)
        assert san.violations
        m.close()


def test_dictionary_code_reuse_after_two_epochs_is_clean():
    with sanitizer.enabled() as san:
        m = MemoryManager()
        notes = Collection(TNote, manager=m)
        sd = notes.strdict
        code = sd.intern("once")
        sd.release(code)
        assert m.advance_epoch() and m.advance_epoch()
        assert sd.intern("twice") == code
        assert san.event_counts["strdict.retire"] == 1
        san.assert_clean()
        m.close()


def test_detects_double_free():
    with sanitizer.enabled():
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="victim", age=1)
        block, slot, _ = _locate(m, h)
        persons.remove(h)
        with pytest.raises(ProtocolViolation) as exc:
            block.mark_limbo(slot, m.epochs.global_epoch)
        assert "double-free" in str(exc.value)
        m.close()


def test_detects_free_of_unallocated_slot():
    with sanitizer.enabled():
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="only", age=1)
        block, slot, _ = _locate(m, h)
        with pytest.raises(ProtocolViolation) as exc:
            block.mark_limbo(slot + 1, m.epochs.global_epoch)  # never allocated
        assert "free-unallocated-slot" in str(exc.value)
        m.close()


def test_detects_stale_frozen_on_free_slot():
    with sanitizer.enabled():
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="victim", age=1)
        block, slot, entry = _locate(m, h)
        block.directory[slot] = 0  # forge: the slot appears FREE
        with pytest.raises(ProtocolViolation) as exc:
            m.table.set_flags(entry, FROZEN)
        assert "frozen-free-slot" in str(exc.value)
        m.close()


def test_detects_frozen_on_null_entry():
    with sanitizer.enabled():
        m = MemoryManager()
        entry = m.table.allocate(NULL_ADDRESS)
        with pytest.raises(ProtocolViolation) as exc:
            m.table.set_flags(entry, FROZEN)
        assert "frozen-null-entry" in str(exc.value)
        m.close()


def test_detects_incarnation_regression():
    with sanitizer.enabled():
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="victim", age=1)
        entry = h.ref.entry
        persons.remove(h)  # counter 0 -> 1
        word = m.table.incarnation_word(entry)
        with pytest.raises(ProtocolViolation) as exc:
            m.table.cas_inc(entry, word, 0)  # roll the counter back
        assert "incarnation-regression" in str(exc.value)
        m.close()


def test_detects_foreign_unlock():
    with sanitizer.enabled() as san:
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="victim", age=1)
        entry = h.ref.entry
        assert m.table.try_lock(entry)
        caught = []

        def foreign():
            try:
                m.table.clear_flags(entry, LOCKED)
            except ProtocolViolation as exc:
                caught.append(exc)

        t = threading.Thread(target=foreign, name="foreign-unlocker")
        t.start()
        t.join()
        assert caught and "foreign-unlock" in str(caught[0])
        with pytest.raises(ProtocolViolation):
            san.assert_clean()  # swallowed upstream, still recorded
        m.table.clear_flags(entry, LOCKED)  # owner unlock: legal
        m.close()


def test_detects_epoch_skip_and_regression():
    with sanitizer.enabled() as san:
        m = MemoryManager()
        assert m.advance_epoch()  # 0 -> 1, observed by the sanitizer
        with pytest.raises(ProtocolViolation) as exc:
            san.event("epoch.advance", epochs=m.epochs, old=1, new=3)
        assert "epoch-skip" in str(exc.value)
        with pytest.raises(ProtocolViolation) as exc:
            san.event("epoch.advance", epochs=m.epochs, old=0, new=1)  # replay
        assert "epoch-regression" in str(exc.value)
        m.close()


def test_detects_epoch_overtaking_a_held_section():
    """The advance-time check: a section held by another thread, parked
    mid-section, may see the epoch step once past its entry, never twice."""
    with sanitizer.enabled() as san:
        m = MemoryManager()
        entered_at, inside, go = [], threading.Event(), threading.Event()

        def holder():
            with m.critical_section() as epoch:
                entered_at.append(epoch)
                inside.set()
                go.wait(timeout=10.0)

        t = threading.Thread(target=holder, name="section-holder")
        t.start()
        try:
            assert inside.wait(timeout=10.0)
            entered = entered_at[0]
            assert m.epochs.try_advance()  # one step past the section: legal
            assert not m.epochs.try_advance()
            # Forge the advance try_advance just refused.
            m.epochs._global_epoch = entered + 2
            with pytest.raises(ProtocolViolation) as exc:
                san.event(
                    "epoch.advance",
                    epochs=m.epochs,
                    old=entered + 1,
                    new=entered + 2,
                )
            assert "epoch-overtook-critical-section" in str(exc.value)
            # Undo the forgery so the holder's exit check passes.
            m.epochs._global_epoch = entered + 1
        finally:
            go.set()
            t.join(timeout=10.0)
        assert not t.is_alive()
        m.close()


def _advance_from_other_thread(epochs):
    advanced = []
    t = threading.Thread(target=lambda: advanced.append(epochs.try_advance()))
    t.start()
    t.join()
    assert advanced == [True]


def test_section_exit_counts_the_threads_own_advances():
    """A section forged with no depth (the entry window) is invisible to
    advancement, so only the exit check can see the epoch run past it."""
    with sanitizer.enabled() as san:
        m = MemoryManager()
        entered = m.epochs.global_epoch
        # Another thread steps from the entry epoch, then this one: legal.
        san.event("section.enter", epochs=m.epochs, epoch=entered)
        _advance_from_other_thread(m.epochs)
        assert m.epochs.try_advance()
        san.event("section.exit", epochs=m.epochs, epoch=entered)
        san.assert_clean()
        # This thread steps first; another thread's step past it is not.
        entered = m.epochs.global_epoch
        san.event("section.enter", epochs=m.epochs, epoch=entered)
        assert m.epochs.try_advance()
        _advance_from_other_thread(m.epochs)
        with pytest.raises(ProtocolViolation) as exc:
            san.event("section.exit", epochs=m.epochs, epoch=entered)
        assert "epoch-overtook-critical-section" in str(exc.value)
        m.close()


# ----------------------------------------------------------------------
# Clean on real workloads
# ----------------------------------------------------------------------


def test_clean_on_add_remove_compact_query_workload():
    with sanitizer.enabled() as san:
        m = MemoryManager(block_shift=10)
        persons = Collection(TPerson, manager=m)
        handles = []
        while persons.context.block_count() < 6:
            handles.append(persons.add(name=f"p{len(handles)}", age=1))
        keep = handles[::5]
        for h in handles:
            if h not in keep:
                persons.remove(h)
        moved = persons.compact(occupancy_threshold=0.9)
        assert moved > 0
        q = persons.query().aggregate(n=Count())
        assert q.run().rows[0][0] == len(keep)
        san.assert_clean()
        m.close()
        for point in ("alloc.publish", "slot.limbo", "compact.done", "scan.block"):
            assert san.event_counts[point] > 0, point


def test_clean_on_limbo_reuse_and_block_recycling():
    with sanitizer.enabled() as san:
        m = MemoryManager(block_shift=12, reclamation_threshold=0.05)
        persons = Collection(TPerson, manager=m)
        handles = [persons.add(name=f"p{i}", age=i % 100) for i in range(2000)]
        for h in handles[::2]:
            persons.remove(h)
        for i in range(1000):
            persons.add(name="fresh", age=i % 100)
        assert len(list(persons)) == len(persons) == 2000
        san.assert_clean()
        m.close()
        assert san.event_counts["block.recycled"] > 0


def test_enabled_nests_and_restores():
    before = sanitizer.active()
    with sanitizer.enabled() as outer:
        assert sanitizer.active() is outer
        with sanitizer.enabled() as inner:
            assert sanitizer.active() is inner
        assert sanitizer.active() is outer
    assert sanitizer.active() is before


def test_sanitized_memory_manager_wrapper():
    before = sanitizer.active()
    m = sanitizer.SanitizedMemoryManager()
    assert sanitizer.active() is m.sanitizer
    persons = Collection(TPerson, manager=m)
    h = persons.add(name="x", age=1)
    persons.remove(h)
    m.sanitizer.assert_clean()
    assert m.sanitizer.event_counts["alloc.publish"] == 1
    m.close()
    assert sanitizer.active() is before


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


def test_injected_allocation_failure_leaves_no_trace():
    faults = sanitizer.FaultPlan().fail_allocation(after=1, times=1)
    with sanitizer.enabled(faults=faults) as san:
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        persons.add(name="before", age=1)
        entries_before = m.table.size
        allocs_before = m.stats.allocations
        with pytest.raises(MemoryExhaustedError):
            persons.add(name="boom", age=2)
        # The failure happened before any slot or entry was claimed.
        assert m.table.size == entries_before
        assert m.stats.allocations == allocs_before
        assert len(persons) == 1
        h = persons.add(name="after", age=3)  # the system keeps working
        assert h.age == 3
        assert faults.fired["alloc.start"] == 1
        san.assert_clean()
        m.close()


def test_forced_incarnation_overflow_retires_entry():
    faults = sanitizer.FaultPlan().force_incarnation_overflow(mode="retire")
    with sanitizer.enabled(faults=faults) as san:
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="x", age=1)
        entry = h.ref.entry
        persons.remove(h)  # counter saturates; entry must be retired
        assert not h.is_alive
        for _ in range(3):
            m.advance_epoch()
        m._drain_retired_entries()
        assert m.table.retired_count == 1
        assert m.table.incarnation(entry) == INC_MASK
        # The audited reset (post reference-repair) passes the sanitizer.
        assert m.table.reclaim_retired() == 1
        assert m.table.incarnation(entry) == 0
        san.assert_clean()
        m.close()


def test_forced_incarnation_overflow_raise_mode():
    faults = sanitizer.FaultPlan().force_incarnation_overflow(mode="raise")
    with sanitizer.enabled(faults=faults):
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        h = persons.add(name="x", age=1)
        with pytest.raises(IncarnationOverflowError):
            persons.remove(h)
        m.close()


def test_injected_compactor_crash_preserves_all_objects():
    faults = sanitizer.FaultPlan().crash_compactor(after_moves=3)
    with sanitizer.enabled(faults=faults) as san:
        m = MemoryManager(block_shift=10)
        persons = Collection(TPerson, manager=m)
        handles = []
        while persons.context.block_count() < 4:
            handles.append(persons.add(name=f"p{len(handles)}", age=7))
        keep = handles[::4]
        for h in handles:
            if h not in keep:
                persons.remove(h)
        with pytest.raises(sanitizer.InjectedFaultError):
            persons.compact(occupancy_threshold=0.9)
        assert faults.fired["compact.move_item"] == 1
        # A half-done relocation loses nothing: moved objects are in the
        # destination block, unmoved ones still in their sources, and
        # frozen survivors stay readable via the dereference slow path.
        assert [h.age for h in keep] == [7] * len(keep)
        assert len(list(persons)) == len(keep)
        san.assert_clean()
        m.close()
