"""Deterministic race reproductions via the sanitizer's schedule control.

Each test drives a specific cross-thread interleaving of the reclamation
protocol by parking a thread at a named yield point (a :class:`Gate`) and
resuming it once the racing step has executed — the schedule is forced,
not hoped for, so the tests are deterministic.  Every test prints its
schedule seed; re-running with the same seed (and thread names) replays
the same per-thread jitter decisions.
"""

import threading

import pytest

from repro import sanitizer
from repro.core.collection import Collection
from repro.memory import slots as slotcodec
from repro.memory.manager import MemoryManager
from repro.query import runtime

from tests.schemas import TNote, TPerson


def _fill_blocks(persons, blocks, age=1):
    handles = []
    while persons.context.block_count() < blocks:
        handles.append(persons.add(name=f"p{len(handles)}", age=age))
    return handles


def _block_id_of(manager, handle):
    with manager.critical_section():
        return manager.space.block_at(handle.ref.address()).block_id


def test_compact_during_deref_bails_out_in_waiting_phase():
    """A reader that hits a frozen object in the waiting phase bails the
    relocation out; the compactor retries it in the next round."""
    schedule = sanitizer.ScheduleController(seed=7)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = MemoryManager(block_shift=10)
        persons = Collection(TPerson, manager=m)
        handles = _fill_blocks(persons, 4, age=7)
        keep = handles[::4]
        for h in handles:
            if h not in keep:
                persons.remove(h)
        # The main thread's active (still-filling) block is not compacted;
        # only survivors in the under-occupied candidate blocks relocate.
        candidate_ids = {
            b.block_id for b in persons.context.compactable_blocks(0.9)
        }
        expected_moves = sum(
            1 for h in keep if _block_id_of(m, h) in candidate_ids
        )
        victim = next(h for h in keep if _block_id_of(m, h) in candidate_ids)
        assert expected_moves >= 1

        # Park the compactor right after it entered the relocation epoch,
        # before it starts moving: the waiting phase, held open.
        gate = schedule.pause_at("compact.waiting")
        result = []
        compactor = threading.Thread(
            target=lambda: result.append(
                persons.compact(occupancy_threshold=0.9)
            ),
            name="smc-compactor",
        )
        compactor.start()
        assert gate.wait_parked(timeout=10.0), "compactor never reached waiting"

        # The global epoch is the relocation epoch; a reader entering now
        # dereferences a frozen survivor -> case (b): bail the move out.
        assert m.epochs.global_epoch == m.next_relocation_epoch
        assert not m.in_moving_phase
        assert victim.age == 7  # reads fine through the slow path
        assert m.stats.bailed_relocations >= 1

        gate.release()
        compactor.join(timeout=10.0)
        assert not compactor.is_alive()
        # The bailed-out item was retried in a later round: every scheduled
        # survivor (the victim included) was still relocated, none lost.
        assert result == [expected_moves]
        assert _block_id_of(m, victim) not in candidate_ids
        assert sorted(h.age for h in persons) == [7] * len(keep)
        san.assert_clean()
        m.close()


def test_free_during_scan_blocks_reuse_until_reader_exits():
    """A slot freed while a reader scans its block stays unreusable until
    the reader leaves its critical section (the e+2 rule in action)."""
    schedule = sanitizer.ScheduleController(seed=11)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = MemoryManager(block_shift=10)
        persons = Collection(TPerson, manager=m)
        handles = _fill_blocks(persons, 2)
        victim = handles[0]
        with m.critical_section():
            address = victim.ref.address()
        block = m.space.block_at(address)
        slot = block.slot_of_address(address)

        gate = schedule.pause_at("scan.block", thread="scan-reader")
        seen = []

        def reader():
            with m.critical_section():
                for blk in runtime.scan_blocks(m, persons.context):
                    seen.append(blk.valid_count)

        t = threading.Thread(target=reader, name="scan-reader")
        t.start()
        assert gate.wait_parked(timeout=10.0), "reader never reached the scan"

        # Free the victim while the reader is mid-scan at epoch e.
        persons.remove(victim)
        removal = block.removal_epoch_of(slot)
        # The global epoch can advance at most once past the reader ...
        m.advance_epoch()
        assert not m.epochs.try_advance()
        # ... so the freed slot is pinned in limbo, not reusable.
        word = int(block.directory[slot])
        assert not slotcodec.is_reclaimable(word, m.epochs.global_epoch)
        assert block.find_allocatable(slot, m.epochs.global_epoch) != slot

        gate.release()
        t.join(timeout=10.0)
        assert not t.is_alive()
        # Reader gone: two advances later the slot becomes recyclable.
        while m.epochs.global_epoch < removal + 2:
            assert m.advance_epoch()
        assert slotcodec.is_reclaimable(word, m.epochs.global_epoch)
        assert block.find_allocatable(slot, m.epochs.global_epoch) == slot
        san.assert_clean()
        m.close()


def test_retired_text_stays_decodable_for_a_reader_in_its_section():
    """A reader resolves a dictionary code inside its critical section
    and stops there.  The writer releases the code's last reference,
    advances the epoch as far as it can and interns new texts: the code
    is not rebound, and the reader still decodes the retired text.  Only
    after the reader exits and two more advances pass is the code reused."""
    schedule = sanitizer.ScheduleController(seed=31)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = MemoryManager()
        notes = Collection(TNote, manager=m)
        sd = notes.strdict
        victim = notes.add(text="doomed", stars=0)
        gate = schedule.pause_at("dict.resolved", thread="dict-reader")
        seen = []

        def reader():
            with m.critical_section():
                code = sd.code_of("doomed")
                seen.append(code)
                schedule.yield_point("dict.resolved")
                seen.append(sd.text_of(code))

        t = threading.Thread(target=reader, name="dict-reader")
        t.start()
        assert gate.wait_parked(timeout=10.0), "reader never resolved the code"
        [code] = seen

        notes.remove(victim)  # the last reference: the code retires
        retired = m.epochs.global_epoch
        advances = 0
        while m.epochs.try_advance():
            advances += 1
        assert advances <= 1  # the reader pins the epoch
        fresh = [sd.intern(f"fresh {i}") for i in range(8)]
        assert code not in fresh
        assert sd.code_of("doomed") is None

        gate.release()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert seen == [code, "doomed"]
        # Reader gone: the code waits out its two epochs, then is reused.
        while m.epochs.global_epoch < retired + 2:
            assert sd.intern(f"early {m.epochs.global_epoch}") != code
            assert m.epochs.try_advance()
        assert sd.intern("late") == code
        assert sd.text_of(code) == "late"
        san.assert_clean()
        m.close()


def test_epoch_cannot_overtake_a_thread_entering_its_section():
    """A thread stopped between reading the epoch and joining its section
    is visible to advancement: the epoch moves at most once past it."""
    schedule = sanitizer.ScheduleController(seed=29)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = MemoryManager()
        gate = schedule.pause_at("section.enter", thread="entering-reader")

        def reader():
            with m.critical_section():
                pass

        t = threading.Thread(target=reader, name="entering-reader")
        t.start()
        assert gate.wait_parked(timeout=10.0), "reader never began entering"

        assert m.epochs.try_advance()
        second = m.epochs.try_advance()
        gate.release()
        t.join(timeout=10.0)
        assert not t.is_alive()
        san.assert_clean()
        assert not second
        m.close()


def test_epoch_advance_race_under_seeded_jitter():
    """Concurrent advancers + churners under seeded jitter: the sanitizer
    verifies every advance is a single monotonic step that never overtakes
    an in-critical thread."""
    schedule = sanitizer.ScheduleController(seed=23, switch_probability=0.2)
    print(f"schedule seed={schedule.seed}")
    with sanitizer.enabled(schedule=schedule) as san:
        m = MemoryManager(block_shift=12, reclamation_threshold=0.05)
        persons = Collection(TPerson, manager=m)
        errors = []

        def churner(tid):
            try:
                local = [
                    persons.add(name=f"c{tid}", age=i % 50) for i in range(200)
                ]
                for h in local:
                    persons.remove(h)
                for i in range(200):
                    persons.add(name=f"c{tid}b", age=i % 50)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        def advancer():
            try:
                for _ in range(200):
                    m.advance_epoch()
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=churner, args=(t,), name=f"race-churn-{t}")
            for t in range(2)
        ]
        threads += [
            threading.Thread(target=advancer, name=f"race-adv-{t}")
            for t in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        # One event per successful advance: the counter and the epoch agree.
        assert m.epochs.global_epoch == san.event_counts["epoch.advance"]
        assert m.epochs.global_epoch > 0
        san.assert_clean()
        m.close()
