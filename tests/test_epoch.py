"""Epoch-based reclamation protocol."""

import threading

import pytest

from repro.errors import ConcurrencyProtocolError
from repro.memory.epoch import EpochManager


@pytest.fixture
def epochs():
    return EpochManager()


def test_initial_epoch_zero(epochs):
    assert epochs.global_epoch == 0


def test_enter_sets_local_epoch(epochs):
    epochs.try_advance()
    assert epochs.enter_critical_section() == 1
    assert epochs.local_epoch() == 1
    epochs.exit_critical_section()


def test_exit_without_enter_raises(epochs):
    with pytest.raises(ConcurrencyProtocolError):
        epochs.exit_critical_section()


def test_nested_sections_keep_outer_epoch(epochs):
    epochs.enter_critical_section()
    epochs.try_advance()  # self is skipped, advance succeeds
    inner = epochs.enter_critical_section()
    assert inner == 0  # nested enter must not refresh the epoch
    epochs.exit_critical_section()
    epochs.exit_critical_section()
    assert not epochs.in_critical()


def test_context_manager(epochs):
    with epochs.critical_section() as e:
        assert e == 0
        assert epochs.in_critical()
    assert not epochs.in_critical()


def test_advance_blocked_by_lagging_thread(epochs):
    entered = threading.Event()
    release = threading.Event()

    def lagger():
        epochs.enter_critical_section()
        entered.set()
        release.wait()
        epochs.exit_critical_section()

    t = threading.Thread(target=lagger)
    t.start()
    entered.wait()
    assert epochs.try_advance()  # lagger is at 0 == global 0 -> advance to 1
    assert not epochs.try_advance()  # lagger still at 0 < 1 -> blocked
    release.set()
    t.join()
    assert epochs.try_advance()  # lagger gone


def test_own_critical_section_does_not_block_self(epochs):
    epochs.enter_critical_section()
    assert epochs.try_advance()
    epochs.exit_critical_section()


def test_restricted_advancement(epochs):
    me = threading.get_ident()
    epochs.restrict_advancement(me + 1)  # some other thread
    assert not epochs.try_advance()
    epochs.restrict_advancement(None)
    assert epochs.try_advance()


def test_double_restriction_rejected(epochs):
    epochs.restrict_advancement(1)
    with pytest.raises(ConcurrencyProtocolError):
        epochs.restrict_advancement(2)


def test_others_at_least(epochs):
    assert epochs.others_at_least(5)  # nobody else in critical
    entered = threading.Event()
    release = threading.Event()

    def other():
        epochs.enter_critical_section()  # local epoch 0
        entered.set()
        release.wait()
        epochs.exit_critical_section()

    t = threading.Thread(target=other)
    t.start()
    entered.wait()
    assert epochs.others_at_least(0)
    assert not epochs.others_at_least(1)
    release.set()
    t.join()


def test_min_active_epoch(epochs):
    assert epochs.min_active_epoch() == 0
    epochs.enter_critical_section()
    epochs.try_advance()
    epochs.try_advance()
    assert epochs.global_epoch == 2
    assert epochs.min_active_epoch() == 0  # we entered at 0
    epochs.exit_critical_section()
    assert epochs.min_active_epoch() == 2


def test_epochs_monotonic_under_concurrent_advancers(epochs):
    stop = threading.Event()
    seen = []

    def advancer():
        while not stop.is_set():
            epochs.try_advance()

    def watcher():
        last = -1
        while not stop.is_set():
            g = epochs.global_epoch
            seen.append(g >= last)
            last = g

    threads = [threading.Thread(target=advancer) for __ in range(3)]
    threads.append(threading.Thread(target=watcher))
    for t in threads:
        t.start()
    import time

    time.sleep(0.1)
    stop.set()
    for t in threads:
        t.join()
    assert all(seen)


# ----------------------------------------------------------------------
# Property: the protocol rules hold for arbitrary enter/exit/advance
# sequences (hypothesis-driven)
# ----------------------------------------------------------------------

from hypothesis import given, settings, strategies as st

from repro.memory import slots as slotcodec
from repro.memory.epoch import SectionContext

_N_FAKE_THREADS = 3

#: (op, thread) pairs; op 0=enter 1=exit 2=advance 3=free
_op_sequences = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, _N_FAKE_THREADS - 1)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_op_sequences)
def test_epoch_protocol_properties(ops):
    """For any interleaving of enters, exits, advances and frees:

    * the global epoch never regresses and advances by single steps;
    * an advance succeeds iff no in-critical thread lags the epoch;
    * a freed slot is reclaimable iff the global epoch reached ``e + 2``,
      by which point every in-critical thread entered after the free.
    """
    em = EpochManager()
    # Simulated threads: section contexts registered under fake thread ids
    # (never equal to a real ident), driven exactly like enter/exit would.
    fakes = [SectionContext() for __ in range(_N_FAKE_THREADS)]
    for i, ctx in enumerate(fakes):
        em._contexts[2**60 + i] = ctx
    freed = []

    for op, tid in ops:
        ctx = fakes[tid]
        before = em.global_epoch
        if op == 0:  # enter (outermost refreshes the local epoch)
            if ctx.depth == 0:
                ctx.epoch = em.global_epoch
            ctx.depth += 1
        elif op == 1:  # exit
            if ctx.depth > 0:
                ctx.depth -= 1
        elif op == 2:  # advance, from the (real) main thread
            lagging = any(
                c.depth > 0 and c.epoch < before for c in fakes
            )
            advanced = em.try_advance()
            assert advanced == (not lagging)
            assert em.global_epoch == before + (1 if advanced else 0)
        else:  # free: a slot enters limbo stamped with the current epoch
            freed.append(em.global_epoch)
        assert em.global_epoch >= before  # never regresses

    final = em.global_epoch
    for e in freed:
        word = slotcodec.pack(slotcodec.LIMBO, e)
        assert slotcodec.is_reclaimable(word, final) == (final >= e + 2)
        if final >= e + 2:
            # No thread still inside a critical section can have begun it
            # before the free became safe: reuse cannot race a reader.
            assert all(
                c.epoch >= e + 1 for c in fakes if c.depth > 0
            )
