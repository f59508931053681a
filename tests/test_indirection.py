"""Indirection table: entries, incarnations, flags, CAS emulation."""

import pytest

from repro.errors import IncarnationOverflowError
from repro.memory.indirection import (
    FLAG_MASK,
    FORWARD,
    FROZEN,
    INC_MASK,
    LOCKED,
    IndirectionTable,
)
from repro.memory.addressing import NULL_ADDRESS


@pytest.fixture
def table():
    return IndirectionTable(initial_capacity=8)


def test_flag_bits_are_distinct_and_above_counter():
    assert FROZEN & LOCKED == 0
    assert FROZEN & FORWARD == 0
    assert LOCKED & FORWARD == 0
    assert (FROZEN | LOCKED | FORWARD) & INC_MASK == 0
    assert FLAG_MASK == FROZEN | LOCKED | FORWARD


def test_word_helpers():
    word = FROZEN | 42
    assert word & INC_MASK == 42
    assert word & FLAG_MASK == FROZEN


def test_allocate_sets_address(table):
    idx = table.allocate(0xABC)
    assert table.address_of(idx) == 0xABC
    assert table.incarnation(idx) == 0


def test_allocate_grows_past_initial_capacity(table):
    indices = [table.allocate(i) for i in range(10_000)]
    assert len(set(indices)) == 10_000
    assert table.address_of(indices[-1]) == 9_999


def test_release_recycles_entry_keeping_incarnation(table):
    idx = table.allocate(1)
    table.increment_incarnation(idx)
    table.release(idx)
    idx2 = table.allocate(2)
    assert idx2 == idx
    # The recycled entry keeps the bumped counter, so stale references
    # created against the previous occupant keep failing (paper 3.2).
    assert table.incarnation(idx2) == 1


def test_increment_incarnation_monotonic(table):
    idx = table.allocate(1)
    assert table.increment_incarnation(idx) == 1
    assert table.increment_incarnation(idx) == 2
    assert table.incarnation(idx) == 2


def test_increment_preserves_flags(table):
    idx = table.allocate(1)
    table.set_flags(idx, FROZEN)
    table.increment_incarnation(idx)
    assert table.incarnation_word(idx) == FROZEN | 1


def test_incarnation_overflow_raises(table):
    idx = table.allocate(1)
    table._inc[idx] = INC_MASK - 1
    table.increment_incarnation(idx)
    with pytest.raises(IncarnationOverflowError):
        table.increment_incarnation(idx)


def test_overflowed_entries_are_retired_not_reused(table):
    idx = table.allocate(1)
    table._inc[idx] = INC_MASK
    table.release(idx)
    assert table.retired_count == 1
    assert table.allocate(2) != idx


def test_cas_inc(table):
    idx = table.allocate(1)
    assert table.cas_inc(idx, 0, FROZEN)
    assert not table.cas_inc(idx, 0, LOCKED)
    assert table.incarnation_word(idx) == FROZEN


def test_set_and_clear_flags(table):
    idx = table.allocate(1)
    assert table.set_flags(idx, FROZEN | LOCKED) == FROZEN | LOCKED
    assert table.clear_flags(idx, LOCKED) == FROZEN
    assert table.incarnation_word(idx) == FROZEN


def test_try_lock(table):
    idx = table.allocate(1)
    assert table.try_lock(idx)
    assert not table.try_lock(idx)
    table.clear_flags(idx, LOCKED)
    assert table.try_lock(idx)


def test_spin_while_locked_returns_final_word(table):
    idx = table.allocate(1)
    assert table.spin_while_locked(idx) == 0
    table.set_flags(idx, FROZEN)
    assert table.spin_while_locked(idx) == FROZEN


def test_live_entries(table):
    a = table.allocate(10)
    b = table.allocate(20)
    table.increment_incarnation(a)
    table.set_address(a, -1)
    table.release(a)
    live = table._addr[: table._size] != NULL_ADDRESS
    assert live.nonzero()[0].tolist() == [b]


def test_free_count(table):
    idx = table.allocate(1)
    table.increment_incarnation(idx)
    table.release(idx)
    assert table.free_count == 1
    table.allocate(2)
    assert table.free_count == 0
