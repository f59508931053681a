"""The global indirection table.

References to self-managed objects do not store the object's memory address
directly; they store a pointer to an entry in the indirection table, which
in turn holds the object's address and its authoritative incarnation number
(paper section 3.2, Figure 1).  The level of indirection is what makes
compaction possible: relocating an object only requires atomically updating
one table entry (section 5.1).

Incarnation word layout (32 bits)::

    bit 31  FROZEN   - the object is scheduled for relocation (section 5.1)
    bit 30  LOCKED   - a thread is relocating / bailing out this object
    bit 29  FORWARD  - slot is a tombstone forwarding to a new location
                       (direct-pointer mode, section 6)
    bits 0..28       - incarnation counter

The incarnation counter starts at zero and is incremented whenever the
object occupying the slot is freed.  References capture the counter at
creation time; a mismatch on dereference means the object is gone and the
reference behaves as null.  When the 29-bit counter would overflow, the
entry is *retired* instead of reused — the paper stops reusing such slots
until a background scan has nulled stale references; retiring is the
conservative equivalent.

Atomicity: the paper uses CAS on the incarnation word.  CPython has no CAS
primitive, so flag updates go through a striped lock table
(:meth:`IndirectionTable.cas_inc`).  The *protocol* — which thread may set
or clear which bit in which epoch/phase — follows the paper exactly and is
enforced by the compactor (``repro.core.compaction``).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IncarnationOverflowError
from repro.memory.addressing import NULL_ADDRESS
from repro.sanitizer import hooks as _san

FROZEN = 1 << 31
LOCKED = 1 << 30
FORWARD = 1 << 29
FLAG_MASK = FROZEN | LOCKED | FORWARD
INC_MASK = (1 << 29) - 1

#: Number of striped locks used to emulate CAS on incarnation words.
_LOCK_STRIPES = 64

_GROW_CHUNK = 4096


class IndirectionTable:
    """Growable table of (address, incarnation-word) entries."""

    def __init__(self, initial_capacity: int = _GROW_CHUNK) -> None:
        capacity = max(initial_capacity, _GROW_CHUNK)
        self._addr = np.full(capacity, NULL_ADDRESS, dtype=np.int64)
        self._inc = np.zeros(capacity, dtype=np.uint32)
        self._size = 0
        self._free: List[int] = []
        self._retired: List[int] = []
        self._grow_lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(_LOCK_STRIPES)]

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------

    def allocate(self, address: int) -> int:
        """Create (or recycle) an entry pointing at *address*; return its index.

        Recycled entries keep their incremented incarnation counter so that
        stale references created against the previous occupant keep failing
        their incarnation check (section 3.2).
        """
        with self._grow_lock:
            if self._free:
                idx = self._free.pop()
            else:
                idx = self._size
                if idx == len(self._addr):
                    self._grow()
                self._size += 1
            self._addr[idx] = address
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "entry.alloc",
                    lock_held=True,
                    table=self,
                    entry=idx,
                    address=address,
                )
            return idx

    def release(self, idx: int) -> None:
        """Return entry *idx* to the free list (its incarnation persists).

        The caller must already have incremented the incarnation counter via
        :meth:`increment_incarnation`; entries whose counter overflowed are
        retired and never reused.
        """
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("entry.release", table=self, entry=idx)
        word = self._inc.item(idx)
        if (word & INC_MASK) >= INC_MASK:
            with self._grow_lock:
                self._retired.append(idx)
            return
        with self._grow_lock:
            self._free.append(idx)

    def _grow(self) -> None:
        new_cap = len(self._addr) + max(_GROW_CHUNK, len(self._addr) // 2)
        addr = np.full(new_cap, NULL_ADDRESS, dtype=np.int64)
        inc = np.zeros(new_cap, dtype=np.uint32)
        addr[: self._size] = self._addr[: self._size]
        inc[: self._size] = self._inc[: self._size]
        self._addr = addr
        self._inc = inc

    # ------------------------------------------------------------------
    # Snapshot images (repro.io.snapshot)
    # ------------------------------------------------------------------

    def export(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the address and incarnation arrays, up to ``size``."""
        with self._grow_lock:
            return (
                self._addr[: self._size].copy(),
                self._inc[: self._size].copy(),
            )

    def adopt(self, addr: np.ndarray, inc: np.ndarray) -> None:
        """Install the entry arrays of an image into this (empty) table.

        Entry ids and incarnation counters carry over unchanged, which is
        what keeps a reference that was stale before the save stale after
        the load.  An image points every entry either at a live object or
        nowhere; the latter are free at once — their two-epoch grace ended
        with the writing process — unless their counter is spent.
        """
        if self._size:
            raise ValueError("only an empty indirection table can adopt an image")
        size = len(addr)
        capacity = max(len(self._addr), size + _GROW_CHUNK)
        self._addr = np.full(capacity, NULL_ADDRESS, dtype=np.int64)
        self._inc = np.zeros(capacity, dtype=np.uint32)
        self._addr[:size] = addr
        self._inc[:size] = inc
        self._size = size
        self.recount_free()

    def recount_free(self) -> None:
        """Rebuild the free and retired lists from the entry arrays."""
        with self._grow_lock:
            dead = self._addr[: self._size] == NULL_ADDRESS
            spent = dead & (
                (self._inc[: self._size] & np.uint32(INC_MASK)) >= INC_MASK
            )
            self._retired = np.nonzero(spent)[0].tolist()
            # Highest first: pop() hands the lowest free entry out next.
            self._free = np.nonzero(dead & ~spent)[0][::-1].tolist()

    def hand_out(self, entries: Sequence[int]) -> None:
        """Make *entries* the ones :meth:`allocate` returns next, in order,
        growing the table over them (log replay: the caller checks each
        is free, and calls :meth:`recount_free` when replay ends)."""
        with self._grow_lock:
            end = max(entries, default=-1) + 1
            while end > len(self._addr):
                self._grow()
            self._size = max(self._size, end)
            self._free = list(reversed(entries))

    # ------------------------------------------------------------------
    # Plain accessors (hot path: GIL-atomic single-element reads/writes)
    # ------------------------------------------------------------------

    def address_of(self, idx: int) -> int:
        return self._addr.item(idx)

    def set_address(self, idx: int, address: int) -> None:
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "entry.repoint", table=self, entry=idx, address=address
            )
        self._addr[idx] = address

    def incarnation_word(self, idx: int) -> int:
        return self._inc.item(idx)

    def incarnation(self, idx: int) -> int:
        return self._inc.item(idx) & INC_MASK

    # ------------------------------------------------------------------
    # Incarnation updates
    # ------------------------------------------------------------------

    def increment_incarnation(self, idx: int) -> int:
        """Increment the incarnation counter on free; return the new counter.

        Uses the striped lock so it composes safely with concurrent flag
        CAS operations (the paper requires ``free`` to use CAS once the
        freeze bit exists, section 5.1 footnote).
        """
        with self._stripes[idx % _LOCK_STRIPES]:
            word = self._inc.item(idx)
            counter = (word & INC_MASK) + 1
            if counter > INC_MASK:
                raise IncarnationOverflowError(f"entry {idx} overflowed")
            new_word = (word & FLAG_MASK) | counter
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "inc.update",
                    lock_held=True,
                    table=self,
                    entry=idx,
                    old=word,
                    new=new_word,
                    kind="increment",
                )
            self._inc[idx] = new_word
            return counter

    def cas_inc(self, idx: int, expected: int, new: int) -> bool:
        """Compare-and-swap the full incarnation word of entry *idx*."""
        with self._stripes[idx % _LOCK_STRIPES]:
            if self._inc.item(idx) != expected:
                return False
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "inc.update",
                    lock_held=True,
                    table=self,
                    entry=idx,
                    old=expected,
                    new=new,
                    kind="cas",
                )
            self._inc[idx] = new
            return True

    def set_flags(self, idx: int, flags: int) -> int:
        """Atomically OR *flags* into the incarnation word; return new word."""
        with self._stripes[idx % _LOCK_STRIPES]:
            old = int(self._inc[idx])
            word = old | flags
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "inc.update",
                    lock_held=True,
                    table=self,
                    entry=idx,
                    old=old,
                    new=word,
                    kind="set_flags",
                )
            self._inc[idx] = word
            return word

    def clear_flags(self, idx: int, flags: int) -> int:
        """Atomically clear *flags* from the incarnation word; return new word."""
        with self._stripes[idx % _LOCK_STRIPES]:
            old = int(self._inc[idx])
            word = old & ~flags & 0xFFFFFFFF
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "inc.update",
                    lock_held=True,
                    table=self,
                    entry=idx,
                    old=old,
                    new=word,
                    kind="clear_flags",
                )
            self._inc[idx] = word
            return word

    def try_lock(self, idx: int) -> bool:
        """Attempt to set the LOCKED bit; False if it was already set."""
        with self._stripes[idx % _LOCK_STRIPES]:
            word = int(self._inc[idx])
            if word & LOCKED:
                return False
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "inc.update",
                    lock_held=True,
                    table=self,
                    entry=idx,
                    old=word,
                    new=word | LOCKED,
                    kind="lock",
                )
            self._inc[idx] = word | LOCKED
            return True

    def spin_while_locked(self, idx: int) -> int:
        """Busy-wait until the LOCKED bit clears; return the final word.

        The paper's readers spin on the lock bit when they race with a
        relocation (section 5.1, cases b/c).  Under the GIL a tiny sleep
        yields to the lock holder.
        """
        import time

        word = int(self._inc[idx])
        while word & LOCKED:
            time.sleep(0)
            word = int(self._inc[idx])
        return word

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """High-water mark of allocated entries."""
        return self._size

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def retired_count(self) -> int:
        return len(self._retired)

    def reclaim_retired(self) -> int:
        """Return retired (counter-overflowed) entries to circulation.

        ONLY safe after a full reference-repair scan has nulled every
        stale reference (paper section 3.1): with no reference left that
        could carry any old incarnation of these entries, their counters
        may restart from zero.
        """
        with self._grow_lock:
            retired, self._retired = self._retired, []
            for idx in retired:
                if _san.SANITIZER is not None:
                    _san.SANITIZER.event(
                        "inc.update",
                        lock_held=True,
                        table=self,
                        entry=idx,
                        old=int(self._inc[idx]),
                        new=0,
                        kind="retire_reset",
                    )
                self._inc[idx] = 0
                self._free.append(idx)
            return len(retired)
