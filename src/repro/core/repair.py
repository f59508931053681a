"""Reference repair: the paper's incarnation-overflow background scan.

Section 3.1: "We do not expect incarnation numbers to overflow in the
lifetime of a typical application, but if overflows should occur, we stop
reusing these memory slots until a background thread has scanned all
manually managed objects and has set all invalid references to null."

The runtime's first half of that contract is automatic: an entry whose
29-bit counter would overflow is *retired* — taken out of circulation —
by :meth:`IndirectionTable.release`.  This module provides the second
half: :func:`repair_references` scans every reference field of every
collection on a manager, nulls the stale ones in place, and returns the
retired entries to the free list so their slots become reusable again.

The scan runs inside a critical section per collection block (amortised,
like a query) and can also be started on a background thread.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Tuple

from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import INC_MASK

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.manager import MemoryManager


def repair_references(manager: "MemoryManager") -> Dict[str, int]:
    """Null every stale reference field across all collections.

    Returns counters: ``scanned`` rows, ``nulled`` references, and
    ``reclaimed`` retired indirection entries returned to circulation.
    A reference is stale when its stored incarnation no longer matches
    its target's (indirect mode: the entry's counter; direct mode: the
    slot header's counter).
    """
    registry = getattr(manager, "collections", {})
    table = manager.table
    space = manager.space
    direct = manager.direct_pointers
    scanned = 0
    nulled = 0

    for coll in registry.values():
        ref_fields = coll.layout.ref_fields
        if not ref_fields:
            continue
        for block in coll.context.blocks():
            with manager.critical_section():
                words = [
                    (block.column(f.name + "__w"), block.column(f.name + "__i"))
                    for f in ref_fields
                ]
                before = nulled
                for slot in block.valid_slots():
                    scanned += 1
                    for word_col, inc_col in words:
                        word = int(word_col[slot])
                        if word == NULL_ADDRESS:
                            continue
                        if _is_stale(table, space, direct, word, int(inc_col[slot])):
                            word_col[slot] = NULL_ADDRESS
                            inc_col[slot] = 0
                            nulled += 1
                if nulled != before:
                    coll.context.bump_version()  # the words are field values

    reclaimed = table.reclaim_retired()
    return {"scanned": scanned, "nulled": nulled, "reclaimed": reclaimed}


def _is_stale(table, space, direct: bool, word: int, inc: int) -> bool:
    if direct:
        block = space.try_block_at(word)
        if block is None:
            return True
        slot = block.slot_of_address(word)
        return (int(block.slot_incs[slot]) & INC_MASK) != (inc & INC_MASK)
    if word < 0 or word >= table.size:
        return True
    return (table.incarnation(word)) != (inc & INC_MASK)


def repair_in_thread(manager: "MemoryManager") -> threading.Thread:
    """Run :func:`repair_references` on a background thread."""
    thread = threading.Thread(
        target=repair_references, args=(manager,), name="smc-repair", daemon=True
    )
    thread.start()
    return thread
