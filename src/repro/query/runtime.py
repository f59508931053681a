"""The block walk every SMC scan goes through.

:class:`BlockCursor` is the one implementation of the paper's
block-access consistency protocol for compaction groups (section 5.2);
the serial scan, the interpreter, the generated code, collection
enumeration and the process-pool parent each drain one, as its only
reader:

* blocks that belong to no compaction group are visited as-is;
* a *finished* group contributes its compacted destination block (once);
* a group reached during the compactor's **moving phase** is relocated by
  the reader ("helping") and the destination block is scanned;
* a group reached during the **waiting phase** is deferred to the end of
  the scan; if the moving phase has begun by then the reader helps,
  otherwise it pins the group's pre-relocation state with the group's
  query counter and scans the source blocks;
* every block is visited exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.block import Block
    from repro.memory.context import MemoryContext
    from repro.memory.manager import MemoryManager


#: Resolution kinds returned by :func:`resolve_group`.
GROUP_BLOCKS = "blocks"  # plain block list, no pin held
GROUP_PINNED = "pinned"  # block list valid while the pre-state pin is held
GROUP_DEFERRED = "deferred"  # waiting-phase conflict: revisit after the scan


def resolve_group(manager: "MemoryManager", group, defer_ok: bool = True):
    """Decide how a scan must visit one compaction group (section 5.2).

    Returns ``(kind, blocks)``:

    * ``GROUP_BLOCKS`` — scan *blocks* as-is (a settled group's pre-state
      or destination, or a moving-phase group the caller just helped
      relocate);
    * ``GROUP_PINNED`` — *blocks* are the group's pre-state members and
      the group's query counter is **held** until the caller is done
      with them;
    * ``GROUP_DEFERRED`` — the reader's local epoch conflicts with the
      upcoming relocation epoch; re-resolve with ``defer_ok=False`` after
      every other block has been processed.

    The pre-state member set is ``sources + attached destination``:
    already-moved rows sit VALID in the destination (limbo in their old
    source slot), unmoved rows sit VALID in the sources, so the union
    holds exactly one live copy of every object.  The per-scan emitted
    set de-duplicates blocks that also appear in the scan's snapshot.
    """
    while True:
        if group.failed:
            return GROUP_BLOCKS, group.members_prestate()
        if group.finished:
            dest = group.dest
            return GROUP_BLOCKS, ([dest] if dest is not None else [])
        if manager.compactor is None:
            # The compactor died mid-cycle (crash injection / recovery):
            # nothing will ever move again, so the pre-state members hold
            # every live row of the group exactly once.
            return GROUP_BLOCKS, group.members_prestate()
        if manager.in_moving_phase:
            dest = manager.compactor.help_group(group)
            if dest is not None:
                return GROUP_BLOCKS, [dest]
            # Group failed (or finished empty); loop to classify it.
            continue
        if (
            defer_ok
            and manager.next_relocation_epoch is not None
            and manager.epochs.local_epoch() == manager.next_relocation_epoch
        ):
            # Waiting phase: process the remaining blocks first (paper
            # section 5.2), revisit the group afterwards.
            return GROUP_DEFERRED, []
        # Freezing epoch, or no active relocation conflict: pin the
        # group's pre-state for the duration of the caller's use of it.
        if group.try_pin_prestate():
            return GROUP_PINNED, group.members_prestate()
        if not (group.finished or group.failed):
            # Pin refused because a mover claimed the group (possibly
            # between retry rounds, outside the manager's moving phase):
            # drive it to a settled state ourselves, then re-classify.
            dest = manager.compactor.help_group(group)
            if dest is not None:
                return GROUP_BLOCKS, [dest]


class BlockCursor:
    """One scan's walk over a context's blocks, drained by one reader
    inside its critical section.

    :meth:`next_unit` hands out a *unit* — a run of consecutive
    group-free blocks, or one compaction group resolved as the reader
    reaches it.  Deferred groups are queued behind the block snapshot
    and revisited after every unit of it.  When a unit is a group's
    pre-state, :attr:`pinned` names the group and the pin holds until the
    next call or :meth:`release`, which the reader runs in a
    ``finally``.

    Under the protocol sanitizer a run is one block long, so each
    ``scan.block`` event fires as the reader reaches the block and a
    schedule gate parked there stops the scan between two blocks.
    """

    def __init__(self, manager: "MemoryManager", context: "MemoryContext") -> None:
        self._manager = manager
        self._blocks = context.blocks()
        self._pos = 0
        self._emitted = set()
        self._seen_groups = set()
        self._deferred: List[object] = []
        #: the group whose pre-state the current unit holds pinned, valid
        #: until the next call (None: the unit needs no pin)
        self.pinned = None

    def release(self) -> None:
        """Unpin the current unit, if it holds a pre-state."""
        group, self.pinned = self.pinned, None
        if group is not None:
            group.unpin_prestate()

    def next_unit(self) -> Optional[List["Block"]]:
        """The next unit's blocks — the run up to the next group (one
        block under the sanitizer) or one group's blocks — or None once
        the scan is done."""
        self.release()
        while True:
            run, group, defer_ok = self._claim()
            if group is not None:
                kind, members = resolve_group(self._manager, group, defer_ok)
                if kind == GROUP_DEFERRED:
                    self._deferred.append(group)
                    continue
                if kind == GROUP_PINNED:
                    self.pinned = group
                run = [b for b in members if b.block_id not in self._emitted]
                self._emitted.update(b.block_id for b in run)
                if not run:
                    self.release()
                    continue
            elif run is None:
                return None
            if _san.SANITIZER is not None:
                for block in run:
                    _san.SANITIZER.event("scan.block", block=block)
            return run

    def _claim(self):
        """``(run, None, _)`` for plain blocks, ``(None, group,
        defer_ok)`` for a group to resolve, ``(None, None, _)`` when
        nothing is left."""
        blocks, emitted = self._blocks, self._emitted
        pos, end = self._pos, len(blocks)
        claimed = None, None, True
        while pos < end:
            block = blocks[pos]
            pos += 1
            group = block.compaction_group
            if group is not None:
                if group not in self._seen_groups:
                    self._seen_groups.add(group)
                    claimed = None, group, True
                    break
            elif block.block_id not in emitted:
                emitted.add(block.block_id)
                run = [block]
                stop = pos if _san.SANITIZER is not None else end
                while pos < stop and blocks[pos].compaction_group is None:
                    block = blocks[pos]
                    pos += 1
                    if block.block_id not in emitted:
                        emitted.add(block.block_id)
                        run.append(block)
                claimed = run, None, True
                break
        else:
            if self._deferred:
                claimed = None, self._deferred.pop(0), False
        self._pos = pos
        return claimed


def scan_blocks(manager: "MemoryManager", context: "MemoryContext") -> Iterator["Block"]:
    """Yield the blocks a scan of *context* must visit, exactly once each.

    The generator drain of a :class:`BlockCursor`.  Must be driven
    to completion (or closed) by the caller: a pre-state pin is released
    when the generator moves past the group, is exhausted or is closed.
    """
    cursor = BlockCursor(manager, context)
    try:
        while (unit := cursor.next_unit()) is not None:
            yield from unit
    finally:
        cursor.release()
