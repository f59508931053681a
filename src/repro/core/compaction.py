"""Compaction (paper section 5) and direct-pointer rewriting (section 6).

When a collection shrinks heavily, under-occupied blocks are emptied into
fresh blocks and returned to the block pool.  Relocating live objects
without stopping the application extends the epoch scheme:

* **Freezing epoch** (``e + 1``): the compactor selects blocks below the
  occupancy threshold, packs them into *compaction groups* (each group's
  survivors fit one destination block), builds per-block relocation lists
  and sets the FROZEN bit on every scheduled object's incarnation word.
* **Relocation epoch** (``e + 2``), *waiting phase*: threads that hit a
  frozen object may still be racing with relocation, so they *bail out*
  the relocation (mark it failed, unfreeze) and proceed.
* **Relocation epoch**, *moving phase* (all threads observed in
  ``e + 2``): the compactor — or any reader that reaches a frozen object
  first ("helping") — locks the incarnation word, copies the object to its
  destination slot, re-points the indirection entry, and unfreezes.
* The compactor finally advances the epoch to ``e + 3`` and releases the
  emptied source blocks (deferred by the usual two-epoch safety rule).

Block-level consistency (section 5.2): queries scan all blocks of a
compaction group consecutively in one thread-local epoch.  A query that
reaches a group during the *moving* phase helps relocate it and scans the
compacted destination block; during the *waiting* phase it defers the
group, and if the moving phase still has not started, pins the group's
pre-relocation state with a read counter that the compactor waits on
(bailing out after a timeout).

Direct-pointer mode (section 6): a moved object leaves a FORWARD-flagged
tombstone in its old slot.  After the move, the compactor scans every
collection whose schema holds direct references to the compacted type —
probing a hash set of compacted block ids before following any pointer —
and rewrites stale addresses; only then are the tombstoned source blocks
released.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.errors import ConcurrencyProtocolError
from repro.memory import zonemap
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import FORWARD, FROZEN, INC_MASK, LOCKED
from repro.memory.slots import VALID
from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.block import Block
    from repro.memory.context import MemoryContext
    from repro.memory.manager import MemoryManager

PENDING = 0
FAILED = 1
DONE = 2
#: The scheduled object was freed after planning: there is nothing left
#: to move.  Terminal — unlike FAILED, never retried, and no FORWARD
#: tombstone is written (rewriting stale direct pointers to the empty
#: destination slot would resurrect references to the dead object).
CANCELLED = 3

#: How long the compactor waits for a group's readers before bailing out.
_READER_WAIT_TIMEOUT = 0.5
_SPIN_SLEEP = 0.0001


class RelocationItem:
    """One scheduled object move (an entry of a block's relocation list)."""

    __slots__ = (
        "from_block",
        "from_slot",
        "to_block",
        "to_slot",
        "entry",
        "inc",
        "status",
    )

    def __init__(
        self,
        from_block: "Block",
        from_slot: int,
        to_block: "Block",
        to_slot: int,
        entry: int,
        inc: int,
    ) -> None:
        self.from_block = from_block
        self.from_slot = from_slot
        self.to_block = to_block
        self.to_slot = to_slot
        self.entry = entry
        #: Incarnation counter at scheduling time; a later mismatch means
        #: the object was freed and the relocation must be cancelled.
        self.inc = inc
        self.status = PENDING


class CompactionGroup:
    """A set of source blocks whose survivors move into one destination."""

    def __init__(
        self,
        context: "MemoryContext",
        sources: List["Block"],
        dest: Optional["Block"],
    ) -> None:
        self.context = context
        self.sources = sources
        self.dest = dest
        self.items: List[RelocationItem] = []
        self.finished = False
        self.failed = False
        self.dest_attached = False
        #: Set (under ``_lock``) once a mover has observed a drained query
        #: counter and may start flipping slots; bars new pre-state pins.
        self.moving = False
        self._counter = 0
        self._lock = threading.Lock()
        for block in sources:
            block.compaction_group = self
            block.relocation_list = []
        if dest is not None:
            # The destination carries the group marker from birth, so a
            # scan that snapshots the block list while relocation is in
            # flight routes the (partially filled) destination through
            # group resolution instead of reading it as a plain block.
            dest.compaction_group = self

    # -- query read counter (section 5.2) ------------------------------

    def members_prestate(self) -> List["Block"]:
        """Every block holding live pre-state rows: the sources plus the
        attached destination.  Moved rows sit VALID in the destination and
        limbo in their source slot; unmoved rows are VALID in the sources
        — together exactly one live copy of each object."""
        blocks = list(self.sources)
        if self.dest is not None and self.dest_attached:
            blocks.append(self.dest)
        return blocks

    def begin_moving_if_unread(self) -> bool:
        """Atomically check the query counter is drained and bar new pins.

        The drain check and the transition to the moving state happen
        under one lock, so a reader can never pin the pre-state after a
        mover decided it is safe to start flipping slots.
        """
        with self._lock:
            if self._counter > 0:
                return False
            self.moving = True
            return True

    # -- query read counter (section 5.2) ------------------------------

    def try_pin_prestate(self) -> bool:
        """Increment the query counter unless relocation already happened
        (or a mover has already observed a drained counter)."""
        with self._lock:
            if self.finished or self.failed or self.moving:
                return False
            self._counter += 1
            return True

    def unpin_prestate(self) -> None:
        with self._lock:
            self._counter -= 1

    @property
    def reader_count(self) -> int:
        with self._lock:
            return self._counter


class Compactor:
    """Runs the compaction protocol against one memory manager."""

    def __init__(self, manager: "MemoryManager") -> None:
        if manager.compactor is not None:
            raise ConcurrencyProtocolError("manager already has a compactor")
        self.manager = manager
        manager.compactor = self
        self._items_by_entry: Dict[int, RelocationItem] = {}
        self._cycle_lock = threading.Lock()
        #: (ready_epoch, block, context) of emptied blocks awaiting release.
        self._retired: List[Tuple[int, "Block"]] = []
        #: (ready_epoch, group) of failed groups whose block markers must
        #: stay up until every scan that snapshotted the block list before
        #: the destination was attached has drained (two-epoch rule): such
        #: a scan can only reach the moved rows by resolving the group.
        self._unmark_after: List[Tuple[int, CompactionGroup]] = []

    def detach(self) -> None:
        """Detach from the manager, draining deferred releases epoch-safely.

        Retired source blocks (and failed groups' markers) may still be
        visible to in-flight scans whose block-list snapshot predates the
        relocation: scrubbing them now would turn them into empty plain
        blocks under those scans and lose the relocated rows.  Instead,
        wait out the two-epoch safety rule, advancing the global epoch
        whenever the readers permit it.
        """
        while self._retired or self._unmark_after:
            self.release_retired()
            if not (self._retired or self._unmark_after):
                break
            if not self.manager.epochs.try_advance():
                time.sleep(_SPIN_SLEEP)
        self.manager.compactor = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def compact_context(
        self, context: "MemoryContext", occupancy_threshold: float = 0.3
    ) -> int:
        """Run one full compaction cycle on *context*.

        Returns the number of objects relocated.  Safe to call while other
        threads run queries; the caller becomes the compaction thread.
        """
        with self._cycle_lock:
            self.release_retired()
            groups = self._plan_groups(context, occupancy_threshold)
            if not groups:
                return 0
            return self._run_cycle(context, groups)

    def run_in_thread(
        self, context: "MemoryContext", occupancy_threshold: float = 0.3
    ) -> threading.Thread:
        """Run a compaction cycle on a dedicated compaction thread."""
        thread = threading.Thread(
            target=self.compact_context,
            args=(context, occupancy_threshold),
            name="smc-compactor",
            daemon=True,
        )
        thread.start()
        return thread

    # ------------------------------------------------------------------
    # Planning (freezing-epoch work, part 1)
    # ------------------------------------------------------------------

    def _plan_groups(
        self, context: "MemoryContext", occupancy_threshold: float
    ) -> List[CompactionGroup]:
        candidates = [
            block
            for block in context.compactable_blocks(occupancy_threshold)
            if block.compaction_group is None
            # Sources must leave allocation circulation: a block sitting in
            # the reclamation queue could otherwise be handed to an
            # allocator that fills it while we empty it (and its new
            # objects would be scrubbed with the retired source).
            and context.claim_for_compaction(block)
        ]
        if not candidates:
            return []
        pager = self.manager.pager
        if pager is not None:
            # Relocation moves slots to LIMBO and the retirement path
            # scrubs the directory — both writes.  Promoting at claim
            # time also cancels any in-flight cooling, so the pager and
            # the compactor never both own a block: ``compacting`` (set
            # by the claim above) bars demotion until the group settles.
            for block in candidates:
                pager.ensure_hot(block)
        groups: List[CompactionGroup] = []
        bucket: List["Block"] = []
        survivors = 0
        capacity = candidates[0].slot_count
        for block in candidates:
            if bucket and survivors + block.valid_count > capacity:
                groups.append(self._make_group(context, bucket, survivors))
                bucket, survivors = [], 0
            bucket.append(block)
            survivors += block.valid_count
        if bucket:
            groups.append(self._make_group(context, bucket, survivors))
        return groups

    def _make_group(
        self, context: "MemoryContext", sources: List["Block"], survivors: int
    ) -> CompactionGroup:
        dest = self.manager._acquire_block(context) if survivors else None
        if dest is not None:
            # The compactor fills the destination's slots; keep it out of
            # the reclamation queue until the group settles.
            dest.is_active = True
        return CompactionGroup(context, list(sources), dest)

    # ------------------------------------------------------------------
    # The compaction cycle (sections 5.1 / 5.2)
    # ------------------------------------------------------------------

    #: Maximum freeze/relocate rounds per cycle.  Readers bailing out
    #: relocations in the waiting phase leave FAILED items behind; the
    #: paper retries them by "adding another freezing phase at the end of
    #: the relocation epoch" (section 5.1).  Groups still incomplete after
    #: the last round are abandoned for this cycle.
    MAX_ROUNDS = 4

    def _run_cycle(
        self, context: "MemoryContext", groups: List[CompactionGroup]
    ) -> int:
        manager = self.manager
        epochs = manager.epochs
        moved = 0
        with epochs.critical_section() as e:
            epochs.restrict_advancement(threading.get_ident())
            base = e
            try:
                self._build_relocation_lists(groups)
                if _san.SANITIZER is not None:
                    _san.SANITIZER.event(
                        "compact.plan",
                        manager=manager,
                        groups=len(groups),
                        items=sum(len(g.items) for g in groups),
                    )
                for round_no in range(self.MAX_ROUNDS):
                    # --- freezing epoch: global becomes base + 1 ---------
                    self._advance_until(base + 1)
                    manager.next_relocation_epoch = base + 2
                    self._freeze_pending(groups)
                    if _san.SANITIZER is not None:
                        _san.SANITIZER.event(
                            "compact.freeze", manager=manager, epoch=base + 1
                        )
                    # --- relocation epoch: global becomes base + 2 -------
                    self._wait_others(base + 1)
                    self._advance_until(base + 2)
                    manager.in_moving_phase = False
                    if _san.SANITIZER is not None:
                        _san.SANITIZER.event(
                            "compact.waiting", manager=manager, epoch=base + 2
                        )
                    # Waiting phase: readers that hit frozen objects bail
                    # them out; once every other in-critical thread reached
                    # base + 2 we may start moving.
                    self._wait_others(base + 2)
                    manager.in_moving_phase = True
                    if _san.SANITIZER is not None:
                        _san.SANITIZER.event(
                            "compact.moving", manager=manager, epoch=base + 2
                        )
                    for group in groups:
                        moved += self._relocate_group(group)
                    manager.in_moving_phase = False
                    manager.next_relocation_epoch = None
                    # --- leave the relocation epoch: base + 3 ------------
                    self._advance_until(base + 3)
                    base += 3
                    if _san.SANITIZER is not None:
                        _san.SANITIZER.event(
                            "compact.round",
                            manager=manager,
                            round=round_no,
                            moved=moved,
                        )
                    if not any(self._retryable_items(g) for g in groups):
                        break
                    for group in groups:
                        for item in self._retryable_items(group):
                            item.status = PENDING
                # Groups whose items never all completed stay in place.
                for group in groups:
                    if not group.finished and not group.failed:
                        if any(
                            i.status not in (DONE, CANCELLED)
                            for i in group.items
                        ):
                            self._fail_group(group)
                        else:
                            self._finish_group(group)
            finally:
                manager.in_moving_phase = False
                manager.next_relocation_epoch = None
                epochs.restrict_advancement(None)
        # Outside the critical section: rewrite direct pointers into the
        # compacted blocks, then retire the emptied sources.
        moved_ids = {
            blk.block_id for g in groups if not g.failed for blk in g.sources
        }
        if moved_ids and manager.direct_pointers:
            self._rewrite_direct_pointers(context, moved_ids)
        for group in groups:
            self._retire_group(group)
        self._items_by_entry.clear()
        manager.stats.compactions += 1
        manager.stats.relocations += moved
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("compact.done", manager=manager, moved=moved)
        return moved

    def _advance_until(self, target: int) -> None:
        epochs = self.manager.epochs
        while epochs.global_epoch < target:
            if not epochs.try_advance():
                time.sleep(_SPIN_SLEEP)

    def _wait_others(self, epoch: int) -> None:
        epochs = self.manager.epochs
        while not epochs.others_at_least(epoch):
            time.sleep(_SPIN_SLEEP)

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------

    def _build_relocation_lists(self, groups: List[CompactionGroup]) -> None:
        """Populate each block's relocation list (freezing-epoch step 1)."""
        table = self.manager.table
        for group in groups:
            if group.dest is None:
                continue
            next_slot = 0
            for block in group.sources:
                for slot in block.valid_slots():
                    slot = int(slot)
                    entry = int(block.backptrs[slot])
                    # An object freed between planning and freezing must be
                    # skipped: its entry may already serve another object.
                    if table.address_of(entry) != block.slot_address(slot):
                        continue
                    inc = table.incarnation(entry)
                    item = RelocationItem(
                        block, slot, group.dest, next_slot, entry, inc
                    )
                    next_slot += 1
                    group.items.append(item)
                    block.relocation_list.append(item)
                    self._items_by_entry[entry] = item

    def _freeze_pending(self, groups: List[CompactionGroup]) -> None:
        """Set FROZEN on every still-pending scheduled entry.

        The freeze is a CAS conditioned on the incarnation counter still
        being the one captured at planning time: an object freed since —
        whose entry may already be drained to null or even recycled for a
        new object — must not be branded FROZEN; its item is cancelled
        instead.  The CAS and ``free``'s counter bump serialise on the
        entry's stripe lock, so a successful freeze proves the object is
        still alive at that instant.
        """
        table = self.manager.table
        for group in groups:
            if group.failed or group.finished:
                continue
            for item in group.items:
                if item.status != PENDING:
                    continue
                while True:
                    word = table.incarnation_word(item.entry)
                    if (word & INC_MASK) != item.inc:
                        item.status = CANCELLED
                        break
                    if word & FROZEN or table.cas_inc(
                        item.entry, word, word | FROZEN
                    ):
                        break

    def _retryable_items(self, group: CompactionGroup) -> List[RelocationItem]:
        if group.failed or group.finished:
            return []
        return [i for i in group.items if i.status == FAILED]

    # ------------------------------------------------------------------
    # Moving
    # ------------------------------------------------------------------

    def _relocate_group(self, group: CompactionGroup) -> int:
        """Move all pending items of *group*; returns the number moved.

        Waits for pre-state readers to drain, bailing out after a timeout
        (section 5.2: queries may return control to the application while
        holding the read lock).
        """
        if group.finished or group.failed:
            return 0
        deadline = time.monotonic() + _READER_WAIT_TIMEOUT
        while not group.begin_moving_if_unread():
            if time.monotonic() > deadline:
                self._fail_group(group)
                return 0
            time.sleep(_SPIN_SLEEP)
        moved = 0
        for item in group.items:
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "compact.move_item",
                    entry=item.entry,
                    from_slot=item.from_slot,
                    to_slot=item.to_slot,
                )
            if self._move_item_locked(item):
                moved += 1
        if all(item.status in (DONE, CANCELLED) for item in group.items):
            self._finish_group(group)
        return moved

    def _move_item_locked(self, item: RelocationItem) -> bool:
        """Lock, move if still pending, unlock.  Returns True if we moved it."""
        table = self.manager.table
        entry = item.entry
        while not table.try_lock(entry):
            time.sleep(_SPIN_SLEEP)
        try:
            if item.status != PENDING:
                return False
            word = table.incarnation_word(entry)
            if not word & FROZEN:
                # A reader bailed it out between status check and lock.
                item.status = FAILED
                return False
            if self._item_went_stale(item, word):
                item.status = CANCELLED
                return False
            self._copy_object(item)
            item.status = DONE
            return True
        finally:
            self._unfreeze_after_move(item)

    def _item_went_stale(self, item: RelocationItem, word: int) -> bool:
        """True if the scheduled object died after the item was built.

        ``free`` races the relocation machinery (section 5.1 footnote):
        FROZEN alone does not stop it, so by the time the mover holds the
        LOCKED bit the source slot may already be limbo — moving it would
        resurrect a freed object and double-free its slot.  The check runs
        under the entry lock, which ``free``'s incarnation CAS respects,
        so a stale item can never flip back to live.
        """
        if (word & INC_MASK) != item.inc:
            return True
        src = item.from_block
        return (
            src.state_of(item.from_slot) != VALID
            or self.manager.table.address_of(item.entry)
            != src.slot_address(item.from_slot)
        )

    def _copy_object(self, item: RelocationItem) -> None:
        """Copy the slot bytes and re-point the indirection entry.

        The source slot directory entry moves to LIMBO and the destination
        block is attached to the context on the group's first successful
        move, so scans started at any point see each live object exactly
        once: moved objects in the destination, unmoved ones in the
        (still-attached) sources.
        """
        src, dst = item.from_block, item.to_block
        size = src.slot_size
        src_off = src.object_offset + item.from_slot * size
        dst_off = dst.object_offset + item.to_slot * size
        dst.buf[dst_off : dst_off + size] = src.buf[src_off : src_off + size]
        dst.backptrs[item.to_slot] = item.entry
        dst.mark_valid(item.to_slot)
        self.manager.table.set_address(item.entry, dst.slot_address(item.to_slot))
        group: CompactionGroup = src.compaction_group
        if group is not None and not group.dest_attached:
            group.dest_attached = True
            group.context._attach_block(dst)
        src.mark_limbo(item.from_slot, self.manager.epochs.global_epoch)

    def _unfreeze_after_move(self, item: RelocationItem) -> None:
        """Clear FROZEN+LOCKED; leave a FORWARD tombstone in direct mode.

        The paper sets the forwarding flag in the same atomic operation
        that unsets the frozen and lock bits (section 6).
        """
        table = self.manager.table
        if item.status == DONE and self.manager.direct_pointers:
            src = item.from_block
            word = int(src.slot_incs[item.from_slot])
            src.slot_incs[item.from_slot] = (word & INC_MASK) | FORWARD
        table.clear_flags(item.entry, FROZEN | LOCKED)

    def _fail_group(self, group: CompactionGroup) -> None:
        """Abandon a group this cycle (readers held it too long).

        Already-moved objects stay in the (attached) destination block;
        source slots they vacated are limbo.  Unmoved objects remain in
        their source blocks, which revert to ordinary blocks.
        """
        table = self.manager.table
        not_done = 0
        for item in group.items:
            while not table.try_lock(item.entry):
                time.sleep(_SPIN_SLEEP)
            if item.status == PENDING:
                item.status = FAILED
                table.clear_flags(item.entry, FROZEN | LOCKED)
            else:
                table.clear_flags(item.entry, LOCKED)
            if item.status not in (DONE, CANCELLED):
                not_done += 1
        group.failed = True
        self.manager.stats.failed_relocations += not_done
        if group.dest is not None:
            group.dest.is_active = False
        if group.dest_attached:
            # Some objects already moved: their only live copy is in the
            # attached destination.  A scan that snapshotted the block
            # list *before* the destination was attached reaches them
            # only by resolving this group off a source block's marker
            # (pre-state = sources + destination), so the markers must
            # outlive every such scan — clear them two epochs from now,
            # exactly like retired source blocks.
            self._unmark_after.append(
                (self.manager.epochs.global_epoch + 2, group)
            )
        else:
            # Nothing moved: the sources hold every live object and the
            # untouched destination can be recycled immediately.
            if group.dest is not None and group.dest.valid_count == 0:
                group.dest.compaction_group = None
                self.manager._release_block(group.dest)
            self._clear_group_markers(group)

    def _clear_group_markers(self, group: CompactionGroup) -> None:
        """Revert a settled failed group's blocks to ordinary blocks."""
        if group.dest is not None:
            group.dest.compaction_group = None
        for block in group.sources:
            block.compaction_group = None
            block.relocation_list = None
            # The sources revert to ordinary blocks; reclamation may have
            # them again.
            block.compacting = False

    def _finish_group(self, group: CompactionGroup) -> None:
        """Detach the emptied sources; the destination was attached at the
        group's first successful move."""
        if group.finished:
            return
        context = group.context
        with group._lock:
            if group.finished:
                return
            group.finished = True
        if group.dest is not None:
            group.dest.is_active = False
        if group.dest is not None and not group.dest_attached:
            # Nothing was moved (empty group): recycle the destination.
            group.dest.compaction_group = None
            self.manager._release_block(group.dest)
        elif group.dest is not None:
            # Relocation copied slot bytes without publishing through
            # commit_slot, so the destination carried no statistics while
            # the group was in flight (conservative: no pruning).  Now
            # that its contents are final, compute exact bounds.
            zonemap.rebuild(self.manager, group.dest)
            # Contents are final: the destination becomes an ordinary
            # block.  Scans that resolve the group through a source still
            # reach it via ``group.dest``; the per-scan emitted set keeps
            # it to one visit either way.
            group.dest.compaction_group = None
        for block in group.sources:
            context.detach_block(block)

    def _retire_group(self, group: CompactionGroup) -> None:
        if group.failed or not group.finished:
            return
        ready = self.manager.epochs.global_epoch + 2
        for block in group.sources:
            self._retired.append((ready, block))

    def release_retired(self, force: bool = False) -> int:
        """Release retired source blocks whose safety epoch has passed.

        Also clears the markers of failed groups whose two-epoch window
        elapsed (see ``_fail_group``): their blocks become ordinary blocks
        again and may be re-planned by the next cycle.
        """
        epoch = self.manager.epochs.global_epoch
        keep_groups: List[Tuple[int, CompactionGroup]] = []
        for ready, group in self._unmark_after:
            if force or ready <= epoch:
                self._clear_group_markers(group)
            else:
                keep_groups.append((ready, group))
        self._unmark_after = keep_groups
        keep: List[Tuple[int, "Block"]] = []
        released = 0
        for ready, block in self._retired:
            if force or ready <= epoch:
                block.compaction_group = None
                block.relocation_list = None
                block.compacting = False
                # Moved-out objects left their source slots formally VALID
                # for pre-state readers; scrub before returning to the pool.
                block.directory.fill(0)
                block.valid_count = 0
                block.limbo_count = 0
                self.manager._release_block(block)
                released += 1
            else:
                keep.append((ready, block))
        self._retired = keep
        return released

    # ------------------------------------------------------------------
    # Reader cooperation (dereference slow path, section 5.1 cases b/c)
    # ------------------------------------------------------------------

    def bail_out_relocation(self, entry: int) -> None:
        """Waiting phase: mark the entry's relocation failed and unfreeze."""
        table = self.manager.table
        item = self._items_by_entry.get(entry)
        if item is None:
            table.clear_flags(entry, FROZEN)
            return
        while not table.try_lock(entry):
            time.sleep(_SPIN_SLEEP)
        if item.status == PENDING and table.incarnation_word(entry) & FROZEN:
            item.status = FAILED
            self.manager.stats.bailed_relocations += 1
            table.clear_flags(entry, FROZEN | LOCKED)
        else:
            table.clear_flags(entry, LOCKED)

    def help_relocation(self, entry: int) -> None:
        """Moving phase: perform the entry's relocation on the reader thread."""
        table = self.manager.table
        item = self._items_by_entry.get(entry)
        if item is None:
            table.clear_flags(entry, FROZEN)
            return
        while not table.try_lock(entry):
            time.sleep(_SPIN_SLEEP)
        try:
            word = table.incarnation_word(entry)
            if item.status == PENDING and word & FROZEN:
                if self._item_went_stale(item, word):
                    item.status = CANCELLED
                else:
                    self._copy_object(item)
                    item.status = DONE
                    self.manager.stats.helped_relocations += 1
        finally:
            self._unfreeze_after_move(item)

    def help_group(self, group: CompactionGroup) -> Optional["Block"]:
        """Moving phase, block scans: relocate the whole group, return dest.

        Used by queries that reach a compaction group's blocks during the
        moving phase (section 5.2): first help perform the relocation, then
        process the compacted block.  Pre-state readers that pinned the
        group with its query counter block the relocation; after the same
        timeout the compactor uses, the group is failed and ``None`` is
        returned (scan the pre-state sources instead).
        """
        deadline = time.monotonic() + _READER_WAIT_TIMEOUT
        while not group.begin_moving_if_unread():
            if time.monotonic() > deadline:
                self._fail_group(group)
                return None
            time.sleep(_SPIN_SLEEP)
        for item in group.items:
            self._move_item_locked(item)
        if all(item.status in (DONE, CANCELLED) for item in group.items):
            self._finish_group(group)
            return group.dest
        # A reader bailed items out from under us: the group cannot be
        # completed this round.  Fail it so the caller scans the pre-state
        # (sources + attached destination) instead of a partial result.
        self._fail_group(group)
        return None

    # ------------------------------------------------------------------
    # Direct-pointer rewriting (section 6)
    # ------------------------------------------------------------------

    def _rewrite_direct_pointers(
        self, context: "MemoryContext", moved_block_ids: Set[int]
    ) -> int:
        """Rewrite direct references that point into compacted blocks.

        The referrer SMCs are statically known from the schemas; before
        following any stored pointer we probe the compacted-block hash set
        with the pointer's block id — the paper's optimisation to avoid
        random memory accesses for unaffected references.
        """
        manager = self.manager
        space = manager.space
        target_name = context.name
        registry = getattr(manager, "collections", {})
        rewritten = 0
        for coll in registry.values():
            ref_fields = [
                f
                for f in coll.layout.ref_fields
                if f.resolve_target().__name__ == target_name
            ]
            if not ref_fields:
                continue
            for block in coll.context.blocks():
                for slot in block.valid_slots().tolist():
                    for f in ref_fields:
                        # Through the word columns, which serve both
                        # block layouts.
                        word = int(block.column(f.name + "__w")[slot])
                        if word == NULL_ADDRESS:
                            continue
                        if (word >> space.block_shift) not in moved_block_ids:
                            continue
                        src_block = space.try_block_at(word)
                        if src_block is None:
                            continue
                        src_slot = src_block.slot_of_address(word)
                        src_word = int(src_block.slot_incs[src_slot])
                        if not src_word & FORWARD:
                            continue
                        entry = int(src_block.backptrs[src_slot])
                        new_addr = manager.table.address_of(entry)
                        if new_addr == NULL_ADDRESS:
                            continue
                        new_block = space.block_at(new_addr)
                        new_slot = new_block.slot_of_address(new_addr)
                        new_inc = int(new_block.slot_incs[new_slot]) & INC_MASK
                        if manager.pager is not None:
                            # The referrer block takes an in-place pointer
                            # rewrite; promote it (and dirty its image).
                            manager.pager.ensure_hot(block)
                        block.column(f.name + "__w")[slot] = new_addr
                        block.column(f.name + "__i")[slot] = new_inc
                        rewritten += 1
        return rewritten
