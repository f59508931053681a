"""Memory contexts: per-collection private block sets (paper section 3.3).

A memory context groups the blocks that serve one object type for one
collection, so that objects of the same collection end up physically
adjacent — the spatial-locality property that makes enumeration fast
(section 4).  The context also owns the allocation machinery for its
blocks: per-thread active blocks and the reclamation queue of blocks with
recyclable limbo slots.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.memory.allocator import ReclamationQueue, ThreadLocalBlocks
from repro.memory.block import Block
from repro.memory.navigation import NavColumns
from repro.memory.slots import FREE

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.manager import MemoryManager


class MemoryContext:
    """Private set of single-type blocks for one collection."""

    def __init__(
        self,
        manager: "MemoryManager",
        type_id: int,
        slot_size: int,
        name: str = "",
    ) -> None:
        self.manager = manager
        self.type_id = type_id
        self.slot_size = slot_size
        self.name = name or f"ctx-{type_id}"
        self.context_id = manager._register_context(self)
        self._blocks: List[Block] = []
        self._blocks_lock = threading.Lock()
        self._tl_blocks = ThreadLocalBlocks()
        self._reclaim = ReclamationQueue()
        #: The block layout of this context: :class:`Block` (rows) or its
        #: columnar subclass (set by columnar collections).  Together with
        #: ``layout`` and ``dict_fields`` it fixes the geometry of every
        #: block of the context, so any process can bind one from its
        #: header alone.
        self.block_class = Block
        #: Slot layout of the hosted type (set by the owning collection);
        #: blocks build their per-field column views from it.
        self.layout = None
        #: Varstring fields stored as dictionary codes (set by columnar
        #: collections).
        self.dict_fields = frozenset()
        #: Blocks whose owner thread abandoned them (exhausted); candidates
        #: for the reclamation queue as their limbo fraction grows.
        self.live_count = 0
        #: Mutation version: moves after every slot publication, every
        #: free and every in-place field write (:meth:`bump_version`).
        #: Relocation leaves it alone: entries and values do not move.
        self.version = 0
        self._versions = itertools.count(1)
        #: Entry-indexed copies of columns that queries navigate into,
        #: valid while their stamp is ``version``
        #: (:mod:`repro.memory.navigation`).
        self.nav = NavColumns(self)

    def bump_version(self) -> None:
        """Record a mutation of this context's rows, after it is made.

        Each bump takes a fresh number, so two racing bumps cannot bring
        the version back to a value a reader already stamped.
        """
        self.version = next(self._versions)

    # ------------------------------------------------------------------
    # Block set
    # ------------------------------------------------------------------

    def blocks(self) -> List[Block]:
        """Snapshot of this context's blocks in allocation order.

        Queries enumerate this list; bag semantics let them visit objects
        in memory order (section 4).
        """
        with self._blocks_lock:
            return list(self._blocks)

    def block_count(self) -> int:
        with self._blocks_lock:
            return len(self._blocks)

    def _attach_block(self, block: Block) -> None:
        with self._blocks_lock:
            self._blocks.append(block)

    def adopt_block(self, block: Block) -> None:
        """Take in a block rebuilt from a snapshot image, objects included."""
        self._attach_block(block)
        self.live_count += block.valid_count
        self.bump_version()

    def detach_block(self, block: Block) -> None:
        """Remove an emptied block from the context (compaction, section 5.2)."""
        with self._blocks_lock:
            self._blocks.remove(block)

    # ------------------------------------------------------------------
    # Allocation (section 3.5)
    # ------------------------------------------------------------------

    def allocate_slot(self) -> Tuple[Block, int]:
        """Claim a slot for a new object; returns ``(block, slot)``.

        The slot is *claimed* (the cursor moves past it) but not yet
        published: its directory entry stays FREE/LIMBO until
        :meth:`commit_slot` flips it to VALID, so concurrent scans never
        observe a slot whose back-pointer and field values are still
        being written (the paper's Add publishes the object last).
        """
        block = self._tl_blocks.get()
        if block is not None:
            # The common case: the cursor sits on a never-used slot.
            slot = block.alloc_cursor
            if slot < block.slot_count and block.directory.item(slot) == FREE:
                block.alloc_cursor = slot + 1
                return block, slot
        manager = self.manager
        epochs = manager.epochs
        while True:
            if block is not None:
                slot = block.find_allocatable(block.alloc_cursor, epochs.global_epoch)
                if slot is not None:
                    block.alloc_cursor = slot + 1
                    return block, slot
                # Current thread-local block is exhausted; abandon it.
                block.alloc_cursor = block.slot_count
                self._retire_active_block(block)
                self._tl_blocks.set(None)
                block = None

            # The paper advances the global epoch from the allocation path
            # when queued blocks are not reclaimable yet; keep advancing
            # until the head becomes ready or a critical section blocks us.
            while self._reclaim.has_blocked_head(epochs.global_epoch):
                if not epochs.try_advance():
                    break
                manager.stats.epoch_advances += 1

            block = self._reclaim.pop_ready(epochs.global_epoch)
            if block is not None:
                block.alloc_cursor = 0
                # An adopted block is about to take in-place writes that
                # bypass the per-object write hooks; if it was ever
                # spilled, its tier image goes stale now.  (The frees
                # that queued it already marked it dirty — this is the
                # defensive restatement of that invariant.)
                if block.tier_offset >= 0:
                    block.tier_dirty = True
                manager.stats.blocks_recycled += 1
            else:
                block = manager._acquire_block(self)
                block.is_active = True
                self._attach_block(block)
            self._tl_blocks.set(block)

    def commit_slot(self, block: Block, slot: int) -> None:
        """Publish a claimed slot: directory -> VALID, counters updated."""
        # mark_valid also invalidates the block's zone map.
        if block.mark_valid(slot) != FREE:  # LIMBO slot recycled in place
            self.manager.stats.limbo_reuses += 1
        self.live_count += 1
        self.bump_version()

    def _retire_active_block(self, block: Block) -> None:
        """An exhausted thread-local block becomes queue-eligible again."""
        block.is_active = False
        if block.limbo_fraction > self.manager.reclamation_threshold:
            self._reclaim.push(block, self.manager.epochs.global_epoch + 2)

    # ------------------------------------------------------------------
    # Removal (section 3.5)
    # ------------------------------------------------------------------

    def free_slot(self, block: Block, slot: int) -> None:
        """Move ``(block, slot)`` to limbo stamped with the current epoch."""
        epoch = self.manager.epochs.global_epoch
        block.mark_limbo(slot, epoch)
        self.live_count -= 1
        self.bump_version()
        # The block's zone map is left as it is: a freed extremum only
        # keeps the zone wide (see repro.memory.zonemap).
        # Blocks actively used for allocation — by ANY thread, not just the
        # remover — are re-examined when retired; all other blocks join the
        # queue as soon as they cross the reclamation threshold.  (The
        # ``is_active`` read here may be stale; ``push`` re-checks it under
        # the queue lock, so an active block can never actually be queued.)
        if not block.is_active:
            if (
                not block.queued_for_reclaim
                and block.limbo_fraction > self.manager.reclamation_threshold
            ):
                self._reclaim.push(block, epoch + 2)

    # ------------------------------------------------------------------
    # Compaction cooperation (section 5)
    # ------------------------------------------------------------------

    def claim_for_compaction(self, block: Block) -> bool:
        """Give the compactor exclusive ownership of *block*'s slots.

        Dequeues the block from the reclamation queue (if queued) and bars
        it from re-entering, so no allocator can start filling a block
        whose survivors are being relocated.  False if an allocator beat
        the compactor to it.
        """
        return self._reclaim.claim_for_compaction(block)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def iter_valid(self) -> Iterator[Tuple[Block, int]]:
        """Yield ``(block, slot)`` for every live object, memory order."""
        for block in self.blocks():
            for slot in block.iter_valid_slots():
                yield block, slot

    @property
    def reclaim_queue_length(self) -> int:
        return len(self._reclaim)

    def total_bytes(self) -> int:
        return self.block_count() * self.manager.space.block_size

    def compactable_blocks(self, occupancy_threshold: float) -> List[Block]:
        """Blocks whose occupancy fell below the compaction threshold.

        Thread-local active blocks are excluded: they are being filled.
        """
        active = set(id(b) for b in self._tl_blocks.values())
        return [
            block
            for block in self.blocks()
            if id(block) not in active and block.occupancy < occupancy_threshold
        ]

    def close(self) -> None:
        """Tear the context down, ending the lifetime of all its objects.

        Blocks are scrubbed before returning to the pool; references into
        a closed context are not protected (closing a collection ends its
        objects' lifetimes wholesale).
        """
        with self._blocks_lock:
            blocks = list(self._blocks)
            self._blocks.clear()
        for block in blocks:
            if block.residency == "hot":
                block.directory.fill(0)
            # Cold blocks skip the scrub: their directory view is a
            # read-only tier mapping, and a paged manager releases the
            # block (and its tier region) outright instead of pooling it.
            block.valid_count = 0
            block.limbo_count = 0
            self.manager._release_block(block)
        self._tl_blocks.clear()
        self._reclaim.drain()
        self.live_count = 0
        self.bump_version()
        self.nav.snapshot = None
