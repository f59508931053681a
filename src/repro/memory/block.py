"""Data blocks: the unit of off-heap allocation.

A block (paper section 3.2, Figure 1) is a fixed-size, block-aligned chunk
of raw memory divided into four consecutive segments::

    +-------------+----------------------+----------------+---------------+
    | block header|   object store       | slot directory | back-pointers |
    +-------------+----------------------+----------------+---------------+

* The *block header* stores per-block (hence per-type) metadata once,
  instead of with every object — the paper's vtable-sharing trick.
* The *object store* holds ``slot_count`` fixed-size object slots.  The
  first 8 bytes of every slot are the slot header: a 32-bit incarnation
  word (used in direct-pointer mode, section 6) plus 4 reserved bytes.
* The *slot directory* has one 32-bit word per slot encoding its state
  (free / valid / limbo) and, for limbo slots, the removal epoch.
* The *back-pointers* segment stores, per slot, the index of the slot's
  indirection-table entry, so that queries scanning the block can build
  references to qualifying objects (section 4) and the compactor can find
  the entries to re-point (section 5).

The backing store is a ``bytearray``; the slot directory, back-pointers and
slot headers are exposed as writable NumPy views for fast scans.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from repro.memory import slots as slotcodec
from repro.memory.slots import FREE, LIMBO, VALID
from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.addressing import AddressSpace

#: Reserved bytes at the start of every block for the block header.
BLOCK_HEADER_SIZE = 64

#: Bytes at the start of every slot reserved for the slot header
#: (32-bit incarnation word + 32 reserved bits).
SLOT_HEADER_SIZE = 8

_HEADER_STRUCT = struct.Struct("<iiiii")  # type_id, context_id, slot_count, slot_size, kind

#: Block kinds (stored in the header for debugging/validation).
KIND_ROW = 0
KIND_STRING = 1
KIND_COLUMNAR = 2


def _segment_offsets(slot_size: int, slot_count: int):
    """``(directory offset, back-pointer offset)`` of a row block."""
    dir_offset = BLOCK_HEADER_SIZE + slot_count * slot_size
    bp_offset = dir_offset + slot_count * 4
    # Back-pointers must be 8-byte aligned within the buffer.
    return dir_offset, bp_offset + (-bp_offset % 8)


def recount(block) -> None:
    """Derive an adopted block's counters from its slot directory.

    The allocation cursor lands after the last occupied slot, so only a
    never-used tail counts as allocatable.
    """
    states = block.directory & slotcodec.STATE_MASK
    occupied = np.nonzero(states != FREE)[0]
    block.valid_count = int(np.count_nonzero(states == VALID))
    block.limbo_count = int(occupied.size) - block.valid_count
    block.alloc_cursor = int(occupied[-1]) + 1 if occupied.size else 0


class Block:
    """A single-type data block in the off-heap address space."""

    __slots__ = (
        "space",
        "block_id",
        "base_address",
        "segment",
        "buf",
        "type_id",
        "context_id",
        "slot_size",
        "slot_count",
        "object_offset",
        "directory",
        "backptrs",
        "slot_incs",
        "valid_count",
        "limbo_count",
        "alloc_cursor",
        "is_active",
        "compacting",
        "queued_for_reclaim",
        "reclaim_ready_epoch",
        "relocation_list",
        "compaction_group",
        "zones",
        "zone_version",
        "residency",
        "pin_count",
        "tier_dirty",
        "tier_offset",
        "read_clock",
        "cool_epoch",
        "_dir_offset",
        "_bp_offset",
    )

    def __init__(
        self,
        space: "AddressSpace",
        slot_size: int,
        type_id: int,
        context_id: int,
    ) -> None:
        if slot_size % 8 != 0:
            raise ValueError(f"slot_size must be 8-byte aligned, got {slot_size}")
        if slot_size < SLOT_HEADER_SIZE + 8:
            raise ValueError(f"slot_size {slot_size} too small for slot header")
        usable = space.block_size - BLOCK_HEADER_SIZE
        # Per slot we need the slot itself + 4 directory bytes + 8 back-pointer bytes.
        slot_count = usable // (slot_size + 4 + 8)
        if slot_count < 1:
            raise ValueError(
                f"slot_size {slot_size} does not fit in a "
                f"{space.block_size}-byte block"
            )
        if _segment_offsets(slot_size, slot_count)[1] + slot_count * 8 > space.block_size:
            # Back-pointer alignment padding overflowed the block:
            # sacrifice one slot to make room.
            slot_count -= 1
        # The buffer comes from the space's allocation policy: a process
        # heap bytearray by default, or a named shared-memory segment that
        # worker processes can attach by name (repro.memory.shm).
        self._attach(
            space,
            space.register(self),
            space.buffers.create(space.block_size),
            type_id,
            context_id,
            slot_size,
            slot_count,
        )
        self.backptrs.fill(-1)

    @classmethod
    def adopt(
        cls,
        space: "AddressSpace",
        block_id: int,
        segment,
        type_id: int,
        context_id: int,
        slot_size: int,
    ) -> "Block":
        """Rebuild a block around an existing image (snapshot load).

        *segment* already holds the block's bytes; the header says how
        many slots they are divided into, and every counter the
        constructor would start at zero is recounted from the slot
        directory instead.  The header's type and context ids are
        re-stamped: they name positions in the *adopting* manager's
        registries, not the one that wrote the image.
        """
        __, __, slot_count, stored_size, kind = _HEADER_STRUCT.unpack_from(
            segment.buf, 0
        )
        if (
            kind != KIND_ROW
            or stored_size != slot_size
            or slot_count < 1
            or _segment_offsets(slot_size, slot_count)[1] + slot_count * 8
            > space.block_size
        ):
            raise ValueError(
                f"image is not a row block of {slot_size}-byte slots "
                f"(kind {kind}, {slot_count} x {stored_size} bytes)"
            )
        self = cls.__new__(cls)
        self._attach(
            space,
            space.register(self, block_id),
            segment,
            type_id,
            context_id,
            slot_size,
            slot_count,
        )
        recount(self)
        return self

    def _attach(
        self,
        space: "AddressSpace",
        block_id: int,
        segment,
        type_id: int,
        context_id: int,
        slot_size: int,
        slot_count: int,
    ) -> None:
        """Bind this block to its id and buffer; runtime state starts idle."""
        self.space = space
        self.block_id = block_id
        self.base_address = space.address_of(block_id)
        self.segment = segment
        self.buf = segment.buf
        self.type_id = type_id
        self.context_id = context_id
        self.slot_size = slot_size
        self.slot_count = slot_count
        self.object_offset = BLOCK_HEADER_SIZE
        self._dir_offset, self._bp_offset = _segment_offsets(slot_size, slot_count)
        _HEADER_STRUCT.pack_into(
            self.buf, 0, type_id, context_id, slot_count, slot_size, KIND_ROW
        )
        self._bind_views()

        self.valid_count = 0
        self.limbo_count = 0
        self.alloc_cursor = 0
        #: True while some thread allocates in this block (thread-local
        #: active block) or the compactor fills it as a relocation
        #: destination.  Active blocks must never enter the reclamation
        #: queue: handing one to a second allocator would let two threads
        #: claim slots in the same block (section 3.5's one-allocator rule).
        self.is_active = False
        self.queued_for_reclaim = False
        self.reclaim_ready_epoch = -1
        #: True while this block is claimed as a compaction source; the
        #: reclamation queue refuses such blocks (see
        #: ``ReclamationQueue.claim_for_compaction``).
        self.compacting = False
        # Compaction bookkeeping (section 5): populated by the compactor.
        self.relocation_list: Optional[list] = None
        self.compaction_group: Optional[object] = None
        #: Per-block min/max statistics (``repro.memory.zonemap.ZoneMap``),
        #: built lazily by the first pruning scan and validated against
        #: ``zone_version``, which mutators bump on every slot publication
        #: and zoned-field update.
        self.zones = None
        self.zone_version = 0
        # --- memory tiering (repro.memory.pager) ---
        #: ``"hot"`` (writable buffer from the space's allocation policy),
        #: ``"cooling"`` (chosen for demotion, grace period running) or
        #: ``"cold"`` (read-only mmap of a tier-file region).  Every write
        #: path promotes through ``Pager.ensure_hot`` first; a stray write
        #: to a cold block raises (the views are read-only) instead of
        #: corrupting the spilled image.
        self.residency = "hot"
        #: Explicit pin count (scan admission / tests); pinned blocks are
        #: never chosen for demotion, independent of the epoch argument.
        self.pin_count = 0
        #: True when the hot bytes may differ from the spilled tier image.
        self.tier_dirty = False
        #: Byte offset of this block's region in the tier file (-1: none).
        self.tier_offset = -1
        #: Clock-replacement reference counter, bumped on scan admission.
        self.read_clock = 0
        #: Epoch at which cooling started (-1 while not cooling).
        self.cool_epoch = -1

    @property
    def directory_offset(self) -> int:
        """Byte offset of the slot directory inside the buffer."""
        return self._dir_offset

    def _bind_views(self) -> None:
        """(Re)build the NumPy views over the current ``self.buf``.

        Called at construction and by the pager whenever the backing
        buffer is swapped (demotion to a read-only tier mapping, or
        promotion back into a writable segment).  Performs no writes, so
        it is safe over a read-only cold mapping — the resulting arrays
        simply come out non-writable.
        """
        mv = memoryview(self.buf)
        self.directory = np.frombuffer(
            mv, dtype=np.uint32, count=self.slot_count, offset=self._dir_offset
        )
        self.backptrs = np.frombuffer(
            mv, dtype=np.int64, count=self.slot_count, offset=self._bp_offset
        )
        # Strided view over the first 4 bytes of every slot: the incarnation
        # word of the slot header (authoritative in direct-pointer mode).
        self.slot_incs = np.ndarray(
            shape=(self.slot_count,),
            dtype=np.uint32,
            buffer=mv,
            offset=self.object_offset,
            strides=(self.slot_size,),
        )

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------

    def slot_address(self, slot: int) -> int:
        """Address of *slot*'s data (start of the slot, i.e. its header)."""
        return self.base_address + self.object_offset + slot * self.slot_size

    def slot_of_address(self, address: int) -> int:
        """Inverse of :meth:`slot_address` for addresses inside this block."""
        return (self.space.offset_of(address) - self.object_offset) // self.slot_size

    # ------------------------------------------------------------------
    # Slot directory transitions
    # ------------------------------------------------------------------

    def state_of(self, slot: int) -> int:
        return int(self.directory[slot]) & slotcodec.STATE_MASK

    def mark_valid(self, slot: int) -> None:
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "slot.valid", block=self, slot=slot, word=int(self.directory[slot])
            )
        prev = int(self.directory[slot]) & slotcodec.STATE_MASK
        self.directory[slot] = slotcodec.pack(VALID)
        if prev == LIMBO:
            self.limbo_count -= 1
        self.valid_count += 1
        # Invalidate the zone map (after the directory write, so a map
        # built under the new version has seen this slot).  Publication
        # through mark_valid — allocation commits AND relocation copies —
        # is exactly the set of writes zone maps must observe.
        self.zone_version += 1

    def mark_limbo(self, slot: int, epoch: int) -> None:
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "slot.limbo",
                block=self,
                slot=slot,
                word=int(self.directory[slot]),
                epoch=epoch,
            )
        if (int(self.directory[slot]) & slotcodec.STATE_MASK) != VALID:
            raise ValueError(f"slot {slot} is not valid; cannot move to limbo")
        self.directory[slot] = slotcodec.pack(LIMBO, epoch)
        self.valid_count -= 1
        self.limbo_count += 1

    def removal_epoch_of(self, slot: int) -> int:
        return slotcodec.epoch_of(int(self.directory[slot]))

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def valid_slots(self) -> np.ndarray:
        """Indices of all valid slots (vectorised slot-directory scan)."""
        states = self.directory & slotcodec.STATE_MASK
        return np.nonzero(states == VALID)[0]

    def iter_valid_slots(self) -> Iterator[int]:
        for slot in self.valid_slots():
            yield int(slot)

    def find_allocatable(self, start: int, global_epoch: int) -> Optional[int]:
        """Scan the directory from *start* for a FREE or reclaimable LIMBO slot.

        Mirrors the paper's allocation scan (section 3.5): starting at the
        cursor of the last allocation, walk forward until a usable slot is
        found; return ``None`` when the end of the block is reached.
        """
        directory = self.directory
        for slot in range(start, self.slot_count):
            word = int(directory[slot])
            state = word & slotcodec.STATE_MASK
            if state == FREE:
                return slot
            if state == LIMBO and global_epoch >= slotcodec.epoch_of(word) + 2:
                return slot
        return None

    # ------------------------------------------------------------------
    # Occupancy / reclamation policy inputs
    # ------------------------------------------------------------------

    @property
    def limbo_fraction(self) -> float:
        return self.limbo_count / self.slot_count

    @property
    def occupancy(self) -> float:
        """Fraction of slots holding live objects."""
        return self.valid_count / self.slot_count

    @property
    def is_exhausted(self) -> bool:
        """True once the allocation cursor has passed the last slot."""
        return self.alloc_cursor >= self.slot_count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def release(self) -> None:
        """Return this block's address range and buffer to the space.

        The NumPy views must be dropped *before* the segment is released:
        a shared-memory mapping cannot be closed while views still export
        its buffer.
        """
        self.space.unregister(self.block_id)
        self.directory = None
        self.backptrs = None
        self.slot_incs = None
        self.buf = None
        self.segment.release()

    def reset(self, type_id: int, context_id: int) -> None:
        """Reinitialise the block for reuse by a (possibly different) type.

        Single-type blocks may be recycled for different types once empty
        (section 3.2) because incarnation state lives in the indirection
        table; we clear all segments.
        """
        if self.valid_count:
            raise ValueError("cannot reset a block with live objects")
        if self.residency != "hot":
            raise ValueError("cannot reset a non-resident block")
        self.type_id = type_id
        self.context_id = context_id
        _HEADER_STRUCT.pack_into(
            self.buf, 0, type_id, context_id, self.slot_count, self.slot_size, KIND_ROW
        )
        self.directory.fill(0)
        self.backptrs.fill(-1)
        self.slot_incs.fill(0)
        self.valid_count = 0
        self.limbo_count = 0
        self.alloc_cursor = 0
        self.is_active = False
        self.compacting = False
        self.queued_for_reclaim = False
        self.reclaim_ready_epoch = -1
        self.relocation_list = None
        self.compaction_group = None
        self.zones = None
        self.zone_version = 0
        self.pin_count = 0
        self.tier_dirty = False
        self.tier_offset = -1
        self.read_clock = 0
        self.cool_epoch = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block id={self.block_id} type={self.type_id} "
            f"valid={self.valid_count} limbo={self.limbo_count} "
            f"slots={self.slot_count}x{self.slot_size}B>"
        )
