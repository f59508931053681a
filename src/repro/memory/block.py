"""Data blocks: the unit of off-heap allocation.

A block (paper section 3.2, Figure 1) is a fixed-size, block-aligned chunk
of raw memory divided into four consecutive segments::

    +-------------+----------------------+----------------+---------------+
    | block header|   object store       | slot directory | back-pointers |
    +-------------+----------------------+----------------+---------------+

* The *block header* stores per-block (hence per-type) metadata once,
  instead of with every object — the paper's vtable-sharing trick.  It is
  self-describing: kind, slot size and slot count are all a reader needs,
  besides the hosting context's layout, to find every byte of the block.
* The *object store* holds ``slot_count`` fixed-size object slots.  The
  first 8 bytes of every slot are the slot header: a 32-bit incarnation
  word (used in direct-pointer mode, section 6) plus 4 reserved bytes.
* The *slot directory* has one 32-bit word per slot encoding its state
  (free / valid / limbo) and, for limbo slots, the removal epoch.
* The *back-pointers* segment stores, per slot, the index of the slot's
  indirection-table entry, so that queries scanning the block can build
  references to qualifying objects (section 4) and the compactor can find
  the entries to re-point (section 5).

:class:`Block` is the one implementation of that protocol: a set of NumPy
views bound over a buffer it does not care about the origin of — a heap
``bytearray``, a named shared-memory segment (the owner's or one a worker
process attached by name), a read-only mapping of a tier-file region, or
a snapshot image.  Binding (:meth:`Block.__init__`, :meth:`Block.rebind`)
never writes, so it works over read-only mappings, whose views come out
non-writable.  The columnar option (section 4.1) is a *layout* of the
same block: :class:`ColumnarBlock` overrides the geometry — where the
segments lie, how a slot maps to an address, the initial fill — and
nothing else.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, Iterator, Optional

import numpy as np

from repro.memory import slots as slotcodec
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.slots import FREE, LIMBO, VALID
from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.addressing import AddressSpace
    from repro.memory.context import MemoryContext

#: Reserved bytes at the start of every block for the block header.
BLOCK_HEADER_SIZE = 64

#: Bytes at the start of every slot reserved for the slot header
#: (32-bit incarnation word + 32 reserved bits).
SLOT_HEADER_SIZE = 8

_HEADER_STRUCT = struct.Struct("<iiiii")  # type_id, context_id, slot_count, slot_size, kind

#: Block kinds.  Data blocks stamp theirs in the header; string-heap
#: blocks are all payload and carry no header at all.
KIND_ROW = 0
KIND_STRING = 1
KIND_COLUMNAR = 2


def _align8(offset: int) -> int:
    return offset + (-offset % 8)


class Block:
    """A single-type data block in the off-heap address space (row layout)."""

    __slots__ = (
        "space",
        "block_id",
        "base_address",
        "segment",
        "buf",
        "context",
        "type_id",
        "context_id",
        "slot_size",
        "slot_count",
        "object_offset",
        "directory_offset",
        "directory",
        "backptrs",
        "slot_incs",
        "columns",
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
        "write_clock",
        "cool_epoch",
    )

    kind = KIND_ROW

    def __init__(
        self,
        space: "AddressSpace",
        block_id: Optional[int],
        segment,
        context: "MemoryContext",
    ) -> None:
        """Bind a block around the image *segment* already holds.

        The one constructor every container goes through — the owner's
        fresh segment (:meth:`create`), a snapshot image (:meth:`adopt`),
        a segment a worker process attached by name, a tier-file mapping.
        It reads the header, checks it against the geometry *context*
        implies and builds views; it never writes.  ``block_id=None``
        takes the next free id, anything else maps the block where its
        stored addresses say it lives.
        """
        __, __, slot_count, slot_size, kind = _HEADER_STRUCT.unpack_from(
            segment.buf, 0
        )
        if (
            kind != self.kind
            or slot_size != context.slot_size
            or slot_count < 1
            or self._geometry(context, slot_count)[-1] > space.block_size
        ):
            raise ValueError(
                f"block {block_id}: image is not a kind-{self.kind} block of "
                f"{context.slot_size}-byte slots for context "
                f"{context.name!r} (kind {kind}, {slot_count} x {slot_size} "
                f"bytes)"
            )
        self.space = space
        self.context = context
        self.type_id = context.type_id
        self.context_id = context.context_id
        self.slot_size = slot_size
        self.slot_count = slot_count
        self.object_offset = BLOCK_HEADER_SIZE
        self.rebind(segment)  # before registering: a short buffer raises here
        self._reset_state()
        self.block_id = space.register(self, block_id)
        self.base_address = space.address_of(self.block_id)

    @classmethod
    def create(cls, space: "AddressSpace", context: "MemoryContext") -> "Block":
        """A fresh, empty block for *context* in a new buffer.

        The buffer comes from the space's allocation policy: a process
        heap bytearray by default, or a named shared-memory segment that
        worker processes can attach by name (repro.memory.shm).
        """
        slot_size = context.slot_size
        if slot_size % 8 != 0:
            raise ValueError(f"slot_size must be 8-byte aligned, got {slot_size}")
        if slot_size < SLOT_HEADER_SIZE + 8:
            raise ValueError(f"slot_size {slot_size} too small for slot header")
        # Per slot: the object itself + 4 directory bytes + 8 back-pointer
        # bytes; shrink while alignment padding overflows the block.
        slot_count = (space.block_size - BLOCK_HEADER_SIZE) // (slot_size + 4 + 8)
        while (
            slot_count >= 1
            and cls._geometry(context, slot_count)[-1] > space.block_size
        ):
            slot_count -= 1
        if slot_count < 1:
            raise ValueError(
                f"slot_size {slot_size} does not fit in a "
                f"{space.block_size}-byte block"
            )
        segment = space.buffers.create(space.block_size)
        _HEADER_STRUCT.pack_into(
            segment.buf,
            0,
            context.type_id,
            context.context_id,
            slot_count,
            slot_size,
            cls.kind,
        )
        block = cls(space, None, segment, context)
        block._fill()
        return block

    @classmethod
    def adopt(
        cls, space: "AddressSpace", block_id: int, segment, context: "MemoryContext"
    ) -> "Block":
        """Rebuild a block around an existing image (snapshot load).

        *segment* already holds the block's bytes, so nothing is
        initialised: every counter a fresh block starts at zero is
        recounted from the slot directory, with the allocation cursor
        after the last occupied slot so only a never-used tail counts as
        allocatable.  The header's type and context ids are re-stamped:
        they name positions in the *adopting* manager's registries, not
        the one that wrote the image.
        """
        block = cls(space, block_id, segment, context)
        block._stamp_header()
        states = block.directory & slotcodec.STATE_MASK
        occupied = np.nonzero(states != FREE)[0]
        block.valid_count = int(np.count_nonzero(states == VALID))
        block.limbo_count = int(occupied.size) - block.valid_count
        block.alloc_cursor = int(occupied[-1]) + 1 if occupied.size else 0
        return block

    # ------------------------------------------------------------------
    # Geometry: where the segments lie (layout-specific)
    # ------------------------------------------------------------------

    @staticmethod
    def _geometry(context: "MemoryContext", n: int):
        """Byte layout of an *n*-slot block of *context*:
        ``(columns, directory offset, back-pointer offset, incarnation
        offset, incarnation stride, end)`` with *columns* the contiguous
        ``[(name, dtype, offset)]`` arrays bound eagerly.

        Purely a function of ``(context, n)``, so whoever reads *n* out of
        a header — in whatever process — finds the same bytes.  Row slots
        interleave their fields, so a row block binds no column eagerly
        (:meth:`column` builds strided views on demand) and the
        incarnation words are the first four bytes of every slot.
        """
        slot_size = context.slot_size
        dir_offset = BLOCK_HEADER_SIZE + n * slot_size
        bp_offset = _align8(dir_offset + n * 4)
        return (), dir_offset, bp_offset, BLOCK_HEADER_SIZE, slot_size, bp_offset + n * 8

    def rebind(self, segment) -> None:
        """Point the block at *segment* — the same image in another
        container — and rebuild every view over it.

        The pager swaps buffers this way (demotion to a read-only tier
        mapping, promotion back into a writable segment).  Performs no
        writes, so it is safe over a read-only mapping: the arrays simply
        come out non-writable.  ``buf`` is published before the fresh
        ``columns`` cache so a racing :meth:`column` can only ever file a
        view of the new buffer under the new cache.
        """
        n = self.slot_count
        columns, dir_offset, bp_offset, inc_offset, inc_stride, __ = self._geometry(
            self.context, n
        )
        self.segment = segment
        self.buf = segment.buf
        mv = memoryview(self.buf)
        self.directory_offset = dir_offset
        self.directory = np.frombuffer(mv, np.uint32, n, dir_offset)
        self.backptrs = np.frombuffer(mv, np.int64, n, bp_offset)
        self.slot_incs = np.ndarray((n,), np.uint32, mv, inc_offset, (inc_stride,))
        self.columns: Dict[str, np.ndarray] = {
            name: np.frombuffer(mv, dtype, n, offset)
            for name, dtype, offset in columns
        }

    def column(self, name: str) -> np.ndarray:
        """Per-slot array of one stored column (``field``, or a reference
        field's ``field__w`` / ``field__i`` words).

        For a row block that is a strided view over the slots, built on
        first use and cached until the next :meth:`rebind`.
        """
        columns = self.columns  # before reading buf; see rebind
        col = columns.get(name)
        if col is None:
            dtype, offset = self.context.layout.columns[name]
            col = columns[name] = np.ndarray(
                (self.slot_count,),
                dtype,
                memoryview(self.buf),
                self.object_offset + offset,
                (self.slot_size,),
            )
        return col

    def _fill(self) -> None:
        """What an all-zero image still lacks to be an empty block."""
        self.backptrs.fill(-1)

    def _stamp_header(self) -> None:
        _HEADER_STRUCT.pack_into(
            self.buf,
            0,
            self.type_id,
            self.context_id,
            self.slot_count,
            self.slot_size,
            self.kind,
        )

    def _reset_state(self) -> None:
        """Runtime (non-image) state of an idle, empty, resident block."""
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
        #: Explicit pin count (``Pager.pin``); pinned blocks are never
        #: chosen for demotion, independent of the epoch argument.
        self.pin_count = 0
        #: True when the hot bytes may differ from the spilled tier image.
        self.tier_dirty = False
        #: Byte offset of this block's region in the tier file (-1: none).
        self.tier_offset = -1
        #: Clock-replacement reference counter, bumped by ``Pager.ensure_hot``.
        self.write_clock = 0
        #: Epoch at which cooling started (-1 while not cooling).
        self.cool_epoch = -1

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------

    def slot_address(self, slot: int) -> int:
        """Address of *slot*'s data (start of the slot, i.e. its header)."""
        return self.base_address + self.object_offset + slot * self.slot_size

    def slot_of_address(self, address: int) -> int:
        """Inverse of :meth:`slot_address` for addresses inside this block."""
        return (self.space.offset_of(address) - self.object_offset) // self.slot_size

    def slot_of_offset(self, offset):
        """Slot of an in-block byte offset (an address with the block id
        masked off); takes an int or a whole NumPy array of offsets."""
        return (offset - self.object_offset) // self.slot_size

    # ------------------------------------------------------------------
    # Slot directory transitions
    # ------------------------------------------------------------------

    def state_of(self, slot: int) -> int:
        return self.directory.item(slot) & slotcodec.STATE_MASK

    def mark_valid(self, slot: int) -> int:
        """Publish *slot*; returns the state it left (FREE or LIMBO)."""
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "slot.valid", block=self, slot=slot, word=self.directory.item(slot)
            )
        prev = self.directory.item(slot) & slotcodec.STATE_MASK
        self.directory[slot] = VALID  # == slotcodec.pack(VALID)
        if prev == LIMBO:
            self.limbo_count -= 1
        self.valid_count += 1
        # Invalidate the zone map (after the directory write, so a map
        # built under the new version has seen this slot).  Publication
        # through mark_valid — allocation commits AND relocation copies —
        # is exactly the set of writes zone maps must observe.
        self.zone_version += 1
        return prev

    def mark_limbo(self, slot: int, epoch: int) -> None:
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "slot.limbo",
                block=self,
                slot=slot,
                word=self.directory.item(slot),
                epoch=epoch,
            )
        if (self.directory.item(slot) & slotcodec.STATE_MASK) != VALID:
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
            word = directory.item(slot)
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
        self.columns = None
        self.directory = None
        self.backptrs = None
        self.slot_incs = None
        self.buf = None
        self.segment.release()

    def reset(self, context: "MemoryContext") -> None:
        """Reinitialise the block for reuse by a (possibly different) type.

        Single-type blocks may be recycled for different types of the
        same slot size once empty (section 3.2) because incarnation state
        lives in the indirection table; we clear all segments.
        """
        if self.valid_count:
            raise ValueError("cannot reset a block with live objects")
        if self.residency != "hot":
            raise ValueError("cannot reset a non-resident block")
        if context.slot_size != self.slot_size:
            raise ValueError("cannot reset a block to another slot size")
        self.context = context
        self.type_id = context.type_id
        self.context_id = context.context_id
        self._stamp_header()
        self.rebind(self.segment)  # drops the old type's column views
        self.directory.fill(0)
        self.slot_incs.fill(0)
        self._fill()
        self._reset_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} id={self.block_id} type={self.type_id} "
            f"valid={self.valid_count} limbo={self.limbo_count} "
            f"slots={self.slot_count}x{self.slot_size}B>"
        )


class ColumnarBlock(Block):
    """A block whose object data lives in per-field column arrays
    (paper section 4.1).

    Header, slot directory, back-pointers and per-slot incarnation words
    are the row block's; between header and directory lie one contiguous
    array per stored column instead of interleaved slots.  An object's
    address is its *(block, slot)* pair: the offset part of the
    block-aligned address is the slot index.
    """

    __slots__ = ()

    kind = KIND_COLUMNAR

    @staticmethod
    def _geometry(context: "MemoryContext", n: int):
        """Columns in field order (a reference field contributes its
        ``__w`` int64 and ``__i`` uint32 words; dictionary-coded
        varstrings hold int32 codes instead of 8-byte heap addresses),
        each 8-byte aligned, then directory, back-pointers and
        incarnation words as contiguous arrays."""
        columns = []
        offset = BLOCK_HEADER_SIZE
        for name, (dtype, __) in context.layout.columns.items():
            if name in context.dict_fields:
                dtype = np.dtype(np.int32)
            offset = _align8(offset)
            columns.append((name, dtype, offset))
            offset += n * dtype.itemsize
        dir_offset = _align8(offset)
        bp_offset = _align8(dir_offset + 4 * n)
        inc_offset = _align8(bp_offset + 8 * n)
        return columns, dir_offset, bp_offset, inc_offset, 4, inc_offset + 4 * n

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def _fill(self) -> None:
        self.backptrs.fill(-1)
        for field in self.context.layout.ref_fields:
            self.columns[field.name + "__w"].fill(NULL_ADDRESS)

    # -- address arithmetic: the offset part IS the slot id --------------

    def slot_address(self, slot: int) -> int:
        return self.base_address | slot

    def slot_of_address(self, address: int) -> int:
        return self.space.offset_of(address)

    def slot_of_offset(self, offset):
        return offset
