"""Block-aligned address space.

The paper aligns the base address of every memory block to the block size so
that the block header can be recovered from any object pointer with a single
mask operation (section 3.1).  We reproduce that scheme with integer
addresses::

    address  = (block_id << BLOCK_SHIFT) | offset
    block_id = address >> BLOCK_SHIFT
    offset   = address & (BLOCK_SIZE - 1)

Block id 0 is never allocated, so address ``0`` is always invalid and the
integer ``NULL_ADDRESS`` (-1) is used as the canonical null pointer in stored
fields.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, List, Optional

from repro.errors import MemoryExhaustedError
from repro.memory.shm import HeapBuffers

#: log2 of the default block size; 1 << 16 = 64 KiB blocks.
DEFAULT_BLOCK_SHIFT = 16

#: Canonical null pointer value stored in reference fields.
NULL_ADDRESS = -1


class AddressSpace:
    """Registry mapping block ids to block objects.

    The address space is the Python analogue of the process's unmanaged
    heap: blocks are "mapped" into it when allocated and "unmapped" when
    returned.  All addresses handed out by the memory manager are resolved
    through a single address space, which lets any component translate an
    object address back into its hosting block exactly the way the paper
    recovers a block header from a pointer.
    """

    def __init__(
        self,
        block_shift: int = DEFAULT_BLOCK_SHIFT,
        buffers: Optional[object] = None,
    ) -> None:
        if block_shift < 8 or block_shift > 30:
            raise ValueError(f"block_shift must be in [8, 30], got {block_shift}")
        self.block_shift = block_shift
        self.block_size = 1 << block_shift
        self._offset_mask = self.block_size - 1
        #: Buffer allocation policy (``repro.memory.shm``): HeapBuffers by
        #: default; SharedBuffers when the space must be visible to worker
        #: processes for scatter-gather execution.
        self.buffers = buffers if buffers is not None else HeapBuffers()
        #: Worker-side hook: ``attach_miss(block_id) -> Optional[block]``.
        #: A forked worker resolving an address minted *after* the fork has
        #: no Python object for the block; this hook lets it attach the
        #: backing shared segment by name and bind the block over it.
        self.attach_miss: Optional[Callable[[int], Optional[object]]] = None
        # Index 0 is reserved so that address 0 is never valid.
        self._blocks: List[Optional[object]] = [None]
        self._free_ids: List[int] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Block registration
    # ------------------------------------------------------------------

    def register(self, block: object, block_id: Optional[int] = None) -> int:
        """Assign a block id to *block* and return it.

        The caller stores the id on the block; the address space only keeps
        the mapping needed for address resolution.  An explicit *block_id*
        maps the block where its image says it lives (a snapshot, or the
        parent space a scan worker mirrors) — every stored address embeds
        its block id, so binding an image verbatim means taking its id; a
        taken id raises :class:`ValueError`.
        """
        limit = 1 << (63 - self.block_shift)
        with self._lock:
            if block_id is not None:
                if not 0 < block_id < limit:
                    raise ValueError(f"block id {block_id} is out of range")
                while len(self._blocks) <= block_id:
                    self._free_ids.append(len(self._blocks))
                    self._blocks.append(None)
                if self._blocks[block_id] is not None:
                    raise ValueError(f"block id {block_id} is already mapped")
                self._free_ids.remove(block_id)
                self._blocks[block_id] = block
            elif self._free_ids:
                block_id = self._free_ids.pop()
                self._blocks[block_id] = block
            else:
                block_id = len(self._blocks)
                if block_id >= limit:
                    raise MemoryExhaustedError("address space exhausted")
                self._blocks.append(block)
            return block_id

    def unregister(self, block_id: int) -> None:
        """Release *block_id*, making its address range invalid."""
        with self._lock:
            if block_id <= 0 or block_id >= len(self._blocks):
                raise ValueError(f"unknown block id {block_id}")
            if self._blocks[block_id] is None:
                raise ValueError(f"block id {block_id} already unregistered")
            self._blocks[block_id] = None
            self._free_ids.append(block_id)

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------

    def address_of(self, block_id: int, offset: int = 0) -> int:
        """Compose an address from a block id and an in-block offset."""
        return (block_id << self.block_shift) | offset

    def block_id_of(self, address: int) -> int:
        """Extract the block id from *address* (the alignment trick)."""
        return address >> self.block_shift

    def offset_of(self, address: int) -> int:
        """Extract the in-block offset from *address*."""
        return address & self._offset_mask

    def block_at(self, address: int) -> object:
        """Resolve the block hosting *address*.

        Raises :class:`ValueError` for addresses outside any live block;
        callers on hot paths that have already validated the address may
        use :meth:`block_by_id` on a cached id instead.
        """
        block_id = address >> self.block_shift
        if block_id <= 0:
            raise ValueError(f"address {address:#x} is not in a live block")
        block = (
            self._blocks[block_id] if block_id < len(self._blocks) else None
        )
        if block is None and self.attach_miss is not None:
            block = self.attach_miss(block_id)
        if block is None:
            raise ValueError(f"address {address:#x} is not in a live block")
        return block

    def block_by_id(self, block_id: int) -> object:
        block = (
            self._blocks[block_id]
            if 0 <= block_id < len(self._blocks)
            else None
        )
        if block is None and self.attach_miss is not None and block_id > 0:
            block = self.attach_miss(block_id)
        if block is None:
            raise ValueError(f"block id {block_id} is not live")
        return block

    def try_block_at(self, address: int) -> Optional[object]:
        """Like :meth:`block_at` but returns ``None`` for dead addresses."""
        block_id = address >> self.block_shift
        if block_id <= 0 or block_id >= len(self._blocks):
            if block_id > 0 and self.attach_miss is not None:
                return self.attach_miss(block_id)
            return None
        block = self._blocks[block_id]
        if block is None and self.attach_miss is not None:
            block = self.attach_miss(block_id)
        return block

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_blocks(self) -> Iterator[object]:
        """Iterate over currently registered blocks (snapshot semantics)."""
        with self._lock:
            snapshot = list(self._blocks[1:])
        return (blk for blk in snapshot if blk is not None)

    @property
    def live_block_count(self) -> int:
        with self._lock:
            return sum(1 for blk in self._blocks[1:] if blk is not None)

    @property
    def total_bytes(self) -> int:
        """Total bytes currently mapped (live blocks * block size)."""
        return self.live_block_count * self.block_size
