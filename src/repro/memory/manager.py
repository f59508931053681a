"""The type-safe manual memory manager (paper section 3).

:class:`MemoryManager` owns the address space, the global indirection
table, the epoch machinery, the string heap and a pool of recycled blocks.
Collections create a private :class:`~repro.memory.context.MemoryContext`
per type and map their ``add``/``remove`` operations onto
:meth:`MemoryManager.allocate_object` / :meth:`MemoryManager.free_object`.

The manager also carries the global compaction state the dereference slow
path consults (``next_relocation_epoch`` / ``in_moving_phase``); the
compaction algorithm itself lives in ``repro.core.compaction``.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    ConcurrencyProtocolError,
    IncarnationOverflowError,
    NullReferenceError,
)
from repro.memory.addressing import AddressSpace, NULL_ADDRESS
from repro.memory.block import KIND_ROW, Block, _HEADER_STRUCT
from repro.memory.context import MemoryContext
from repro.memory.epoch import EpochManager
from repro.memory.indirection import (
    FLAG_MASK,
    FROZEN,
    INC_MASK,
    LOCKED,
    IndirectionTable,
)
from repro.memory.reference import Ref
from repro.memory.slots import VALID
from repro.memory.stringheap import StringHeap
from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.compaction import Compactor

#: Default reclamation threshold: a block joins the reclamation queue once
#: more than this fraction of its slots are in limbo.  The paper's
#: sensitivity study (Figure 6) selects 5%.
DEFAULT_RECLAMATION_THRESHOLD = 0.05

#: Default data-block size: 1 MiB.  Large blocks amortise per-block costs
#: in block-at-a-time query execution; small setups (tests) may shrink it.
DEFAULT_MANAGER_BLOCK_SHIFT = 20


@dataclass
class MemoryStats:
    """Counters exposed for tests, benchmarks and diagnostics."""

    allocations: int = 0
    frees: int = 0
    limbo_reuses: int = 0
    blocks_allocated: int = 0
    blocks_recycled: int = 0
    blocks_pooled: int = 0
    epoch_advances: int = 0
    compactions: int = 0
    relocations: int = 0
    failed_relocations: int = 0
    helped_relocations: int = 0
    bailed_relocations: int = 0
    extra: Dict[str, int] = field(default_factory=dict)


class MemoryManager:
    """Facade over the off-heap memory subsystem."""

    def __init__(
        self,
        block_shift: int = DEFAULT_MANAGER_BLOCK_SHIFT,
        reclamation_threshold: float = DEFAULT_RECLAMATION_THRESHOLD,
        direct_pointers: bool = False,
        shm: bool = False,
        memory_budget: Optional[int] = None,
    ) -> None:
        if not 0.0 <= reclamation_threshold <= 1.0:
            raise ValueError("reclamation_threshold must be within [0, 1]")
        #: Back block buffers with named shared-memory segments so worker
        #: processes can attach them (``repro.memory.shm``); required by
        #: the multi-process scatter-gather executor.
        self.shm = shm
        buffers = None
        if shm:
            from repro.memory.shm import SharedBuffers

            buffers = SharedBuffers()
        #: Hot-tier byte budget for the block pool.  When set, the block
        #: pool is paged: blocks exceeding the budget are demoted to a
        #: tier file, read there in place and faulted back only to be
        #: written (``repro.memory.pager``).
        self.memory_budget = memory_budget
        if memory_budget is not None:
            from repro.memory.pager import TieredBuffers

            buffers = TieredBuffers(inner=buffers)
        self.space = AddressSpace(block_shift, buffers=buffers)
        self.epochs = EpochManager()
        self.stats = MemoryStats()
        #: The pager governing block residency, or None when unbudgeted.
        self.pager = None
        if memory_budget is not None:
            from repro.memory.pager import Pager

            self.pager = Pager(self, memory_budget)
        self.table = IndirectionTable()
        self.strings = StringHeap(self.space, self.epochs)
        self.reclamation_threshold = reclamation_threshold
        #: Direct-pointer mode (section 6): references *between* SMCs store
        #: raw addresses and incarnation checks use the slot header.
        self.direct_pointers = direct_pointers
        #: The process that owns the Python-level state.  A forked scan
        #: worker keeps the manager but not this pid: the contexts'
        #: versions and navigation columns it sees are the fork's copy.
        self.owner_pid = os.getpid()

        self._contexts: List[MemoryContext] = []
        self._type_ids: Dict[str, int] = {}
        self._pool: Dict[int, List[Block]] = {}
        self._pool_lock = threading.Lock()
        #: Freed indirection entries awaiting recycling: (ready_epoch, idx).
        #: Like limbo slots, entries only become reusable two epochs after
        #: the free, so a reader that passed the incarnation check inside a
        #: grace period can still read the entry's pointer safely.
        self._retired_entries: Deque[Tuple[int, int]] = deque()
        self._closed = False

        # --- global compaction state (sections 5, 6) ---
        self.compactor: Optional["Compactor"] = None
        self.next_relocation_epoch: Optional[int] = None
        self.in_moving_phase = False

        #: Process-pool executor for scatter-gather scans, if one was
        #: attached (``repro.query.procexec.ProcessScanPool``); consulted
        #: by the vectorised engine when routing parallel queries.
        self.exec_pool = None

        if _san.SANITIZER is not None:
            _san.SANITIZER.event("manager.created", manager=self)

    # ------------------------------------------------------------------
    # Type & context registry
    # ------------------------------------------------------------------

    def type_id_for(self, type_name: str) -> int:
        """Intern *type_name*, returning its stable numeric type id."""
        type_id = self._type_ids.get(type_name)
        if type_id is None:
            type_id = len(self._type_ids) + 1
            self._type_ids[type_name] = type_id
        return type_id

    def _register_context(self, context: MemoryContext) -> int:
        self._contexts.append(context)
        return len(self._contexts) - 1

    def create_context(self, slot_size: int, type_name: str) -> MemoryContext:
        """Create a private memory context for one collection."""
        self._ensure_open()
        return MemoryContext(
            self, self.type_id_for(type_name), slot_size, name=type_name
        )

    def context_by_id(self, context_id: int) -> MemoryContext:
        return self._contexts[context_id]

    # ------------------------------------------------------------------
    # Block pool ("unmanaged heap")
    # ------------------------------------------------------------------

    def _acquire_block(self, context: MemoryContext) -> Block:
        if context.block_class.kind == KIND_ROW:  # the only kind pooled
            with self._pool_lock:
                pool = self._pool.get(context.slot_size)
                block = pool.pop() if pool else None
            if block is not None:
                block.reset(context)
                self.stats.blocks_pooled += 1
                return block
        self.stats.blocks_allocated += 1
        block = context.block_class.create(self.space, context)
        if self.pager is not None:
            self.pager.track(block)
        return block

    def adopt_block(self, context: MemoryContext, block_id: int, segment):
        """Map a data-block image into *context* at its stored block id.

        The snapshot loader's counterpart of :meth:`_acquire_block`: the
        bytes in *segment* are the block, so nothing is initialised —
        counters are recounted from the slot directory — and under a
        memory budget the block joins the pager's clock at once, which
        evicts as the load goes so it never holds more than the budget
        plus this one block hot.
        """
        block = context.block_class.adopt(self.space, block_id, segment, context)
        self.stats.blocks_allocated += 1
        context.adopt_block(block)
        if self.pager is not None:
            self.pager.track(block)
            if self.pager.over_budget():
                self.pager.maintain()
        return block

    def attach_block(self, block_id: int, segment) -> Block:
        """Bind the data block whose image *segment* maps, where the
        image's owner lives in another address space (a scan worker
        attaching what its parent mapped after the fork).

        Write-free.  The header names the hosting context, the context
        fixes class and geometry, and a header that does not fit them
        raises :class:`ValueError`.  The block belongs to no context's
        block list and no pager: it is a reader's view.
        """
        context_id = _HEADER_STRUCT.unpack_from(segment.buf, 0)[1]
        if not 0 <= context_id < len(self._contexts):
            raise ValueError(
                f"block {block_id}: header names unknown context {context_id}"
            )
        context = self._contexts[context_id]
        return context.block_class(self.space, block_id, segment, context)

    def _release_block(self, block) -> None:
        """Return an emptied block to the pool for reuse by any type.

        Only row blocks are pooled; columnar blocks release their address
        range immediately.  Under a memory budget nothing is pooled: a
        pooled block would hold hot bytes invisible to the pager's
        accounting, so paged managers release buffers (and the block's
        tier region, if any) outright.
        """
        if self.pager is not None:
            self.pager.untrack(block)
            block.release()
            return
        if block.kind != KIND_ROW:
            block.release()
            return
        with self._pool_lock:
            self._pool.setdefault(block.slot_size, []).append(block)

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------

    def allocate_object(
        self, context: MemoryContext, defer_publish: bool = False
    ) -> Tuple[Block, int, Ref]:
        """Allocate a slot in *context*; returns ``(block, slot, ref)``.

        The slot's data (beyond the slot header) is left untouched; the
        collection layer writes the object's fields through its layout.
        With ``defer_publish`` the slot stays unpublished (not VALID) and
        the caller must call ``context.commit_slot(block, slot)`` once the
        object is fully constructed — the paper's Add sequence: allocate,
        run the constructor, then add to the collection (section 2).
        """
        if self._closed:
            self._ensure_open()
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("alloc.start", manager=self, context=context.name)
        if self._retired_entries:
            self._drain_retired_entries()
        block, slot = context.allocate_slot()
        address = block.slot_address(slot)
        entry = self.table.allocate(address)
        block.backptrs[slot] = entry
        if not defer_publish:
            context.commit_slot(block, slot)
        self.stats.allocations += 1
        inc = self.table.incarnation(entry)
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("alloc.publish", manager=self, entry=entry, slot=slot)
        return block, slot, Ref(self, entry, inc)

    def free_object(self, ref: Ref) -> None:
        """End the referenced object's lifetime.

        Increments both the indirection entry's and the slot header's
        incarnation counters (so indirect references *and* direct in-row
        pointers turn null), moves the slot to limbo and recycles the
        indirection entry.  Raises :class:`NullReferenceError` if the
        object was already removed.
        """
        self._ensure_open()
        table = self.table
        entry = ref.entry
        word = table.incarnation_word(entry)
        if (word & INC_MASK) != (ref.inc & INC_MASK):
            raise NullReferenceError(
                f"object behind entry {entry} was already removed"
            )
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("free.validated", manager=self, entry=entry)
        # Free must CAS (section 5.1 footnote): a scheduled relocation
        # carries FROZEN and a mover holds LOCKED while it copies, so
        # claiming the increment with a CAS on the flag-free word excludes
        # the relocation machinery — either the relocation is bailed out
        # here (and the compactor cancels the now-stale item under its
        # lock) or it completes first, in which case the address read
        # below already names the object's final location.
        while True:
            if word & FROZEN:
                if self.compactor is not None:
                    self.compactor.bail_out_relocation(entry)
                else:
                    table.clear_flags(entry, FROZEN)  # stale freeze bit
                word = table.incarnation_word(entry)
                continue
            if word & LOCKED:
                word = table.spin_while_locked(entry)
                continue
            counter = (word & INC_MASK) + 1
            if counter > INC_MASK:
                raise IncarnationOverflowError(f"entry {entry} overflowed")
            if table.cas_inc(entry, word, (word & FLAG_MASK) | counter):
                break
            word = table.incarnation_word(entry)
        address = table.address_of(entry)
        block: Block = self.space.block_at(address)  # type: ignore[assignment]
        slot = block.slot_of_address(address)
        if self.pager is not None:
            # The slot-header and directory writes below need a writable
            # buffer; promotion also cancels any in-flight cooling so the
            # demotion grace argument covers this free.
            self.pager.ensure_hot(block)
        # Slot-header incarnation protects direct pointers (section 6).
        block.slot_incs[slot] = (block.slot_incs.item(slot) + 1) & 0xFFFFFFFF
        # The entry's pointer stays intact: a concurrent reader that passed
        # the incarnation check at the start of its grace period may still
        # follow it, and the slot itself is limbo-protected (section 3.4).
        # The entry becomes recyclable two epochs from now.
        self._retired_entries.append((self.epochs.global_epoch + 2, entry))

        context = self._contexts[block.context_id]
        context.free_slot(block, slot)
        self.stats.frees += 1
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("free.done", manager=self, entry=entry, slot=slot)

    def live_ref(
        self, entry: int, context: Optional[MemoryContext] = None
    ) -> Optional[Ref]:
        """A reference to the live object behind *entry*, or ``None``.

        For callers holding a bare entry id (a log record, a client
        request) instead of a :class:`Ref`.  The entry must point at a
        VALID slot whose back-pointer names it — a freed entry keeps its
        pointer until its grace period ends, so a non-null pointer alone
        proves nothing — and, if given, the slot must be *context*'s.
        """
        table = self.table
        if not 0 <= entry < table.size:
            return None
        address = table.address_of(entry)
        block = None if address == NULL_ADDRESS else self.space.try_block_at(address)
        if not hasattr(block, "backptrs"):
            return None
        slot = block.slot_of_address(address)
        if (
            not 0 <= slot < block.slot_count
            or block.state_of(slot) != VALID
            or block.backptrs.item(slot) != entry
            or (context is not None and block.context_id != context.context_id)
        ):
            return None
        return Ref(self, entry, table.incarnation(entry))

    def _drain_retired_entries(self) -> None:
        """Recycle indirection entries whose safety epoch has passed."""
        retired = self._retired_entries
        epoch = self.epochs.global_epoch
        while retired:
            try:
                ready, entry = retired[0]
            except IndexError:  # pragma: no cover - concurrent drain
                return
            if ready > epoch:
                return
            try:
                item = retired.popleft()
            except IndexError:  # pragma: no cover - concurrent drain
                return
            if item[0] > epoch:  # raced with another drainer; put it back
                retired.appendleft(item)
                return
            self.table.set_address(item[1], NULL_ADDRESS)
            self.table.release(item[1])

    def recycle_freed_entries(self) -> None:
        """Recycle every freed entry now, without its grace period: only
        for a manager no reader can be inside (log replay)."""
        retired = self._retired_entries
        while retired:
            entry = retired.popleft()[1]
            self.table.set_address(entry, NULL_ADDRESS)
            self.table.release(entry)

    # ------------------------------------------------------------------
    # Dereference slow path (frozen incarnations, section 5.1)
    # ------------------------------------------------------------------

    def _deref_frozen(self, entry: int, ref_inc: int) -> int:
        compactor = self.compactor
        if compactor is None:
            # No compactor is running: the flags are stale or we raced with
            # a free; wait for the lock to clear and re-validate.
            word = self.table.spin_while_locked(entry)
            if (word & INC_MASK) != (ref_inc & INC_MASK):
                raise NullReferenceError(f"entry {entry} became null")
            return self.table.address_of(entry)

        local_epoch = self.epochs.local_epoch()
        if (
            self.next_relocation_epoch is None
            or local_epoch != self.next_relocation_epoch
        ):
            # Case (a): freezing epoch — no relocation yet this epoch.
            return self.table.address_of(entry)
        if not self.in_moving_phase:
            # Case (b): waiting phase — bail the relocation out.
            compactor.bail_out_relocation(entry)
            return self.table.address_of(entry)
        # Case (c): moving phase — help relocate, then proceed.
        compactor.help_relocation(entry)
        return self.table.address_of(entry)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def critical_section(self):
        """Enter/exit a grace period (see :class:`EpochManager`)."""
        return self.epochs.critical_section()

    def advance_epoch(self) -> bool:
        advanced = self.epochs.try_advance()
        if advanced:
            self.stats.epoch_advances += 1
        return advanced

    def total_bytes(self) -> int:
        """Bytes currently mapped by all live blocks (data + strings)."""
        return self.space.total_bytes

    def describe(self) -> str:
        """Human-readable report of the memory system's current state."""
        lines = [
            f"MemoryManager: {self.space.live_block_count} live blocks, "
            f"{self.total_bytes() / 2**20:.1f} MiB mapped, "
            f"global epoch {self.epochs.global_epoch}",
            f"  indirection table: {self.table.size} entries "
            f"({self.table.free_count} free, {self.table.retired_count} retired)",
            f"  string heap: {self.strings.block_count} blocks, "
            f"{self.strings.bytes_in_use} bytes in use"
            + (
                f", {sum(d.live_count for d in dicts)} interned "
                f"across {len(dicts)} dictionaries"
                if (
                    dicts := {
                        id(sd): sd
                        for c in getattr(self, "collections", {}).values()
                        if (sd := c.strdict) is not None
                    }.values()
                )
                else ""
            ),
            *(
                [
                    f"  tier: {t['hot_blocks']} hot / {t['cooling_blocks']} "
                    f"cooling / {t['cold_blocks']} cold blocks, budget "
                    f"{t['budget_bytes'] / 2**20:.1f} MiB, "
                    f"{t['faults']} write faults, {t['evictions']} evictions, "
                    f"{t['spills']} spills, {t['cold_reads']} cold block reads"
                ]
                if (t := self.pager.telemetry() if self.pager else None)
                else []
            ),
            f"  stats: {self.stats.allocations} allocs, {self.stats.frees} "
            f"frees, {self.stats.limbo_reuses} limbo reuses, "
            f"{self.stats.blocks_recycled} blocks recycled, "
            f"{self.stats.compactions} compactions "
            f"({self.stats.relocations} relocations)",
        ]
        for context in self._contexts:
            blocks = context.blocks()
            capacity = sum(b.slot_count for b in blocks)
            occupancy = context.live_count / capacity if capacity else 0.0
            limbo = sum(b.limbo_count for b in blocks)
            lines.append(
                f"  context {context.name}: {context.live_count} live / "
                f"{capacity} slots ({occupancy:.0%}) in {len(blocks)} "
                f"blocks, {limbo} limbo, queue {context.reclaim_queue_length}"
            )
        return "\n".join(lines)

    def telemetry(self) -> Dict[str, object]:
        """Structured snapshot of the memory system's state.

        This is the machine-readable twin of :meth:`describe`; the service
        metrics registry and ``repro info`` both read it, so the shape is
        part of the observable surface: top-level scalars plus a
        ``contexts`` list and a ``string_dicts`` map.
        """
        contexts = []
        residency = (
            self.pager.residency_by_context() if self.pager is not None else {}
        )
        for context in self._contexts:
            blocks = context.blocks()
            capacity = sum(b.slot_count for b in blocks)
            limbo = sum(b.limbo_count for b in blocks)
            entry = {
                "name": context.name,
                "live": context.live_count,
                "capacity": capacity,
                "blocks": len(blocks),
                "limbo": limbo,
                "limbo_fraction": (limbo / capacity) if capacity else 0.0,
                "reclaim_queue": context.reclaim_queue_length,
                **context.nav.telemetry(),
            }
            if self.pager is not None:
                tiers = residency.get(context.context_id, {"hot": 0, "cold": 0})
                entry["hot_blocks"] = tiers["hot"]
                entry["cold_blocks"] = tiers["cold"]
                entry["tier_bytes"] = tiers["cold"] * self.space.block_size
            contexts.append(entry)
        string_dicts = {}
        for name, coll in getattr(self, "collections", {}).items():
            if coll.strdict is not None:
                string_dicts[name] = coll.strdict.live_count
        stats = self.stats
        counters = {
            "allocations": stats.allocations,
            "frees": stats.frees,
            "limbo_reuses": stats.limbo_reuses,
            "blocks_allocated": stats.blocks_allocated,
            "blocks_recycled": stats.blocks_recycled,
            "blocks_pooled": stats.blocks_pooled,
            "epoch_advances": stats.epoch_advances,
            "compactions": stats.compactions,
            "relocations": stats.relocations,
            "failed_relocations": stats.failed_relocations,
            "helped_relocations": stats.helped_relocations,
            "bailed_relocations": stats.bailed_relocations,
        }
        counters.update(stats.extra)
        tier = self.pager.telemetry() if self.pager is not None else None
        return {
            "tier": tier,
            "global_epoch": self.epochs.global_epoch,
            "min_active_epoch": self.epochs.min_active_epoch(),
            "live_blocks": self.space.live_block_count,
            "mapped_bytes": self.total_bytes(),
            "table_entries": self.table.size,
            "table_free": self.table.free_count,
            "string_heap_blocks": self.strings.block_count,
            "string_heap_bytes": self.strings.bytes_in_use,
            "contexts": contexts,
            "string_dicts": string_dicts,
            "counters": counters,
        }

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConcurrencyProtocolError("memory manager is closed")

    def close(self) -> None:
        """Release every context, pooled block and string block."""
        if self._closed:
            return
        pool = self.exec_pool
        if pool is not None:
            self.exec_pool = None
            pool.shutdown()
        for context in self._contexts:
            context.close()
        with self._pool_lock:
            pooled = [blk for blks in self._pool.values() for blk in blks]
            self._pool.clear()
        for block in pooled:
            block.release()
        self.strings.close()
        if self.pager is not None:
            self.pager.close()
        # With shared buffers this unlinks every remaining segment (and
        # with tiered buffers, the tier file); zero orphan /dev/shm/smc_*
        # and smc_tier_* files is part of the contract.
        self.space.buffers.close()
        self._closed = True

    def __enter__(self) -> "MemoryManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
