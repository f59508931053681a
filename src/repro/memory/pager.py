"""Memory tiering: file-backed cold blocks under a byte budget.

The paper's collections manage their own memory so queries dominate; this
module removes the remaining assumption that every block fits in RAM.  A
:class:`Pager` attached to a :class:`~repro.memory.manager.MemoryManager`
keeps the *writable* part of the block pool — the layout-bearing row and
columnar blocks of every collection — under a byte budget by demoting
cold blocks to a *tier file* and mapping them back read-only:

* **hot** — the block owns a writable buffer from the space's inner
  allocation policy (process heap or named shared memory); the only
  state in which writes are possible.
* **cooling** — chosen for demotion at epoch ``e``; still hot bytes.
  Demotion completes only once the global epoch reaches ``e + 2``, the
  same two-epoch grace the limbo/reclamation machinery trusts: a writer
  inside a critical section entered at ``s <= e`` pins the global epoch
  at ``s + 1 < e + 2``, so no write that validated residency before the
  cooling decision can still be in flight when the buffer is swapped.
  Every write path calls :meth:`Pager.ensure_hot` inside its critical
  section, which cancels an in-progress cooling under the pager lock.
* **cold** — ``block.buf`` is a read-only mmap of the block's region in
  the tier file.  All *read* paths work unchanged over the mapping
  (NumPy views come out non-writable; a stray write raises instead of
  corrupting the spilled image).  A cold block's ``zone_version`` is
  frozen — writes promote first — so the zone map built at demotion
  answers pruning with **zero cold byte reads**.

Residency is a *write* concern.  Readers — serial and thread scans,
index lookups, handle reads, process-pool workers, checkpoints — use
whatever buffer a block has and never change its state: a scan reads a
cold block where it lies, through the mapping, and the page cache decides
which of those clean pages stay in RAM.  ``cold -> hot`` happens only
from :meth:`Pager.ensure_hot` (writers) and :meth:`Pager.pin`;
:meth:`Pager.touch`, the scan-admission hook, only counts.  So the budget
bounds writable anonymous memory, not the bytes a query may look at.

Why a reader of a cold mapping is safe against a writer: the reader holds
its views only inside an epoch critical section entered at ``s``.  A
writer may fault the block and write the *new* hot buffer; the reader
keeps the pre-write image (bag semantics, as if it had scanned the block
first) and the replaced mapping stays alive on ``TierStore._zombies``
until those views die.  The only thing that could change the bytes under
the reader is a re-demotion spilling over the same tier region, and that
needs the global epoch at ``cool_epoch + 2 >= s + 2``, which the reader's
open section forbids.

Replacement is Clock-style and keyed on writes: :meth:`Pager.ensure_hot`
bumps a per-block reference counter; the sweep hand halves counters as it
passes and demotes the first unpinned, non-active, non-compacting block
whose counter reached zero — the block least recently *written*.
Dirty blocks are spilled (written) to the tier file before demotion;
blocks whose spilled image is still current are demoted without a
write.  Freed tier regions are recycled only two epochs after the free,
so worker processes that mapped them (``repro.query.procexec``) never
observe a rewrite under a live mapping.

:class:`TieredBuffers` is the buffer-policy companion to
``repro.memory.shm``'s ``HeapBuffers``/``SharedBuffers``: it delegates
hot-segment allocation to an inner policy and owns the tier file, so
the same address space serves shared-memory hot blocks to forked
workers while cold blocks travel by ``(tier file, offset)`` coordinates
instead of segment names.
"""

from __future__ import annotations

import atexit
import contextlib
import mmap
import os
import tempfile
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.memory import zonemap
from repro.memory.shm import HeapBuffers
from repro.sanitizer import hooks as _san

#: Tier files are created as ``smc_tier_<pid>_*`` in the temp directory;
#: like ``/dev/shm/smc_*``, zero leftovers after close is part of the
#: contract the CI leak checks sweep.
TIER_PREFIX = "smc_tier_"

#: Cap on the Clock reference counter; keeps one hot streak from making a
#: block unevictable for many sweep revolutions.
CLOCK_CAP = 8


def _align_up(n: int, a: int) -> int:
    return n + (-n % a)


class ColdSegment:
    """A read-only mapping of one tier-file region (segment protocol).

    Stands in for a ``HeapSegment``/``SharedSegment`` as ``block.segment``
    while the block is cold.  It has no attachable ``name``: worker
    processes reach the same bytes through their own mapping of the tier
    file (:meth:`TierStore.map_region`), addressed by file offset.
    """

    __slots__ = ("_store", "offset", "length", "_map", "buf")

    #: Cold segments are not attachable by segment name.
    name: Optional[str] = None

    def __init__(self, store: "TierStore", offset: int, length: int, mm) -> None:
        self._store = store
        self.offset = offset
        self.length = length
        self._map = mm
        self.buf = memoryview(mm)

    def release(self) -> None:
        self.buf = None  # type: ignore[assignment]
        self._store._unmap(self._map)
        self._map = None


class TierStore:
    """The cold store: one append-ish file of block-sized spill regions.

    Regions are aligned to ``mmap.ALLOCATIONGRANULARITY`` so each cold
    block can be mapped independently with a file offset.  The file is
    created lazily on the first spill and unlinked at close; a forked
    worker inherits the open file descriptor (file offsets are the wire
    format of the process-executor's cold-block entries), but only the
    creating process ever writes, frees or unlinks.
    """

    def __init__(self, region_size: int) -> None:
        self.region_size = _align_up(max(1, region_size), mmap.ALLOCATIONGRANULARITY)
        self.path: Optional[str] = None
        self._fd: Optional[int] = None
        self._next = 0
        self._free: List[int] = []
        self._lock = threading.Lock()
        #: Mappings whose close() hit BufferError: a reader still holds
        #: NumPy views of a cold image a writer has since faulted hot.
        #: Retried by :meth:`retry_zombies` (every ``Pager.maintain``).
        self._zombies: List[object] = []
        self._closed = False
        self._pid = os.getpid()
        atexit.register(self._atexit)

    # -- regions -------------------------------------------------------

    def _ensure_file(self) -> int:
        with self._lock:
            if self._closed:
                raise ValueError("tier store is closed")
            if self._fd is None:
                fd, path = tempfile.mkstemp(prefix=f"{TIER_PREFIX}{self._pid}_", suffix=".dat")
                self._fd = fd
                self.path = path
            return self._fd

    def spill(self, data, offset: int = -1) -> int:
        """Write one block image (any bytes-like object) to *offset* (or
        a fresh region); returns the region offset."""
        if len(data) > self.region_size:
            raise ValueError("block image exceeds tier region size")
        fd = self._ensure_file()
        if offset < 0:
            with self._lock:
                if self._free:
                    offset = self._free.pop()
                else:
                    offset = self._next
                    self._next += self.region_size
        os.pwrite(fd, data, offset)
        return offset

    def map_region(self, offset: int, length: int) -> ColdSegment:
        """Map ``[offset, offset+length)`` read-only (owner or worker)."""
        fd = self._ensure_file()
        mm = mmap.mmap(fd, length, offset=offset, access=mmap.ACCESS_READ)
        return ColdSegment(self, offset, length, mm)

    def free_region(self, offset: int) -> None:
        with self._lock:
            if not self._closed:
                self._free.append(offset)

    def _unmap(self, mm) -> None:
        try:
            mm.close()
        except BufferError:
            with self._lock:
                self._zombies.append(mm)

    def retry_zombies(self) -> int:
        """Close every parked mapping whose views have died; returns how
        many are still exported (each pins one region of address space)."""
        if not self._zombies:
            return 0
        with self._lock:
            zombies, self._zombies = self._zombies, []
        alive = []
        for mm in zombies:
            try:
                mm.close()
            except BufferError:
                alive.append(mm)
        with self._lock:
            self._zombies.extend(alive)
            return len(self._zombies)

    # -- introspection -------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Bytes of tier file currently holding (or reserved for) images."""
        with self._lock:
            return self._next - len(self._free) * self.region_size

    @property
    def file_bytes(self) -> int:
        with self._lock:
            return self._next

    @property
    def zombie_count(self) -> int:
        """Replaced mappings still exported by some reader's views."""
        with self._lock:
            return len(self._zombies)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            fd, self._fd = self._fd, None
            path, self.path = self.path, None
            self._free.clear()
        self.retry_zombies()  # survivors: the kernel reclaims them at exit
        if fd is not None:
            os.close(fd)
        if path is not None:
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - already swept
                pass

    def _atexit(self) -> None:
        # Forked workers inherit this registration but must never unlink
        # the owner's tier file.
        if os.getpid() != self._pid:  # pragma: no cover - fork guard
            return
        self.close()


class TieredBuffers:
    """Buffer policy pairing an inner hot-segment policy with a tier store.

    Hot blocks get their buffers from *inner* (``HeapBuffers`` by
    default, ``SharedBuffers`` when the space must be fork-attachable);
    the pager spills and maps cold images through the tier store.  The
    store's region size is fixed lazily by the first spill, since block
    size belongs to the address space, not the policy.
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner if inner is not None else HeapBuffers()
        self._store: Optional[TierStore] = None
        self._store_lock = threading.Lock()

    @property
    def shared(self) -> bool:
        return self.inner.shared

    # -- hot segments (delegate) ---------------------------------------

    def create(self, size: int):
        return self.inner.create(size)

    def attach(self, name: str):
        return self.inner.attach(name)

    # -- cold store ----------------------------------------------------

    def store_for(self, region_size: int) -> TierStore:
        with self._store_lock:
            if self._store is None:
                self._store = TierStore(region_size)
            return self._store

    @property
    def store(self) -> Optional[TierStore]:
        return self._store

    @property
    def tier_path(self) -> Optional[str]:
        store = self._store
        return store.path if store is not None else None

    def close(self) -> None:
        store = self._store
        if store is not None:
            store.close()
        self.inner.close()


class Pager:
    """Budget-driven block pager over one manager's address space.

    All state transitions run under one lock; sanitizer events
    (``tier.cool`` / ``tier.evict`` / ``tier.fault``) are emitted after
    the lock is released so schedule gates can park threads between
    protocol steps without wedging the pager.
    """

    def __init__(self, manager, budget: int) -> None:
        space = manager.space
        buffers = space.buffers
        if not isinstance(buffers, TieredBuffers):
            raise ValueError("Pager requires the space to use TieredBuffers")
        self.manager = manager
        self.buffers = buffers
        self.block_size = space.block_size
        self.budget = max(int(budget), space.block_size)
        self._lock = threading.RLock()
        #: Clock list of tracked (pageable) blocks; hand index sweeps it.
        self._blocks: List[object] = []
        self._hand = 0
        self._cooling: List[object] = []
        self._cold_count = 0
        #: Freed tier regions awaiting their two-epoch grace:
        #: ``(ready_epoch, offset)`` in push order.
        self._retired_regions: Deque[Tuple[int, int]] = deque()
        #: While > 0, demotions are deferred (process-executor fan-outs
        #: hold this so hot segment names and tier regions stay stable
        #: for the duration of a scatter-gather query).
        self._hold = 0
        self._pid = os.getpid()
        #: Metrics hook: called with each fault's wall-clock seconds.
        self.fault_timer = None
        self.faults = 0
        self.evictions = 0
        self.spills = 0
        #: Scan admissions; none promotes.
        self.touch_hits = 0
        #: The lifetime counters also ride ``stats.extra`` (exported as
        #: ``smc_tier_*_total``); seeded so a series exists before its
        #: first event — a read-only pool never faults.
        self._extra = manager.stats.extra
        for key in (
            "tier_faults",
            "tier_evictions",
            "tier_spills",
            "tier_cold_block_reads",
        ):
            self._extra.setdefault(key, 0)

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------

    def track(self, block) -> None:
        """Register a freshly acquired pageable block with the clock."""
        if os.getpid() != self._pid:  # pragma: no cover - fork guard
            return
        with self._lock:
            self._blocks.append(block)

    def untrack(self, block) -> None:
        """Forget *block* (it is being released) and retire its region."""
        if os.getpid() != self._pid:  # pragma: no cover - fork guard
            return
        with self._lock:
            try:
                idx = self._blocks.index(block)
            except ValueError:
                idx = -1
            if idx >= 0:
                self._blocks.pop(idx)
                if idx < self._hand:
                    self._hand -= 1
            if block in self._cooling:
                self._cooling.remove(block)
            if block.residency == "cold":
                self._cold_count -= 1
            if block.tier_offset >= 0:
                self._retired_regions.append(
                    (self.manager.epochs.global_epoch + 2, block.tier_offset)
                )
                block.tier_offset = -1

    # ------------------------------------------------------------------
    # Pin / unpin
    # ------------------------------------------------------------------

    def pin(self, block) -> None:
        """Bar *block* from demotion until :meth:`unpin` (fault it first)."""
        events: List[tuple] = []
        with self._lock:
            if block.residency == "cooling":
                self._cancel_cooling(block)
            if block.residency == "cold":
                self._fault(block, events, "pin")
            block.pin_count += 1
        self._emit(events)

    def unpin(self, block) -> None:
        with self._lock:
            if block.pin_count <= 0:
                raise ValueError("unpin without matching pin")
            block.pin_count -= 1

    @contextlib.contextmanager
    def pinned(self, block):
        self.pin(block)
        try:
            yield block
        finally:
            self.unpin(block)

    @contextlib.contextmanager
    def hold(self):
        """Defer demotions for the duration (process-exec fan-outs)."""
        with self._lock:
            self._hold += 1
        try:
            yield
        finally:
            with self._lock:
                self._hold -= 1

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def touch(self, block) -> None:
        """Scan admission: count *block*, and whether it is read cold.

        Never changes residency — the scan reads the block through
        whatever buffer it has (see the module docstring for why that is
        safe inside the scan's critical section).  A no-op in a forked
        worker, which reads cold blocks through its own mappings.
        """
        if os.getpid() != self._pid:
            return
        with self._lock:
            self.touch_hits += 1
            if block.residency == "cold":
                self._extra["tier_cold_block_reads"] += 1

    def ensure_hot(self, block) -> None:
        """Make *block* writable; every write path calls this *inside its
        epoch critical section*, which is what makes the two-epoch cooling
        grace a proof that no writer still trusts a demoted buffer."""
        if os.getpid() != self._pid:  # pragma: no cover - workers never write
            return
        events: List[tuple] = []
        with self._lock:
            block.write_clock = min(block.write_clock + 1, CLOCK_CAP)
            if block.residency == "cooling":
                self._cancel_cooling(block)
            if block.residency == "cold":
                self._fault(block, events, "write")
            if block.tier_offset >= 0:
                # The spilled image is about to go stale.
                block.tier_dirty = True
        self._emit(events)

    # ------------------------------------------------------------------
    # Budget / maintenance
    # ------------------------------------------------------------------

    def over_budget(self) -> bool:
        return self.hot_bytes() > self.budget

    def maintain(self, max_rounds: int = 4) -> None:
        """Operation-boundary upkeep: finish cooling, evict down to budget,
        close replaced mappings whose readers have gone.

        Advances the global epoch (when no critical section blocks it) so
        pending demotions can cross their two-epoch grace; after this
        returns with no open sections and enough eligible victims,
        ``hot_bytes() <= budget`` holds.
        """
        if os.getpid() != self._pid:  # pragma: no cover - fork guard
            return
        events: List[tuple] = []
        store = self.buffers.store
        if store is not None:
            store.retry_zombies()
        for _ in range(max_rounds):
            with self._lock:
                self._drain_retired_regions()
                self._reclaim_ready(events)
                started = self._evict_for(0, events)
                self._reclaim_ready(events)
                done = (
                    not self._cooling
                    and (len(self._blocks) - self._cold_count) * self.block_size
                    <= self.budget
                )
            if done:
                break
            if not started and not self._cooling:
                break
            self.manager.advance_epoch()
            self.manager.advance_epoch()
        self._emit(events)

    # ------------------------------------------------------------------
    # Internals (lock held unless noted)
    # ------------------------------------------------------------------

    def _eligible(self, block) -> bool:
        return (
            block.residency == "hot"
            and block.pin_count == 0
            and not block.is_active
            and not block.compacting
            and block.compaction_group is None
            and not block.queued_for_reclaim
        )

    def _clock_next(self):
        blocks = self._blocks
        n = len(blocks)
        scanned = 0
        # A block written up to CLOCK_CAP times needs bit_length(CLOCK_CAP)
        # halvings before its counter reaches zero, plus one more visit to
        # be returned — bound the sweep so a victim is always found when
        # an eligible block exists, no matter how hot the pool ran.
        limit = (CLOCK_CAP.bit_length() + 1) * n
        while scanned < limit:
            if self._hand >= n:
                self._hand = 0
            block = blocks[self._hand]
            self._hand += 1
            scanned += 1
            if not self._eligible(block):
                continue
            if block.write_clock > 0:
                block.write_clock >>= 1  # second chance, aging
                continue
            return block
        return None

    def _start_cooling(self, block) -> None:
        block.residency = "cooling"
        block.cool_epoch = self.manager.epochs.global_epoch
        self._cooling.append(block)

    def _cancel_cooling(self, block) -> None:
        block.residency = "hot"
        block.cool_epoch = -1
        if block in self._cooling:
            self._cooling.remove(block)

    def _evict_for(self, extra: int, events: Optional[List[tuple]] = None) -> int:
        """Start cooling victims until projected hot bytes fit the budget.

        Returns the number of blocks newly put into cooling.  Projection
        counts in-flight coolings as already reclaimed; actual demotion
        happens in :meth:`_reclaim_ready` once the grace has passed.
        """
        bs = self.block_size
        hot = (len(self._blocks) - self._cold_count) * bs
        projected = hot - len(self._cooling) * bs
        started = 0
        while projected + extra > self.budget:
            victim = self._clock_next()
            if victim is None:
                break
            self._start_cooling(victim)
            if events is not None:
                events.append(
                    (
                        "tier.cool",
                        dict(
                            manager=self.manager,
                            block=victim,
                            cool_epoch=victim.cool_epoch,
                        ),
                    )
                )
            projected -= bs
            started += 1
        return started

    def _reclaim_ready(self, events: List[tuple]) -> None:
        """Demote every cooling block whose two-epoch grace has passed."""
        if self._hold or not self._cooling:
            return
        epoch = self.manager.epochs.global_epoch
        ripe = [
            b
            for b in self._cooling
            if b.residency == "cooling" and epoch >= b.cool_epoch + 2
        ]
        for block in ripe:
            # Re-verify under the lock: the block may have become an
            # allocator target or a compaction source since cooling began
            # (those paths cancel cooling, but be defensive about any
            # flag flipped without the pager's knowledge).
            if (
                block.pin_count
                or block.is_active
                or block.compacting
                or block.compaction_group is not None
                or block.queued_for_reclaim
            ):
                self._cancel_cooling(block)
                continue
            self._demote(block, events)

    def _demote(self, block, events: List[tuple]) -> None:
        manager = self.manager
        # Build (or revalidate) the zone map while the bytes are still
        # hot: the block's zone_version is frozen once cold (all writes
        # promote first), so pruning and planner statistics answer from
        # this retained map without touching a single cold byte.
        try:
            zonemap.ensure(manager, block)
        except Exception:  # pragma: no cover - statless contexts
            pass
        store = self.buffers.store_for(self.block_size)
        spilled = False
        if block.tier_offset < 0 or block.tier_dirty:
            block.tier_offset = store.spill(block.buf, block.tier_offset)
            self.spills += 1
            spilled = True
        old = block.segment
        block.rebind(store.map_region(block.tier_offset, self.block_size))
        block.residency = "cold"
        block.tier_dirty = False
        cool_epoch, block.cool_epoch = block.cool_epoch, -1
        block.write_clock = 0
        if block in self._cooling:
            self._cooling.remove(block)
        self._cold_count += 1
        self.evictions += 1
        self._extra["tier_evictions"] += 1
        if spilled:
            self._extra["tier_spills"] += 1
        old.release()
        events.append(
            (
                "tier.evict",
                # Flags are captured at demotion time (under the pager
                # lock): events are emitted after the lock is released,
                # when the block may legitimately have moved on.
                dict(
                    manager=manager,
                    block=block,
                    cool_epoch=cool_epoch,
                    epoch=manager.epochs.global_epoch,
                    pin_count=block.pin_count,
                    was_active=block.is_active,
                    was_compacting=bool(
                        block.compacting or block.compaction_group is not None
                    ),
                    was_queued=block.queued_for_reclaim,
                    was_dirty=spilled,
                ),
            )
        )

    def _fault(self, block, events: List[tuple], cause: str) -> None:
        """Promote a cold block back into a writable hot segment; *cause*
        is ``"write"`` or ``"pin"`` — reads never promote."""
        manager = self.manager
        start = time.perf_counter()
        # Make room first (evict-then-fault), completing any cooling
        # whose grace already passed so steady-state stays at budget.
        self._drain_retired_regions()
        self._reclaim_ready(events)
        self._evict_for(self.block_size, events)
        self._reclaim_ready(events)
        seg = self.buffers.create(self.block_size)
        seg.buf[: len(block.buf)] = block.buf
        old = block.segment
        block.rebind(seg)
        block.residency = "hot"
        block.tier_dirty = False  # image in the tier file is still current
        block.cool_epoch = -1
        self._cold_count -= 1
        self.faults += 1
        self._extra["tier_faults"] += 1
        old.release()
        elapsed = time.perf_counter() - start
        timer = self.fault_timer
        if timer is not None:
            timer(elapsed)
        events.append(
            (
                "tier.fault",
                dict(
                    manager=manager,
                    block=block,
                    residency=block.residency,
                    tier_offset=block.tier_offset,
                    pin_count=block.pin_count,
                    seconds=elapsed,
                    cause=cause,
                ),
            )
        )

    def _drain_retired_regions(self) -> None:
        store = self.buffers.store
        if store is None:
            return
        epoch = self.manager.epochs.global_epoch
        retired = self._retired_regions
        while retired and retired[0][0] <= epoch:
            __, offset = retired.popleft()
            store.free_region(offset)

    def _emit(self, events: List[tuple]) -> None:
        if _san.SANITIZER is None or not events:
            return
        for name, data in events:
            _san.SANITIZER.event(name, **data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def hot_bytes(self) -> int:
        with self._lock:
            return (len(self._blocks) - self._cold_count) * self.block_size

    def cold_bytes(self) -> int:
        with self._lock:
            return self._cold_count * self.block_size

    def residency_counts(self) -> Dict[str, int]:
        with self._lock:
            cooling = len(self._cooling)
            cold = self._cold_count
            hot = len(self._blocks) - cold - cooling
        return {"hot": hot, "cooling": cooling, "cold": cold}

    def residency_by_context(self) -> Dict[int, Dict[str, int]]:
        """Per-context residency: ``{context_id: {"hot": n, "cold": n}}``.

        Cooling blocks count as hot (their bytes still are).
        """
        out: Dict[int, Dict[str, int]] = {}
        with self._lock:
            for block in self._blocks:
                entry = out.setdefault(block.context_id, {"hot": 0, "cold": 0})
                entry["cold" if block.residency == "cold" else "hot"] += 1
        return out

    def telemetry(self) -> Dict[str, object]:
        store = self.buffers.store
        with self._lock:
            cold = self._cold_count
            cooling = len(self._cooling)
            total = len(self._blocks)
        return {
            "budget_bytes": self.budget,
            "hot_blocks": total - cold - cooling,
            "cooling_blocks": cooling,
            "cold_blocks": cold,
            "hot_bytes": (total - cold) * self.block_size,
            "cold_bytes": cold * self.block_size,
            "tier_file_bytes": store.file_bytes if store is not None else 0,
            "tier_path": store.path if store is not None else None,
            "faults": self.faults,
            "evictions": self.evictions,
            "spills": self.spills,
            "touch_hits": self.touch_hits,
            "cold_reads": self._extra["tier_cold_block_reads"],
            "zombie_mappings": store.zombie_count if store is not None else 0,
        }

    def close(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._cooling.clear()
            self._retired_regions.clear()
            self._cold_count = 0
