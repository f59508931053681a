"""Allocation policy helpers: reclamation queue and thread-local blocks.

Section 3.5 of the paper:

* all allocations are served from *thread-local* blocks, so only one
  thread allocates in a block at a time (removals may be concurrent);
* blocks whose limbo-slot fraction surpasses the *reclamation threshold*
  are appended to a per-type reclamation queue together with the earliest
  epoch at which they may be reclaimed (removal epoch + 2);
* when a thread needs a new block it first tries the reclamation queue,
  then falls back to fresh memory from the unmanaged heap;
* the allocation path attempts to advance the global epoch when the queue
  holds blocks that are not yet reclaimable.
"""

from __future__ import annotations

import threading
from threading import get_ident
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.block import Block


class ReclamationQueue:
    """FIFO of blocks waiting to have their limbo slots recycled."""

    def __init__(self) -> None:
        self._queue: Deque["Block"] = deque()
        self._lock = threading.Lock()

    def push(self, block: "Block", ready_epoch: int) -> None:
        """Enqueue *block*; it may be handed out at *ready_epoch*.

        Blocks some thread currently allocates into are refused: queueing
        one would let :meth:`pop_ready` hand it to a *second* allocator,
        breaking the one-thread-per-block allocation rule.  The check
        happens under the queue lock, the same lock under which
        :meth:`pop_ready` marks a block active, so the decision is
        race-free; a refused block is re-examined when its owner retires
        it (``MemoryContext._retire_active_block``).
        """
        with self._lock:
            if block.queued_for_reclaim or block.is_active or block.compacting:
                return
            block.queued_for_reclaim = True
            block.reclaim_ready_epoch = ready_epoch
            self._queue.append(block)

    def pop_ready(self, global_epoch: int) -> Optional["Block"]:
        """Dequeue the head block if its ready epoch has passed."""
        with self._lock:
            if not self._queue:
                return None
            head = self._queue[0]
            if head.reclaim_ready_epoch > global_epoch:
                return None
            if _san.SANITIZER is not None:
                # Inside the queue lock: a concurrent re-push cannot change
                # the ready epoch between the check and the event.
                _san.SANITIZER.event(
                    "block.recycled",
                    lock_held=True,
                    block=head,
                    ready=head.reclaim_ready_epoch,
                    epoch=global_epoch,
                )
            self._queue.popleft()
            head.queued_for_reclaim = False
            # Adopted by the calling thread while still under the queue
            # lock, so a concurrent push cannot re-queue it from here on.
            head.is_active = True
            return head

    def claim_for_compaction(self, block: "Block") -> bool:
        """Atomically take *block* out of allocation circulation.

        A compaction source must be owned exclusively by the compactor: if
        it stayed in the reclamation queue, :meth:`pop_ready` could hand it
        to an allocator that fills its limbo slots with new objects — which
        the compactor, unaware, would later scrub away with the emptied
        source.  Under the queue lock the block is dequeued (if queued) and
        flagged ``compacting``, which :meth:`push` refuses from then on.
        Returns False — reject the block as a source — if some thread
        already adopted it for allocation.
        """
        with self._lock:
            if block.is_active:
                return False
            if block.queued_for_reclaim:
                try:
                    self._queue.remove(block)
                except ValueError:
                    return False
                block.queued_for_reclaim = False
            block.compacting = True
            return True

    def has_blocked_head(self, global_epoch: int) -> bool:
        """True if the queue is non-empty but its head is not ready yet.

        This is the condition under which the allocation function attempts
        to advance the global epoch (section 3.5).
        """
        with self._lock:
            return bool(self._queue) and self._queue[0].reclaim_ready_epoch > global_epoch

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def drain(self) -> Deque["Block"]:
        with self._lock:
            drained = self._queue
            self._queue = deque()
            for block in drained:
                block.queued_for_reclaim = False
            return drained


class ThreadLocalBlocks:
    """Per-thread active allocation block for one memory context."""

    def __init__(self) -> None:
        self._by_thread: Dict[int, "Block"] = {}
        self._lock = threading.Lock()

    def get(self) -> Optional["Block"]:
        return self._by_thread.get(get_ident())

    def set(self, block: Optional["Block"]) -> None:
        tid = get_ident()
        with self._lock:
            if block is None:
                self._by_thread.pop(tid, None)
            else:
                self._by_thread[tid] = block

    def values(self):
        with self._lock:
            return list(self._by_thread.values())

    def clear(self) -> None:
        with self._lock:
            self._by_thread.clear()
