"""Epoch-based memory reclamation (paper section 3.4).

Threads access self-managed objects inside *critical sections* (grace
periods).  Each thread has a section context holding its thread-local epoch
and an in-critical flag; a global epoch counter advances only when every
thread currently inside a critical section has caught up to it.  Memory
freed in global epoch ``e`` is safe to reclaim in epoch ``e + 2``: by then
no thread can still be inside a critical section begun in epoch ``e``.

Differences from classic epoch reclamation, following the paper:

* the global epoch is a continuous counter, not modulo-3;
* the epoch is advanced lazily from the allocation path (and by the
  compactor), not on critical-section exit;
* critical sections span large units of work (a whole query or one memory
  block) to amortise their cost.

The paper inserts CPU memory fences around the section-context updates.  In
CPython the GIL serialises byte-code execution and provides the equivalent
ordering guarantees, so no explicit fence is required; the protocol logic
is otherwise identical.
"""

from __future__ import annotations

import threading
from threading import get_ident
from typing import Dict, Iterator, Optional

from repro.errors import ConcurrencyProtocolError
from repro.sanitizer import hooks as _san


class SectionContext:
    """Per-thread critical-section state (``sectionCtx`` in the paper)."""

    __slots__ = ("epoch", "depth")

    def __init__(self) -> None:
        self.epoch = 0
        #: Nesting depth; > 0 means the thread is inside a critical section.
        self.depth = 0

    @property
    def in_critical(self) -> bool:
        return self.depth > 0


class EpochManager:
    """Global epoch counter plus the per-thread section contexts."""

    def __init__(self) -> None:
        self._global_epoch = 0
        self._contexts: Dict[int, SectionContext] = {}
        self._registry_lock = threading.Lock()
        self._advance_lock = threading.Lock()
        #: When set, only this thread id may advance the global epoch.  Used
        #: by the compactor: once a relocation epoch is scheduled, no other
        #: thread may advance until compaction finishes (section 5.1).
        self._advance_restricted_to: Optional[int] = None

    # ------------------------------------------------------------------
    # Thread registration
    # ------------------------------------------------------------------

    def _context(self) -> SectionContext:
        tid = threading.get_ident()
        ctx = self._contexts.get(tid)
        if ctx is None:
            ctx = SectionContext()
            with self._registry_lock:
                self._contexts[tid] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Critical sections
    # ------------------------------------------------------------------

    def enter_critical_section(self) -> int:
        """Enter a critical section; returns the thread-local epoch.

        Nested enters are permitted (depth-counted); only the outermost
        enter refreshes the thread-local epoch, so a nested section never
        observes a newer epoch than its enclosing one.
        """
        # The hottest call in the runtime: the registry lookup is inlined.
        ctx = self._contexts.get(get_ident()) or self._context()
        if ctx.depth:
            ctx.depth += 1
            return ctx.epoch
        # Announce, then read.  Until the read lands, ``ctx.epoch`` still
        # holds the previous section's epoch, which is never above the
        # global one: ``try_advance`` sees this thread as behind (and
        # waits) or current, never as absent, so the epoch it then reads
        # is at most one behind the global epoch for the whole section.
        ctx.depth = 1
        ctx.epoch = self._global_epoch
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("section.enter", epochs=self, epoch=ctx.epoch)
        return ctx.epoch

    def exit_critical_section(self) -> None:
        ctx = self._contexts.get(get_ident())
        if ctx is None or ctx.depth == 0:
            raise ConcurrencyProtocolError(
                "exit_critical_section without matching enter"
            )
        if ctx.depth == 1 and _san.SANITIZER is not None:
            # The event fires while the section is still held, so the
            # sanitizer reads the global epoch the section ended under.
            try:
                _san.SANITIZER.event(
                    "section.exit", epochs=self, epoch=ctx.epoch
                )
            finally:
                ctx.depth = 0
            return
        ctx.depth -= 1

    class _Critical:
        __slots__ = ("_mgr",)

        def __init__(self, mgr: "EpochManager") -> None:
            self._mgr = mgr

        def __enter__(self) -> int:
            return self._mgr.enter_critical_section()

        def __exit__(self, *exc) -> None:
            self._mgr.exit_critical_section()

    def critical_section(self) -> "_Critical":
        """Context manager wrapping enter/exit of a critical section."""
        return self._Critical(self)

    # ------------------------------------------------------------------
    # Epoch advancement
    # ------------------------------------------------------------------

    @property
    def global_epoch(self) -> int:
        return self._global_epoch

    def local_epoch(self) -> int:
        """The calling thread's thread-local epoch."""
        return self._context().epoch

    def in_critical(self) -> bool:
        return self._context().in_critical

    def try_advance(self) -> bool:
        """Advance the global epoch if every in-critical thread caught up.

        A thread may increment the global epoch from ``e`` to ``e + 1`` if
        all threads currently inside critical sections have thread-local
        epoch ``e`` (the paper's rule: threads can only be in ``e`` or
        ``e - 1``; advancing requires nobody left in ``e - 1``).
        """
        me = threading.get_ident()
        with self._advance_lock:
            restricted = self._advance_restricted_to
            if restricted is not None and restricted != me:
                return False
            current = self._global_epoch
            with self._registry_lock:
                for tid, ctx in self._contexts.items():
                    if tid == me:
                        continue
                    if ctx.in_critical and ctx.epoch < current:
                        return False
            self._global_epoch = current + 1
            if _san.SANITIZER is not None:
                _san.SANITIZER.event(
                    "epoch.advance",
                    lock_held=True,
                    epochs=self,
                    old=current,
                    new=current + 1,
                )
            return True

    def restrict_advancement(self, thread_id: Optional[int]) -> None:
        """Reserve (or release, with ``None``) epoch advancement for a thread."""
        with self._advance_lock:
            if thread_id is not None and self._advance_restricted_to is not None:
                raise ConcurrencyProtocolError(
                    "epoch advancement already restricted"
                )
            self._advance_restricted_to = thread_id

    def others_at_least(self, epoch: int) -> bool:
        """True if every *other* in-critical thread has reached *epoch*.

        The compactor uses this to detect that all threads entered the
        freezing / relocation epoch (section 5.1).
        """
        me = threading.get_ident()
        with self._registry_lock:
            for tid, ctx in self._contexts.items():
                if tid == me:
                    continue
                if ctx.in_critical and ctx.epoch < epoch:
                    return False
        return True

    def min_active_epoch(self) -> int:
        """Smallest thread-local epoch among in-critical threads.

        Returns the current global epoch when no thread is in a critical
        section; used by tests and diagnostics.
        """
        with self._registry_lock:
            epochs = [
                ctx.epoch for ctx in self._contexts.values() if ctx.in_critical
            ]
        if not epochs:
            return self._global_epoch
        return min(epochs)

    def contexts_snapshot(self) -> Iterator[tuple]:
        """(tid, epoch, depth) triples — diagnostics only."""
        with self._registry_lock:
            items = list(self._contexts.items())
        return ((tid, ctx.epoch, ctx.depth) for tid, ctx in items)
