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


class EpochLease:
    """An epoch critical section held on behalf of an *external* client.

    Thread section contexts are keyed by ``threading.get_ident()``, which
    ties a critical section's lifetime to one thread's call stack.  A
    query *service*, however, serves a client session from whichever
    worker thread picks its request up, and the session may want to pin a
    snapshot (keep the epoch from advancing over its reads) across
    several requests.  A lease is a section context registered under a
    synthetic key: while entered, it pins epoch advancement exactly like
    an in-critical thread; unlike a thread it can be **revoked** by a
    watchdog when its owner goes silent, so a dead client can never wedge
    limbo reclamation.

    Enter/exit/revoke are serialised by the epoch registry lock — a
    watchdog revocation can race a worker thread touching the same lease.
    """

    __slots__ = ("_mgr", "key", "name", "revoked")

    def __init__(self, mgr: "EpochManager", key: int, name: str) -> None:
        self._mgr = mgr
        self.key = key
        self.name = name
        #: Set (only) by :meth:`revoke`; a revoked lease is permanently
        #: dead — enter() raises, exit() becomes a no-op.
        self.revoked = False

    def enter(self) -> int:
        """Enter the leased critical section; returns the lease epoch."""
        return self._mgr._lease_enter(self)

    def exit(self) -> None:
        self._mgr._lease_exit(self)

    def release(self) -> None:
        """Drop the lease entirely (exits any held section, unregisters)."""
        self._mgr._lease_release(self)

    def revoke(self) -> bool:
        """Forcibly expire the lease (watchdog path).

        Returns True if the lease was holding a critical section at the
        time — i.e. revocation actually unblocked epoch advancement.
        """
        return self._mgr._lease_revoke(self)

    @property
    def held(self) -> bool:
        ctx = self._mgr._lease_ctx(self.key)
        return ctx is not None and ctx.in_critical

    @property
    def epoch(self) -> Optional[int]:
        ctx = self._mgr._lease_ctx(self.key)
        return ctx.epoch if ctx is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "revoked" if self.revoked else ("held" if self.held else "idle")
        return f"<EpochLease {self.name or self.key} {state}>"


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
        #: Synthetic context keys for leases; negative so they can never
        #: collide with a real thread ident.
        self._next_lease_key = -1

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
    # Leases (externally-held critical sections)
    # ------------------------------------------------------------------

    def create_lease(self, name: str = "") -> EpochLease:
        """Register a new lease-backed section context.

        The context is keyed by a fresh negative integer so it can never
        collide with a real thread ident; ``try_advance`` /
        ``others_at_least`` treat it like any other registered context,
        which is exactly what makes a held lease pin the epoch.
        """
        with self._registry_lock:
            key = self._next_lease_key
            self._next_lease_key -= 1
            self._contexts[key] = SectionContext()
        lease = EpochLease(self, key, name)
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "lease.create", epochs=self, key=key, lease=name
            )
        return lease

    def _lease_ctx(self, key: int) -> Optional[SectionContext]:
        with self._registry_lock:
            return self._contexts.get(key)

    def _lease_enter(self, lease: EpochLease) -> int:
        with self._registry_lock:
            if lease.revoked:
                raise ConcurrencyProtocolError(
                    f"lease {lease.name or lease.key} has been revoked"
                )
            ctx = self._contexts.get(lease.key)
            if ctx is None:  # released concurrently
                raise ConcurrencyProtocolError(
                    f"lease {lease.name or lease.key} has been released"
                )
            if ctx.depth == 0:
                ctx.epoch = self._global_epoch
            ctx.depth += 1
            epoch = ctx.epoch
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "lease.enter", epochs=self, key=lease.key, epoch=epoch
            )
        return epoch

    def _lease_exit(self, lease: EpochLease) -> None:
        with self._registry_lock:
            # A watchdog revocation between enter and exit already forced
            # the section closed; the late exit must be a silent no-op.
            if lease.revoked:
                return
            ctx = self._contexts.get(lease.key)
            if ctx is None:
                return
            if ctx.depth == 0:
                raise ConcurrencyProtocolError(
                    f"lease {lease.name or lease.key}: exit without enter"
                )
            ctx.depth -= 1
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("lease.exit", epochs=self, key=lease.key)

    def _lease_release(self, lease: EpochLease) -> None:
        with self._registry_lock:
            self._contexts.pop(lease.key, None)
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("lease.release", epochs=self, key=lease.key)

    def _lease_revoke(self, lease: EpochLease) -> bool:
        with self._registry_lock:
            if lease.revoked:
                return False
            lease.revoked = True
            ctx = self._contexts.pop(lease.key, None)
            was_held = ctx is not None and ctx.in_critical
            if ctx is not None:
                ctx.depth = 0
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "lease.revoke", epochs=self, key=lease.key, was_held=was_held
            )
        return was_held

    def lease_count(self) -> int:
        """Number of registered (unrevoked, unreleased) leases."""
        with self._registry_lock:
            return sum(1 for key in self._contexts if key < 0)

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
