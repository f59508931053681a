"""Buffer allocation policies: process-heap vs named shared memory.

Every block in the system — row blocks, columnar blocks, string blocks —
owns exactly one flat buffer.  Historically that buffer was a
``bytearray``; this module abstracts the allocation behind a *buffer
policy* attached to the :class:`~repro.memory.addressing.AddressSpace`
so the same header/directory/back-pointer layout can live either on the
process heap (:class:`HeapBuffers`, the default) or in named
``multiprocessing.shared_memory`` segments (:class:`SharedBuffers`,
selected with ``MemoryManager(shm=True)``, which ``serve
--exec-workers`` implies).

Shared segments are what make multi-process scatter-gather execution
possible: a worker process that inherited the address space via ``fork``
keeps reading the *live* bytes of every block through the inherited
mappings, and can attach blocks mapped after the fork by segment name
(see ``repro.query.procexec``).

Segment contract (documented in ``docs/parallel_execution.md``):

* names are ``smc_<pid>_<uid>_<serial>`` — the ``smc_`` prefix is the
  namespace the leak checks sweep (``/dev/shm/smc_*`` must be empty
  after every run), ``pid``/``uid`` isolate concurrent processes and
  ``serial`` is a per-space monotonic counter;
* the **creating** process owns the name: it unlinks on free/close;
  attachers only ever map and unmap;
* a segment's *name* may be unlinked while workers still scan it — a
  POSIX mapping survives unlink — but its *bytes* may only be reused
  for a new object two epochs after the free — and a process-pool scan
  holds the parent's critical section until every worker it sent the
  query to has answered or been reaped
  (:mod:`repro.query.procexec`).

Python's ``multiprocessing.resource_tracker`` would unlink every
segment at interpreter exit (and spam warnings about ones we already
unlinked), so each create/attach is immediately unregistered from it:
the address space owns the lifecycle, with an ``atexit`` safety net for
crashed tests.  ``multiprocessing.shared_memory`` itself is imported by
:class:`SharedBuffers` only, so a process that never asks for shared
buffers never loads it.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from typing import Dict, List, Optional

#: Prefix shared by every segment this process creates; the CI leak check
#: asserts ``/dev/shm`` holds no file starting with this after a run.
SEGMENT_PREFIX = "smc_"


def _untrack(shm) -> None:
    """Remove an *attached* segment from the resource tracker's list.

    On Python < 3.13 (no ``SharedMemory(track=False)``) merely attaching
    a segment registers it with the tracker, which would then unlink the
    *owner's* segment when the attaching process exits.  Unregistering
    restores single-owner semantics.  Created segments are deliberately
    left tracked: ``unlink()`` pairs their unregister, and the tracker
    doubles as a crash net that keeps ``/dev/shm`` clean.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker already gone
        pass


def _close_or_abandon(shm) -> None:
    """Unmap *shm*, or abandon the mapping if views still export it.

    ``SharedMemory.close()`` raises :class:`BufferError` while NumPy
    views export the mapping's buffer.  At shutdown the right move is to
    abandon the mapping to the kernel (the segment is already unlinked;
    a dying process's mappings vanish anyway) and neuter the object so
    its ``__del__`` does not retry the close and spam
    "Exception ignored" tracebacks through interpreter teardown.
    """
    try:
        shm.close()
    except BufferError:
        try:
            shm._buf = None
            shm._mmap = None
        except AttributeError:  # pragma: no cover - stdlib internals moved
            pass


class HeapSegment:
    """A plain ``bytearray`` buffer (single-process policy)."""

    __slots__ = ("buf",)

    #: Heap buffers have no cross-process name.
    name: Optional[str] = None

    def __init__(self, size: int) -> None:
        self.buf = bytearray(size)

    def release(self) -> None:
        self.buf = None  # type: ignore[assignment]


class SharedSegment:
    """One named shared-memory segment and its local mapping."""

    __slots__ = ("name", "owner", "_shm", "buf", "_pool")

    def __init__(self, pool: "SharedBuffers", shm, owner: bool) -> None:
        self._pool = pool
        self._shm = shm
        self.name = shm.name
        self.owner = owner
        self.buf = shm.buf

    def release(self) -> None:
        self._pool._release(self)


class HeapBuffers:
    """Default buffer policy: private process-heap bytearrays."""

    #: Workers cannot attach heap buffers; the process executor refuses
    #: to start over a space using this policy.
    shared = False

    def create(self, size: int) -> HeapSegment:
        return HeapSegment(size)

    def attach(self, name: str):  # pragma: no cover - policy guard
        raise ValueError("heap buffers have no attachable segments")

    def close(self) -> None:
        pass


class SharedBuffers:
    """Named ``multiprocessing.shared_memory`` buffer policy.

    One instance backs one address space; it tracks every segment the
    *owning* process created so ``close()`` (and the atexit net) can
    guarantee zero orphan ``/dev/shm/smc_*`` files.  Attached (foreign)
    segments are tracked separately and only unmapped, never unlinked.
    """

    shared = True

    def __init__(self) -> None:
        try:  # always present on CPython >= 3.8
            from multiprocessing.shared_memory import SharedMemory
        except ImportError:  # pragma: no cover - exotic builds
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable; "
                "shared-memory block pools require it"
            ) from None
        self._shared_memory = SharedMemory
        self._pid = os.getpid()
        self.prefix = f"{SEGMENT_PREFIX}{self._pid}_{uuid.uuid4().hex[:6]}"
        self._serial = 0
        self._lock = threading.Lock()
        #: name -> SharedSegment for segments this process owns.
        self._owned: Dict[str, SharedSegment] = {}
        #: name -> SharedSegment mapped from another space (worker side).
        self._attached: Dict[str, SharedSegment] = {}
        #: Segments unlinked but whose mapping still had exported NumPy
        #: views at free time; their ``close()`` is retried at shutdown.
        self._zombies: List[object] = []
        self._closed = False
        atexit.register(self._atexit)

    # -- allocation ----------------------------------------------------

    def create(self, size: int) -> SharedSegment:
        with self._lock:
            if self._closed:
                raise ValueError("shared buffer pool is closed")
            name = f"{self.prefix}_{self._serial}"
            self._serial += 1
        shm = self._shared_memory(name=name, create=True, size=size)
        seg = SharedSegment(self, shm, owner=True)
        with self._lock:
            self._owned[name] = seg
        return seg

    def attach(self, name: str) -> SharedSegment:
        """Map an existing segment by name (worker attach protocol)."""
        with self._lock:
            seg = self._attached.get(name) or self._owned.get(name)
            if seg is not None:
                return seg
        shm = self._shared_memory(name=name)
        _untrack(shm)
        seg = SharedSegment(self, shm, owner=False)
        with self._lock:
            self._attached[name] = seg
        return seg

    # -- release -------------------------------------------------------

    def _release(self, seg: SharedSegment) -> None:
        with self._lock:
            if seg.owner:
                self._owned.pop(seg.name, None)
            else:
                self._attached.pop(seg.name, None)
        seg.buf = None  # type: ignore[assignment]
        if seg.owner:
            # Unlink first: the name disappears from /dev/shm immediately
            # (leak-check visible state), while any still-attached worker
            # keeps its private mapping until it unmaps or exits.
            try:
                seg._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        try:
            seg._shm.close()
        except BufferError:
            # A stray NumPy view still exports the mapping; the segment
            # is already unlinked, so just park the mapping and retry the
            # munmap at close() — worst case the kernel reclaims it at
            # process exit.
            with self._lock:
                self._zombies.append(seg._shm)

    def close(self) -> None:
        """Unlink every owned segment and drop all mappings."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owned = list(self._owned.values())
            self._owned.clear()
            attached = list(self._attached.values())
            self._attached.clear()
            zombies = self._zombies
            self._zombies = []
        for seg in owned:
            seg.buf = None  # type: ignore[assignment]
            try:
                seg._shm.unlink()
            except FileNotFoundError:
                pass
            _close_or_abandon(seg._shm)
        for seg in attached:
            seg.buf = None  # type: ignore[assignment]
            _close_or_abandon(seg._shm)
        for shm in zombies:
            _close_or_abandon(shm)

    def _atexit(self) -> None:
        # A forked worker inherits this registration; it must never
        # unlink the parent's segments (workers exit via os._exit, but
        # guard anyway for exotic exits).
        if os.getpid() != self._pid:  # pragma: no cover - fork guard
            return
        self.close()
