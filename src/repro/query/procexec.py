"""Multi-process scatter-gather execution over shared-memory block pools.

The one way a scan runs on more than one core.  Threads in one
interpreter are bounded by the GIL: two threads of short NumPy kernels
scan slower than one.  So a ``workers > 1`` scan
(:func:`repro.query.parallel.run_parallel`) goes to a pool of **forked
worker processes** that attach the same shared-memory block segments
(``MemoryManager(shm=True)``), evaluate the compiled scan plan locally,
and stream partial accumulators back to the parent, which folds them in
block order so results stay byte-identical to the serial scan at any
worker count.

Protocol overview (full write-up in ``docs/parallel_execution.md``):

* **Fork + attach.**  Workers are forked from the owning process, so
  every block mapped *before* the fork is readable through inherited
  mappings of the shared segments (live bytes, not copies).  Blocks
  mapped *after* the fork are resolved through the per-query *space
  map* — ``{block_id: segment name | tier-file offset}`` — via the
  address space's ``attach_miss`` hook: the worker maps the segment and
  binds the block's own class over it (``MemoryManager.attach_block``).
  This module holds no block code: kind, slot count and hosting context
  come from the self-describing block header, are validated by the
  block's one write-free constructor, and a segment that does not fit
  fails the query over to the serial scan.

* **Cross-process epochs.**  A worker announces no epoch of its own:
  it reads under the parent's critical section.  Every block a worker
  reads is one the parent's cursor admitted inside that section, and
  the parent never exits it while a worker it sent the query to is
  alive and has not answered — on an unwind mid-fan-out it SIGKILLs
  and reaps every unanswered worker first (the next query respawns the
  pool).  So reclamation and compaction can never reuse a segment's
  bytes while a worker scans them, and a dead worker holds no pin.

* **Consistency fingerprint.**  Workers see a copy-on-write snapshot of
  all *Python-level* state (indirection table, string dictionaries,
  block lists) as of the fork.  A coarse mutation fingerprint —
  allocations, frees, context count, dictionary versions, string-heap
  blocks — is checked at query start (mismatch: respawn the workers,
  cheap via fork) and at query end (mismatch: discard the partials and
  fall back to the serial scan).  Compaction deliberately does not
  perturb the fingerprint: relocated blocks arrive through the attach
  protocol and the parent's critical section keeps every dispatched
  block mapped, so scans under compaction churn remain exact.

* **Scatter-gather.**  The parent drains the scan's
  :class:`~repro.query.runtime.BlockCursor` itself — the block walk
  every executor shares — prunes with its authoritative zone maps and
  scans a pinned compaction-group pre-state locally (the pin is
  parent-side state).  The admitted blocks are cut into one contiguous
  run per worker, so each worker folds and returns one partial per
  query.  Partials merge in scan order; runs lost to a dead worker are
  re-executed by the parent and counted as ``exec_morsels_redispatched``.

Any worker error, death-induced inconsistency or end-fingerprint
mismatch makes :meth:`ProcessScanPool.run` return ``None``; the caller
falls back to the serial scan, so the process path is strictly an
optimisation and never a correctness risk.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import struct
import threading
from typing import Dict, List, Optional, Tuple

from repro.memory.block import KIND_STRING
from repro.memory.stringheap import StringBlock
from repro.query import plansnap
from repro.query.runtime import BlockCursor
from repro.sanitizer import hooks as _san

_LEN = struct.Struct("<I")


# ----------------------------------------------------------------------
# Frame I/O (length-prefixed pickles over raw pipes)
# ----------------------------------------------------------------------


def _send_frame(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_LEN.pack(len(data)) + data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _recv_exact(fd: int, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(fd: int):
    header = _recv_exact(fd, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    payload = _recv_exact(fd, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def _parse_frames(rec: dict) -> List[tuple]:
    """Drain complete frames out of a worker record's read buffer."""
    buf = rec["buf"]
    frames = []
    while len(buf) >= _LEN.size:
        (length,) = _LEN.unpack_from(buf, 0)
        if len(buf) < _LEN.size + length:
            break
        frames.append(pickle.loads(buf[_LEN.size : _LEN.size + length]))
        buf = buf[_LEN.size + length :]
    rec["buf"] = buf
    return frames


# ----------------------------------------------------------------------
# Worker-side block attach (segment name / tier offset -> the real block)
# ----------------------------------------------------------------------


def _make_attach_miss(manager, space_map: Dict[int, object], heap_map: Dict[int, str]):
    """Build the worker's ``AddressSpace.attach_miss`` hook for one query.

    A block the worker has no object for is mapped — by segment name, or
    for a cold block by its region of the tier file (the TierStore fd is
    inherited across the fork; offsets are the wire format) — and bound
    write-free by the same class that owns it in the parent; the
    constructor registers it in the worker's space, so each block misses
    once.  Attached blocks stay bound for the worker's lifetime, which is
    safe because any allocation, free or residency change in the parent
    respawns the workers before the next process query.
    """
    space = manager.space

    def attach_miss(block_id: int):
        name = heap_map.get(block_id)
        if name is not None:
            # String-heap blocks are all payload, no header; the full
            # bump offset marks them closed to allocation.
            return StringBlock(
                space, block_id, space.buffers.attach(name), space.block_size
            )
        where = space_map.get(block_id)
        if where is None:
            return None
        if isinstance(where, str):
            segment = space.buffers.attach(where)
        else:
            store = space.buffers.store
            if store is None:
                return None
            segment = store.map_region(where, space.block_size)
        return manager.attach_block(block_id, segment)

    return attach_miss


def _space_map(manager) -> Dict[str, Dict[int, object]]:
    """The wire's view of the address space: ``space_map`` is
    ``{block_id: segment name | tier-file offset}`` for every data block
    (kind and geometry are in the block header; a cold block has no
    attachable segment and travels by the offset of its tier region) and
    ``heap_map`` is ``{block_id: segment name}`` for the string heap."""
    space_map: Dict[int, object] = {}
    heap_map: Dict[int, str] = {}
    for block in manager.space.live_blocks():
        name = block.segment.name
        if block.kind == KIND_STRING:
            heap_map[block.block_id] = name
        elif name is not None:
            space_map[block.block_id] = name
        elif block.residency == "cold" and block.tier_offset >= 0:
            space_map[block.block_id] = block.tier_offset
    return {"space_map": space_map, "heap_map": heap_map}


# ----------------------------------------------------------------------
# Worker main loop (runs in the forked child, exits via os._exit only)
# ----------------------------------------------------------------------


def _worker_main(manager, rfd: int, wfd: int):
    space = manager.space
    pid = os.getpid()
    while True:
        frame = _recv_frame(rfd)
        if frame is None or frame[0] == "quit":
            os._exit(0)
        if frame[0] != "query":  # pragma: no cover - protocol guard
            continue
        __, qid, wire = frame
        try:
            space.attach_miss = _make_attach_miss(
                manager, wire["space_map"], wire["heap_map"]
            )
            plan = plansnap.decode_plan(manager, wire["plan"])
            for seq, block_ids in wire["units"]:
                if _san.SANITIZER is not None:
                    # Fault-injection point: crash_at("exec.worker") makes
                    # this worker die exactly like a SIGKILLed process.
                    try:
                        _san.SANITIZER.event(
                            "exec.worker", pid=pid, qid=qid, seq=seq
                        )
                    except BaseException:
                        os.kill(pid, signal.SIGKILL)
                acc = plan.make_accumulator()
                for block_id in block_ids:
                    block = space.block_by_id(block_id)
                    plan.process_block(block, acc)
                _send_frame(
                    wfd,
                    (
                        "partial",
                        qid,
                        seq,
                        plansnap.encode_accumulator(manager, acc),
                    ),
                )
            _send_frame(wfd, ("done", qid))
        except BaseException as exc:
            try:
                _send_frame(wfd, ("error", qid, f"{type(exc).__name__}: {exc}"))
            except OSError:
                os._exit(1)


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


class ProcessScanPool:
    """A pool of forked scan workers attached to one manager's segments.

    Create with ``MemoryManager(shm=True)`` only; heap-backed spaces have
    nothing a worker process could attach.  The pool is registered on the
    manager (``manager.exec_pool``) and shut down by ``manager.close()``.
    Workers are spawned lazily on the first query and respawned whenever
    the mutation fingerprint moves, so an idle pool costs nothing.
    """

    def __init__(self, manager, workers: int) -> None:
        if not getattr(manager.space.buffers, "shared", False):
            raise ValueError(
                "process executor requires shared-memory buffers; "
                "create the manager with shm=True (serve --exec-workers)"
            )
        self.manager = manager
        self.workers = max(1, int(workers))
        self._pid = os.getpid()
        self._busy = threading.Lock()
        self._qid = 0
        self._closed = False
        self._procs: List[dict] = []
        self._spawn_fp: Optional[tuple] = None
        atexit.register(self.shutdown)

    # -- consistency fingerprint ---------------------------------------

    def fingerprint(self) -> tuple:
        """Coarse mutation stamp of everything workers snapshot at fork.

        Any object allocation or free, new context, string-dictionary
        rebinding or string-heap growth invalidates the workers' COW
        view; compaction (pure relocation) intentionally does not.
        Residency changes do: a fault rebinds the block to a *new* hot
        segment the old workers never mapped, and a demotion swaps in a
        tier mapping — either way the space map the workers cached is
        stale, so tier fault/eviction counters are part of the stamp.
        """
        manager = self.manager
        versions = 0
        for coll in getattr(manager, "collections", {}).values():
            if coll.strdict is not None:
                versions += coll.strdict.version
        extra = manager.stats.extra
        return (
            manager.stats.allocations,
            manager.stats.frees,
            len(manager._contexts),
            versions,
            manager.strings.block_count,
            extra.get("tier_faults", 0),
            extra.get("tier_evictions", 0),
        )

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self) -> None:
        self._spawn_fp = self.fingerprint()
        for __ in range(self.workers):
            p2c_r, p2c_w = os.pipe()
            c2p_r, c2p_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Child: drop every parent-side fd (ours and the earlier
                # siblings' — holding a sibling's pipe open would mask
                # its EOF-on-death signal to the parent).
                os.close(p2c_w)
                os.close(c2p_r)
                for rec in self._procs:
                    try:
                        os.close(rec["rfd"])
                        os.close(rec["wfd"])
                    except OSError:  # pragma: no cover
                        pass
                try:
                    _worker_main(self.manager, p2c_r, c2p_w)
                except BaseException:  # pragma: no cover - last resort
                    pass
                os._exit(1)
            os.close(p2c_r)
            os.close(c2p_w)
            self._procs.append(
                {
                    "pid": pid,
                    "rfd": c2p_r,
                    "wfd": p2c_w,
                    "alive": True,
                    "buf": b"",
                }
            )

    def _stop_workers(self) -> None:
        for rec in self._procs:
            if not rec["alive"]:
                continue
            rec["alive"] = False
            try:
                _send_frame(rec["wfd"], ("quit",))
            except OSError:
                pass
            for fd_key in ("rfd", "wfd"):
                try:
                    os.close(rec[fd_key])
                except OSError:
                    pass
            try:
                os.waitpid(rec["pid"], 0)
            except ChildProcessError:
                pass
        self._procs = []

    def _ensure_workers(self) -> bool:
        """Workers alive and consistent with the current data? (Re)spawn."""
        alive = sum(1 for rec in self._procs if rec["alive"])
        if (
            alive == self.workers
            and self._spawn_fp == self.fingerprint()
        ):
            return True
        had_procs = bool(self._procs)
        self._stop_workers()
        self._spawn()
        if had_procs:
            extra = self.manager.stats.extra
            extra["exec_worker_respawns"] = (
                extra.get("exec_worker_respawns", 0) + 1
            )
        return True

    def _handle_death(self, rec: dict, reaped: bool = False) -> None:
        """A worker died (or was killed) mid-query: reap it (unless a
        ``waitpid`` already did) and drop its fds."""
        rec["alive"] = False
        for fd_key in ("rfd", "wfd"):
            try:
                os.close(rec[fd_key])
            except OSError:
                pass
        if not reaped:
            try:
                os.waitpid(rec["pid"], 0)
            except ChildProcessError:
                pass

    def shutdown(self) -> None:
        """Stop all workers (idempotent)."""
        if self._closed or os.getpid() != self._pid:
            return
        self._closed = True
        self._stop_workers()

    # -- query execution ------------------------------------------------

    def alive_workers(self) -> int:
        return sum(1 for rec in self._procs if rec["alive"])

    def run(self, plan) -> Optional[tuple]:
        """Execute *plan* on the pool; ``None`` means "scan serially".

        Returns ``(accumulator, pruned_blocks, scanned_blocks)``, the
        shape every executor returns.  Single-flight: a second concurrent
        query runs serially instead of queueing behind the pipes.
        """
        if self._closed or plan.manager is not self.manager:
            # A plan built against another manager names blocks this
            # pool's workers cannot see.
            return None
        if plan.terminal is None:
            # Enumeration results carry live Refs, which cannot cross a
            # process boundary; only Select/GroupBy scans are eligible.
            return None
        if not self._busy.acquire(blocking=False):
            return None
        try:
            pager = getattr(self.manager, "pager", None)
            if pager is None:
                self._ensure_workers()
                return self._run_locked(plan)
            # Defer demotions for the whole fan-out: hot segment names in
            # the space map and cold tier regions must stay stable while
            # workers hold mappings of them.
            with pager.hold():
                self._ensure_workers()
                return self._run_locked(plan)
        finally:
            self._busy.release()

    def _run_locked(self, plan) -> Optional[tuple]:
        manager = self.manager
        epochs = manager.epochs
        start_fp = self.fingerprint()
        self._qid += 1
        qid = self._qid

        local_partials: List[tuple] = []
        visited = scanned = redispatched = 0
        failed = False
        participants: List[dict] = []
        answered: set = set()

        epochs.enter_critical_section()
        try:
            # Drain the cursor on the parent: prune with authoritative
            # zone maps, and scan a pinned pre-state here — with the step
            # every executor runs, before the next call unpins it.  Part
            # numbers keep scan order: the blocks shipped between two
            # local partials share one.
            ship: List[Tuple[int, int]] = []  # (part, block id)
            part = 0
            cursor = BlockCursor(manager, plan.source.context)
            try:
                while (blocks := cursor.next_unit()) is not None:
                    visited += len(blocks)
                    if cursor.pinned is not None:
                        acc = plan.make_accumulator()
                        for block in blocks:
                            scanned += plan.scan(block, acc)
                        local_partials.append(((part + 1, 0), acc))
                        part += 2
                        continue
                    for block in blocks:
                        if plan.admits(block):
                            ship.append((part, block.block_id))
            finally:
                cursor.release()
            scanned += len(ship)

            # One contiguous run of the admitted blocks per worker, cut
            # into units only where a local partial falls inside it.
            # Every assignment is remembered so a dead worker's unacked
            # units can be re-executed locally.
            workers = [rec for rec in self._procs if rec["alive"]]
            width = -(-len(ship) // len(workers))
            assignments: Dict[int, Dict[tuple, List[int]]] = {}
            units = 0
            for i, (part, block_id) in enumerate(ship):
                assigned = assignments.setdefault(workers[i // width]["pid"], {})
                if i % width == 0 or ship[i - 1][0] != part:
                    run = assigned[(part, i)] = []
                    units += 1
                run.append(block_id)

            if units:
                nav = plan.program().nav
                if nav is not None:
                    # A worker's contexts are the fork's copies: its
                    # blocks navigate by address.
                    nav.home.fallbacks["worker"] += len(ship)
                wire = {
                    "plan": plansnap.encode_plan(manager, plan),
                    **_space_map(manager),
                }
                for rec in workers:
                    assigned = assignments.get(rec["pid"])
                    if not assigned:
                        continue
                    participants.append(rec)
                    try:
                        _send_frame(
                            rec["wfd"],
                            (
                                "query",
                                qid,
                                dict(wire, units=sorted(assigned.items())),
                            ),
                        )
                    except OSError:
                        # Died before we could even send: everything it
                        # owned is re-executed locally below.
                        self._handle_death(rec)

                received: Dict[int, dict] = {
                    rec["pid"]: {} for rec in participants
                }
                while waiting := [
                    rec
                    for rec in participants
                    if rec["alive"] and rec["pid"] not in answered
                ]:
                    ready, __, __ = select.select(
                        [rec["rfd"] for rec in waiting], [], [], 1.0
                    )
                    if not ready:
                        # Liveness poll: catch a worker that died without
                        # the pipe EOF reaching us yet.
                        for rec in waiting:
                            if os.waitpid(rec["pid"], os.WNOHANG)[0]:
                                self._handle_death(rec, reaped=True)
                        continue
                    for fd in ready:
                        rec = next(r for r in waiting if r["rfd"] == fd)
                        data = os.read(fd, 1 << 16)
                        if not data:
                            self._handle_death(rec)
                            continue
                        rec["buf"] += data
                        for frame in _parse_frames(rec):
                            tag = frame[0]
                            if tag == "partial" and frame[1] == qid:
                                received[rec["pid"]][frame[2]] = frame[3]
                            elif tag == "done" and frame[1] == qid:
                                answered.add(rec["pid"])
                            elif tag == "error" and frame[1] == qid:
                                failed = True
                                answered.add(rec["pid"])

                if failed:
                    # A worker *raised* (as opposed to died): the plan or
                    # data tripped something the process path cannot
                    # handle; trust nothing from this round.
                    return None

                # Fold worker partials; re-execute anything a dead (or
                # never-reached) worker never acknowledged.
                for rec in participants:
                    assigned = assignments[rec["pid"]]
                    got = received[rec["pid"]]
                    for seq, acc_wire in got.items():
                        local_partials.append(
                            (
                                seq,
                                plansnap.decode_accumulator(
                                    manager, plan.terminal, acc_wire
                                ),
                            )
                        )
                    if rec["alive"]:
                        continue
                    for seq, block_ids in assigned.items():
                        if seq in got:
                            continue
                        redispatched += 1
                        acc = plan.make_accumulator()
                        for block_id in block_ids:
                            block = manager.space.block_by_id(block_id)
                            plan.process_block(block, acc)
                        local_partials.append((seq, acc))

            extra = manager.stats.extra
            extra["exec_morsels_dispatched"] = (
                extra.get("exec_morsels_dispatched", 0) + units
            )
            if redispatched:
                extra["exec_morsels_redispatched"] = (
                    extra.get("exec_morsels_redispatched", 0) + redispatched
                )
        finally:
            # This section is the only pin on the blocks the workers read,
            # so it outlives every reader: a worker that has not answered
            # when an exception unwinds the fan-out is killed and reaped
            # before the section closes (the next query respawns it).
            for rec in participants:
                if rec["alive"] and rec["pid"] not in answered:
                    os.kill(rec["pid"], signal.SIGKILL)
                    self._handle_death(rec)
            epochs.exit_critical_section()

        if self.fingerprint() != start_fp:
            # Data mutated mid-query: the workers' COW snapshot may have
            # diverged from the live state; discard and rerun serially.
            return None

        local_partials.sort(key=lambda pair: pair[0])
        acc = plan.make_accumulator()
        for __, partial in local_partials:
            acc.merge(partial)
        return acc, visited - scanned, scanned

