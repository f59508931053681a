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

* **Wire.**  Each worker holds one end of a ``multiprocessing`` pipe;
  every message is a pickle made by :class:`_Pickler`, which names the
  objects both processes hold — a schema field by ``(owner schema name,
  field name)``, a string dictionary by its collection — and the
  receiver resolves the names against its own manager.  A plan is its
  expression objects; a partial is one folded chunk of NumPy columns.

Any worker error, death-induced inconsistency or end-fingerprint
mismatch makes :meth:`ProcessScanPool.run` return ``None``; the caller
falls back to the serial scan, so the process path is strictly an
optimisation and never a correctness risk.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import signal
import threading
from multiprocessing.connection import Pipe, wait
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.memory.block import KIND_STRING
from repro.memory.stringheap import StringBlock, StringDict
from repro.query.columnar_exec import _Accumulator, _ScanPlan
from repro.query.runtime import BlockCursor
from repro.sanitizer import hooks as _san
from repro.schema.fields import Field


# ----------------------------------------------------------------------
# Wire: pickles that name what both processes already hold
# ----------------------------------------------------------------------


class _Pickler(pickle.Pickler):
    """Pickles a message, naming each schema field by ``(owner schema
    name, field name)`` and each string dictionary by its collection's
    name.  Fields carry their schema class and dictionaries their heap,
    and the receiving process holds its own copy of both (the fork's), so
    :class:`_Unpickler` resolves the names against its manager instead."""

    def __init__(self, file, manager) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.strdicts = {
            id(coll.strdict): name
            for name, coll in manager.collections.items()
            if coll.strdict is not None
        }

    def persistent_id(self, obj):
        if isinstance(obj, Field):
            return ("field", obj.owner.__name__, obj.name)
        if isinstance(obj, StringDict):
            return ("strdict", self.strdicts[id(obj)])
        return None


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, manager) -> None:
        super().__init__(file)
        self.manager = manager

    def persistent_load(self, pid):
        collections = self.manager.collections
        if pid[0] == "strdict":
            return collections[pid[1]].strdict
        __, owner, name = pid
        coll = collections.get(owner)
        if coll is None:
            raise ValueError(f"unknown schema {owner!r} in plan wire")
        field = coll.layout.by_name.get(name)
        if field is None:
            raise ValueError(f"{owner} has no field {name!r}")
        return field


def _dumps(manager, obj) -> bytes:
    buf = io.BytesIO()
    _Pickler(buf, manager).dump(obj)
    return buf.getvalue()


def _loads(manager, data: bytes):
    return _Unpickler(io.BytesIO(data), manager).load()


def _send(conn, manager, msg: tuple) -> None:
    conn.send_bytes(_dumps(manager, msg))


def _recv(conn, manager) -> tuple:
    return _loads(manager, conn.recv_bytes())


def _dump_plan(manager, plan) -> bytes:
    """*plan* as the bytes every worker of a query receives: the source's
    name, the parameters, the filters, each semi-join's probe expressions
    with its key columns, and the terminal.

    Zone tests are deliberately left out: the parent prunes with its
    authoritative zone maps before dispatching, so workers scan exactly
    the admitted blocks and never consult (possibly stale copy-on-write)
    block statistics.  A semi-join's subquery stays behind too; its keys
    travel as the raw columns it produced.
    """
    for name, coll in manager.collections.items():
        if coll is plan.source:
            break
    else:
        raise ValueError("scan source is not a registered collection")
    insets = [(op.exprs, bool(op.negated), keys) for op, keys in plan.inset_ops]
    return _dumps(
        manager, (name, plan.params, plan.filters, insets, plan.terminal)
    )


def _load_plan(manager, data: bytes) -> _ScanPlan:
    """Rebuild a :func:`_dump_plan` plan against the worker's manager."""
    source, params, filters, insets, terminal = _loads(manager, data)
    inset_ops = [
        (SimpleNamespace(exprs=exprs, negated=negated), keys)
        for exprs, negated, keys in insets
    ]
    return _ScanPlan(
        manager,
        manager.collections[source],
        params,
        filters,
        inset_ops,
        terminal,
        [],
    )


def _partial(acc: _Accumulator) -> tuple:
    """A worker's answer for one unit: its chunks folded to one (None
    when no row matched), the chunk's dtypes and the two row counters —
    NumPy arrays and counts, never Python rows."""
    chunk = acc.fold() if acc.chunks else None
    return (
        chunk,
        acc.key_dtypes,
        acc.agg_dtypes,
        acc.rows_scanned,
        acc.rows_matched,
    )


def _from_partial(terminal, partial: tuple) -> _Accumulator:
    chunk, key_dtypes, agg_dtypes, scanned, matched = partial
    acc = _Accumulator(terminal)
    if chunk is not None:
        acc.chunks.append(chunk)
        acc.key_dtypes = key_dtypes
        acc.agg_dtypes = agg_dtypes
    acc.rows_scanned = scanned
    acc.rows_matched = matched
    return acc


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


def _worker_main(manager, conn) -> None:
    space = manager.space
    pid = os.getpid()
    while True:
        try:
            msg = _recv(conn, manager)
        except (EOFError, OSError):
            os._exit(0)
        if msg[0] == "quit":
            os._exit(0)
        __, qid, plan_bytes, maps, units = msg
        try:
            space.attach_miss = _make_attach_miss(
                manager, maps["space_map"], maps["heap_map"]
            )
            plan = _load_plan(manager, plan_bytes)
            for seq, block_ids in units:
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
                _send(conn, manager, ("partial", qid, seq, _partial(acc)))
            _send(conn, manager, ("done", qid))
        except BaseException as exc:
            try:
                _send(
                    conn, manager, ("error", qid, f"{type(exc).__name__}: {exc}")
                )
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
            conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:
                # Child: drop every parent-side end (ours and the earlier
                # siblings' — a sibling holding one open would keep its
                # worker from seeing EOF when the parent closes it).
                conn.close()
                for rec in self._procs:
                    rec["conn"].close()
                try:
                    _worker_main(self.manager, child_conn)
                except BaseException:  # pragma: no cover - last resort
                    pass
                os._exit(1)
            child_conn.close()
            self._procs.append({"pid": pid, "conn": conn, "alive": True})

    def _stop_workers(self) -> None:
        for rec in self._procs:
            if not rec["alive"]:
                continue
            rec["alive"] = False
            try:
                _send(rec["conn"], self.manager, ("quit",))
            except OSError:
                pass
            rec["conn"].close()
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
        ``waitpid`` already did) and close its connection."""
        rec["alive"] = False
        rec["conn"].close()
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
                plan_bytes = _dump_plan(manager, plan)
                maps = _space_map(manager)
                for rec in workers:
                    assigned = assignments.get(rec["pid"])
                    if not assigned:
                        continue
                    participants.append(rec)
                    units_of = sorted(assigned.items())
                    try:
                        _send(
                            rec["conn"],
                            manager,
                            ("query", qid, plan_bytes, maps, units_of),
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
                    ready = wait([rec["conn"] for rec in waiting], 1.0)
                    if not ready:
                        # Liveness poll: catch a worker that died without
                        # the EOF reaching us yet.
                        for rec in waiting:
                            if os.waitpid(rec["pid"], os.WNOHANG)[0]:
                                self._handle_death(rec, reaped=True)
                        continue
                    for rec in waiting:
                        if rec["conn"] not in ready:
                            continue
                        try:
                            msg = _recv(rec["conn"], manager)
                        except (EOFError, OSError):
                            self._handle_death(rec)
                            continue
                        if msg[1] != qid:  # pragma: no cover - protocol guard
                            continue
                        if msg[0] == "partial":
                            received[rec["pid"]][msg[2]] = msg[3]
                        else:  # "done", or "error"
                            failed = failed or msg[0] == "error"
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
                    for seq, partial in got.items():
                        local_partials.append(
                            (seq, _from_partial(plan.terminal, partial))
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

