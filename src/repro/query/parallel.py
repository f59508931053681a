"""Parallel scans over SMC blocks on a persistent thread pool.

The block is the natural unit of parallel work distribution in an SMC —
fixed-size, single-type and enumerated by the slot directory — so the
parallel executor lets N pool threads drain one
:class:`~repro.query.runtime.BlockCursor`, one block per unit.  The
per-block NumPy kernels in :mod:`repro.query.columnar_exec` release the
GIL, which is what makes thread-level parallelism a real speedup for
query-dominated workloads in Python.

Protocol discipline (paper section 5.2):

* the **driver** holds a critical section for the whole fan-out, pinning
  the epoch so the snapshotted block list cannot be reclaimed under the
  scan;
* every **worker** additionally enters its own critical section — each
  scanning thread is an independent reader as far as epoch-based
  reclamation and the compactor's waiting phase are concerned;
* the cursor hands a **compaction group** to exactly one worker, which
  resolves it (helping, pre-state pinning, deferral) and holds any pin
  for exactly as long as it scans the group's blocks; the cursor's
  emitted set guarantees every block is scanned at most once.

Results stay deterministic: every unit carries its sequence number in
scan order, each worker keeps one partial accumulator per unit, and the
driver merges the partials in sequence order — the order the serial scan
visits blocks — so grouped aggregation, selection and enumeration
produce bit-identical results at any worker count.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

from repro.query.runtime import BlockCursor

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared persistent scan pool, grown to at least *workers*."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL._max_workers < workers:
            old = _POOL
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="smc-scan"
            )
            if old is not None:
                old.shutdown(wait=False)
        return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (tests / interpreter exit).

    Idempotent — the None guard makes repeated calls (an explicit test
    teardown followed by the atexit hook) free.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None


# Interpreter exit must not strand non-daemon pool threads mid-join.
atexit.register(shutdown_pool)


def _drain(cursor: BlockCursor, plan):
    """One pool thread: one block per unit, one partial per unit.

    Returns ``(partials, pruned, scanned)`` where *partials* is a list of
    ``(seq, accumulator)`` pairs for the driver's ordered merge.
    """
    epochs = plan.manager.epochs
    partials = []
    visited = scanned = 0
    epochs.enter_critical_section()
    try:
        while (unit := cursor.next_unit(1)) is not None:
            seq, blocks = unit
            acc = plan.make_accumulator()
            for block in blocks:
                visited += 1
                scanned += plan.scan(block, acc)
            partials.append((seq, acc))
    finally:
        cursor.release()
        epochs.exit_critical_section()
    return partials, visited - scanned, scanned


def run_parallel(plan, workers: int):
    """Fan a scan out over *workers* threads; returns the merged result
    as ``(accumulator, pruned_blocks, scanned_blocks)``."""
    manager = plan.manager
    pool = _get_pool(workers)
    manager.epochs.enter_critical_section()
    try:
        cursor = BlockCursor(manager, plan.source.context)
        futures = [pool.submit(_drain, cursor, plan) for __ in range(workers)]
        partials: List[tuple] = []
        pruned = scanned = 0
        for future in futures:
            worker_partials, worker_pruned, worker_scanned = future.result()
            partials.extend(worker_partials)
            pruned += worker_pruned
            scanned += worker_scanned
    finally:
        manager.epochs.exit_critical_section()
    # Deterministic barrier merge: fold partial accumulators in block
    # (sequence) order so the output matches the serial scan exactly.
    partials.sort(key=lambda pair: pair[0])
    acc = plan.make_accumulator()
    for __, partial in partials:
        acc.merge(partial)
    extra = manager.stats.extra
    extra["morsels_dispatched"] = (
        extra.get("morsels_dispatched", 0) + len(partials)
    )
    extra["parallel_scans"] = extra.get("parallel_scans", 0) + 1
    return acc, pruned, scanned
