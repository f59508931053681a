"""The executor choice for a ``workers > 1`` scan.

A multi-worker scan runs on the manager's process pool
(:class:`~repro.query.procexec.ProcessScanPool`) when one is attached
and takes the plan.  Anything the pool declines — no pool, an
enumeration (its ``Ref`` results cannot cross a process boundary), a
busy pool, a mid-query mutation, a worker failure — runs the serial
scan, which is always correct: one reader walks one
:class:`~repro.query.runtime.BlockCursor` inside one critical section,
as the paper's visiting rules (section 5.2) assume.

There is no in-process thread fan-out: threads of short NumPy kernels
contend for the GIL, and two of them scanned slower than one.
"""

from __future__ import annotations

from repro.query.columnar_exec import _run_serial


def run_parallel(plan):
    """Run *plan* on the process pool if it takes it, else serially;
    returns ``(accumulator, pruned_blocks, scanned_blocks)``.

    Counts which one ran: ``exec_process_queries`` or, for the serial
    fallback, ``exec_thread_queries`` (a name kept from the retired
    thread executor, which the metrics scrape still reads).
    """
    manager = plan.manager
    pool = getattr(manager, "exec_pool", None)
    result = pool.run(plan) if pool is not None else None
    extra = manager.stats.extra
    if result is not None:
        extra["exec_process_queries"] = extra.get("exec_process_queries", 0) + 1
        return result
    extra["exec_thread_queries"] = extra.get("exec_thread_queries", 0) + 1
    return _run_serial(plan)
