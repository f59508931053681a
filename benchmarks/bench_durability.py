"""Durability subsystem benchmark: WAL cost and recovery time.

Two measurements:

* **Mutation throughput** — adds/updates/removes per second against a
  plain in-memory collection versus a durable store under each WAL
  fsync policy (``none`` / ``commit`` / ``always``), so the log's cost
  is quantified rather than assumed.
* **Recovery time vs log length** — how long ``DurableStore.open``
  takes to replay tails of increasing length.

The script only measures.  Its correctness gates live in
``tests/test_durability.py``: ``TestStoreRecovery`` replays a log
exactly, and ``TestCrashMatrix`` recovers byte-exact answers with and
without a crash.

Usage::

    python benchmarks/bench_durability.py            # full run
    python benchmarks/bench_durability.py --smoke    # CI-sized run
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = Path(__file__).resolve().parent.parent


def _define_schema():
    from repro.schema import Int64Field, Tabular, VarStringField

    class DurBenchRow(Tabular):
        k = Int64Field()
        val = Int64Field()
        tag = VarStringField()

    return DurBenchRow


def _mutate(collection, n, batcher=None):
    """A fixed add/update/remove-heavy workload of *n* primitive ops."""
    from contextlib import nullcontext

    handles = []
    ops = 0
    i = 0
    while ops < n:
        with batcher() if batcher else nullcontext():
            for __ in range(min(100, n - ops)):
                i += 1
                if i % 7 == 0 and handles:
                    collection.remove(handles.pop(i % len(handles)))
                elif i % 5 == 0 and handles:
                    handles[i % len(handles)].val = i
                else:
                    handles.append(
                        collection.add(k=i, val=i * 3, tag=f"tag-{i % 251}")
                    )
                ops += 1
    return ops


def bench_mutations(schema, n):
    from repro.core.collection import Collection
    from repro.durability import DurableStore
    from repro.memory.manager import MemoryManager

    records = []
    # Baseline: no WAL at all.
    manager = MemoryManager()
    coll = Collection(schema, manager=manager)
    start = time.perf_counter()
    ops = _mutate(coll, n)
    elapsed = time.perf_counter() - start
    manager.close()
    records.append(
        {
            "config": "wal-off",
            "ops": ops,
            "elapsed_s": round(elapsed, 4),
            "ops_per_s": round(ops / elapsed, 1),
        }
    )
    print(f"  wal-off       {ops / elapsed:>10.0f} ops/s")

    for policy in ("none", "commit", "always"):
        root = tempfile.mkdtemp(prefix=f"durbench-{policy}-")
        try:
            manager = MemoryManager()
            colls = {
                "rows": Collection(schema, manager=manager),
                "_manager": manager,
            }
            store = DurableStore.create(
                root, collections=colls, fsync_policy=policy
            )
            start = time.perf_counter()
            ops = _mutate(colls["rows"], n, batcher=store.batch)
            elapsed = time.perf_counter() - start
            stats = store.stats()
            store.close()
            manager.close()
            records.append(
                {
                    "config": f"wal-{policy}",
                    "ops": ops,
                    "elapsed_s": round(elapsed, 4),
                    "ops_per_s": round(ops / elapsed, 1),
                    "wal_bytes": stats["wal_bytes_total"],
                    "fsyncs": stats["wal_fsyncs_total"],
                }
            )
            print(
                f"  wal-{policy:<8} {ops / elapsed:>10.0f} ops/s   "
                f"({stats['wal_bytes_total']} bytes, "
                f"{stats['wal_fsyncs_total']} fsyncs)"
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return records


def bench_recovery(schema, lengths):
    from repro.core.collection import Collection
    from repro.durability import DurableStore
    from repro.memory.manager import MemoryManager

    records = []
    for n in lengths:
        root = tempfile.mkdtemp(prefix="durbench-rec-")
        try:
            manager = MemoryManager()
            colls = {
                "rows": Collection(schema, manager=manager),
                "_manager": manager,
            }
            store = DurableStore.create(
                root, collections=colls, fsync_policy="none"
            )
            _mutate(colls["rows"], n, batcher=store.batch)
            store.close()
            manager.close()

            start = time.perf_counter()
            reopened = DurableStore.open(root, fsync_policy="none")
            elapsed = time.perf_counter() - start
            replayed = reopened.report.replayed
            reopened.close()
            records.append(
                {
                    "log_ops": n,
                    "replayed_records": replayed,
                    "recovery_s": round(elapsed, 4),
                    "records_per_s": round(replayed / elapsed, 1),
                }
            )
            print(
                f"  {n:>7} ops  ->  {elapsed * 1000:8.1f} ms recovery "
                f"({replayed} records)"
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--mutations", type=int, default=None)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_durability.json")
    )
    parser.add_argument(
        "--no-json", action="store_true", help="skip writing the JSON payload"
    )
    args = parser.parse_args(argv)

    from repro.bench.harness import write_json_atomic

    if args.smoke:
        n = args.mutations or 2000
        rec_lengths = [500, 2000]
    else:
        n = args.mutations or 20000
        rec_lengths = [1000, 5000, 20000]

    schema = _define_schema()

    print(f"mutation throughput ({n} ops per config):")
    throughput = bench_mutations(schema, n)

    print("recovery time vs log length:")
    recovery = bench_recovery(schema, rec_lengths)

    if not args.no_json:
        payload = {
            "bench": "durability",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "mutations": n,
            "mutation_throughput": throughput,
            "recovery": recovery,
            "notes": (
                "wal-off is a plain in-memory collection; wal-* pay "
                "logging under the named fsync policy with 100-op group "
                "commits."
            ),
        }
        write_json_atomic(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
