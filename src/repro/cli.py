"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``gen``
    Generate a TPC-H dataset, load it into self-managed collections and
    write a snapshot file.
``info``
    Describe a snapshot: format and per-section bytes, load time, tables,
    row counts, memory footprint.
``query``
    Run one of the built-in TPC-H queries (q1–q7, q9, q10, q12–q14, q20)
    against a snapshot and print the result table.
``bench``
    Run one figure-reproduction bench module through pytest.
``serve``
    Serve a snapshot over the concurrent query service (threaded TCP,
    length-prefixed JSON protocol; see ``docs/service.md``).  With
    ``--data-dir`` the server runs persistently: mutations are
    write-ahead logged, and a restart recovers the directory.
``recover``
    Recover a data directory (checkpoint + log replay) and report what
    was rebuilt, without serving.
``log-dump``
    Pretty-print a write-ahead log segment record by record.
``snapshot`` / ``restore``
    Export a data directory to a portable snapshot file, or initialize
    a fresh data directory from one (see ``docs/durability.md``).

Examples::

    python -m repro gen --sf 0.01 --out tpch.smcsnap
    python -m repro info tpch.smcsnap
    python -m repro query tpch.smcsnap q1 --engine interpreted
    python -m repro bench fig11
    python -m repro serve tpch.smcsnap --data-dir state/
    python -m repro recover state/
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import List, Optional


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.io.snapshot import save_collections
    from repro.tpch.datagen import generate
    from repro.tpch.loader import load_smc

    print(f"generating TPC-H data at SF={args.sf} (seed {args.seed}) ...")
    start = time.perf_counter()
    data = generate(args.sf, seed=args.seed)
    collections = load_smc(data, columnar=args.columnar)
    rows = save_collections(args.out, collections)
    elapsed = time.perf_counter() - start
    counts = ", ".join(f"{k}={v}" for k, v in data.row_counts().items())
    print(f"wrote {rows} rows ({counts}) to {args.out} in {elapsed:.1f}s")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.io.snapshot import describe_snapshot, load_collections

    stored = describe_snapshot(args.snapshot)
    start = time.perf_counter()
    collections = load_collections(args.snapshot, memory_budget=args.memory_budget)
    load_seconds = time.perf_counter() - start
    manager = collections.pop("_manager")
    if manager.pager is not None:
        # Enforce the budget once so the residency report reflects it
        # (loading leaves every block hot; demotion is operation-boundary
        # work).
        manager.pager.maintain()
    residency = (
        manager.pager.residency_by_context()
        if manager.pager is not None
        else None
    )
    print(
        f"snapshot {args.snapshot}: format {stored['format']}, "
        f"{stored['file_bytes']} bytes, loaded in {load_seconds * 1000:.1f} ms"
    )
    for kind, (count, nbytes) in stored.get("sections", {}).items():
        print(f"  {kind:<11} {count:>5} section(s) {nbytes:>12} bytes")
    for spec in stored.get("collections", ()):
        print(
            f"  stored {spec['name']:<12} {spec['rows']:>9} rows in "
            f"{spec['blocks']:>4} {'columnar' if spec['columnar'] else 'row'} "
            f"block image(s)"
        )
    for name, coll in collections.items():
        line = (
            f"  {name:<12} {len(coll):>9} rows   "
            f"{coll.context.block_count():>4} blocks   "
            f"{coll.memory_bytes() / 2**20:8.1f} MiB"
        )
        if residency is not None:
            tiers = residency.get(
                coll.context.context_id, {"hot": 0, "cold": 0}
            )
            tier_mib = tiers["cold"] * manager.space.block_size / 2**20
            line += (
                f"   hot {tiers['hot']:>4}  cold {tiers['cold']:>4}"
                f"  tier {tier_mib:6.1f} MiB"
            )
        print(line)
    print()
    print(manager.describe())
    # Live telemetry through the service metrics registry: the same
    # instrumentation the metrics endpoint scrapes (epoch, per-context
    # limbo fraction, block counts, string-dict distinct counts).
    from repro.service.metrics import MetricsRegistry, instrument_manager

    registry = MetricsRegistry()
    instrument_manager(registry, manager)
    tel = manager.telemetry()
    print()
    print(
        f"telemetry: global epoch {tel['global_epoch']}, "
        f"min active {tel['min_active_epoch']}, "
        f"{tel['live_blocks']} live blocks"
    )
    for ctx in tel["contexts"]:
        print(
            f"  {ctx['name']:<12} limbo {ctx['limbo_fraction']:6.1%}  "
            f"{ctx['blocks']:>4} blocks  {ctx['live']:>9} live  "
            f"queue {ctx['reclaim_queue']}"
        )
    if tel["string_dicts"]:
        counts = ", ".join(
            f"{name}={n}" for name, n in sorted(tel["string_dicts"].items())
        )
        print(f"  string dictionaries: {counts}")
    if tel.get("tier"):
        t = tel["tier"]
        print(
            f"  tier: budget {t['budget_bytes'] / 2**20:.1f} MiB, "
            f"{t['hot_blocks']} hot / {t['cooling_blocks']} cooling / "
            f"{t['cold_blocks']} cold blocks, "
            f"tier file {t['tier_file_bytes'] / 2**20:.1f} MiB, "
            f"{t['faults']} write faults, {t['evictions']} evictions, "
            f"{t['spills']} spills, {t['cold_reads']} cold block reads, "
            f"{t['zombie_mappings']} zombie mappings"
        )
    if args.metrics:
        print()
        print(registry.expose(), end="")
    manager.close()
    return 0


def _recover_data_dir(data_dir: str):
    """Shared recovery entry for recover/snapshot/serve: returns
    ``(collections, report)`` or ``None`` after printing the error."""
    from repro.durability import RecoveryError, recover
    from repro.durability.checkpoint import DataDir

    if not DataDir(data_dir).is_initialized():
        print(
            f"{data_dir} is not an initialized data directory (no MANIFEST); "
            f"create one with 'repro restore' or 'repro serve --data-dir'",
            file=sys.stderr,
        )
        return None
    try:
        return recover(data_dir)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return None


def _parse_workers(value: str) -> int:
    """``--exec-workers`` accepts a count or ``auto`` (= ``os.cpu_count()``)."""
    import os

    if value == "auto":
        return os.cpu_count() or 1
    return int(value)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.server import QueryService, ServiceServer

    store = None
    exec_workers = _parse_workers(args.exec_workers or "0")
    # The one shape of the served manager, whatever the source: exec
    # workers attach shared-memory block buffers, a budget attaches a
    # pager.
    use_shm = exec_workers > 0
    shape = dict(shm=use_shm, memory_budget=args.memory_budget)
    if args.data_dir:
        from repro.durability import DurableStore, RecoveryError
        from repro.durability.checkpoint import DataDir

        if DataDir(args.data_dir).is_initialized():
            if args.snapshot:
                print(
                    f"{args.data_dir} is already initialized; it recovers "
                    f"from its own checkpoint + log (drop the snapshot "
                    f"argument)",
                    file=sys.stderr,
                )
                return 2
            try:
                store = DurableStore.open(
                    args.data_dir, fsync_policy=args.fsync, **shape
                )
            except RecoveryError as exc:
                print(f"recovery failed: {exc}", file=sys.stderr)
                return 1
            print(store.report.summary())
        else:
            store = DurableStore.create(
                args.data_dir,
                snapshot=args.snapshot,
                fsync_policy=args.fsync,
                **shape,
            )
            print(f"initialized data directory {args.data_dir}")
        collections = dict(store.collections)
        collections["_manager"] = store.manager
        manager = store.manager
        source = args.data_dir
    else:
        if not args.snapshot:
            print(
                "serve needs a snapshot file, a --data-dir, or both",
                file=sys.stderr,
            )
            return 2
        from repro.io.snapshot import load_collections

        collections = load_collections(args.snapshot, **shape)
        manager = collections["_manager"]
        source = args.snapshot
    service = QueryService(
        collections,
        manager,
        lease_ttl=args.lease_ttl,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        store=store,
        exec_workers=exec_workers,
    )
    server = ServiceServer(service, host=args.host, port=args.port).start()
    print(
        f"serving {source} on {server.host}:{server.port} "
        f"(max_concurrency={args.max_concurrency}, "
        f"queue_depth={args.queue_depth}, lease_ttl={args.lease_ttl}s"
        + (f", exec_workers={exec_workers}" if exec_workers else "")
        + (", shm" if use_shm else "")
        + (
            f", memory_budget={args.memory_budget}"
            if args.memory_budget
            else ""
        )
        + (", durable" if store is not None else "")
        + ")"
    )
    stop = threading.Event()

    def _signal(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)
    try:
        while not stop.is_set() and not server._stop.is_set():
            stop.wait(0.2)
    finally:
        server.stop()
        if store is None:
            # The durable store owns (and closed) the manager otherwise.
            manager.close()
    print("server stopped")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    recovered = _recover_data_dir(args.data_dir)
    if recovered is None:
        return 1
    collections, report = recovered
    print(report.summary())
    manager = collections.pop("_manager")
    for name, coll in sorted(collections.items()):
        print(f"  {name:<12} {len(coll):>9} rows")
    manager.close()
    return 0


def _cmd_log_dump(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.durability import RecoveryError, scan_wal
    from repro.durability.checkpoint import DataDir

    path = args.path
    if os.path.isdir(path):
        datadir = DataDir(path)
        try:
            manifest = datadir.read_manifest()
        except RecoveryError as exc:
            print(f"cannot read manifest: {exc}", file=sys.stderr)
            return 1
        if manifest is None:
            print(
                f"{path} is not an initialized data directory (no MANIFEST)",
                file=sys.stderr,
            )
            return 1
        path = os.path.join(path, manifest["wal"])
    try:
        scan = scan_wal(path)
    except (RecoveryError, OSError) as exc:
        print(f"cannot scan {path}: {exc}", file=sys.stderr)
        return 1
    print(f"{path}: segment starts at LSN {scan.start_lsn}")
    for rec in scan.records:
        tail = "" if rec.end_offset <= scan.committed_offset else "  [uncommitted]"
        payload = json.dumps(rec.payload, sort_keys=True) if rec.payload else ""
        print(f"  {rec.lsn:>8}  {rec.kind_name:<7} {payload}{tail}")
    print(
        f"{len(scan.records)} records ({scan.committed_count} committed), "
        f"{scan.torn_bytes} torn tail bytes"
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.io.snapshot import save_collections

    recovered = _recover_data_dir(args.data_dir)
    if recovered is None:
        return 1
    collections, report = recovered
    print(report.summary())
    rows = save_collections(args.out, collections, fsync=True)
    print(f"wrote {rows} rows to {args.out}")
    collections["_manager"].close()
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from repro.durability import DurableStore
    from repro.errors import SmcError

    try:
        store = DurableStore.create(args.data_dir, snapshot=args.snapshot)
    except (SmcError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = sum(len(c) for c in store.collections.values())
    print(
        f"restored {args.snapshot} into {args.data_dir} "
        f"({len(store.collections)} collections, {rows} rows)"
    )
    store.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.io.snapshot import load_collections
    from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

    builder = QUERIES.get(args.query) or EXTRA_QUERIES.get(args.query)
    if builder is None:
        known = sorted(QUERIES) + sorted(EXTRA_QUERIES)
        print(f"unknown query {args.query!r}; choose from {known}", file=sys.stderr)
        return 2
    collections = load_collections(args.snapshot)
    query = builder(collections)
    if args.explain:
        print(query.explain(params=DEFAULT_PARAMS))
    start = time.perf_counter()
    result = query.run(engine=args.engine, params=DEFAULT_PARAMS)
    elapsed = (time.perf_counter() - start) * 1000
    widths = [
        max(len(c), *(len(str(r[i])) for r in result.rows)) if result.rows else len(c)
        for i, c in enumerate(result.columns)
    ]
    print(" | ".join(c.ljust(w) for c, w in zip(result.columns, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in result.rows[: args.limit]:
        print(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    if len(result.rows) > args.limit:
        print(f"... ({len(result.rows) - args.limit} more rows)")
    print(f"\n{len(result.rows)} row(s) in {elapsed:.1f} ms ({args.engine})")
    collections["_manager"].close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import subprocess
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    # Only the figure benches are pytest modules; the rest are scripts.
    figures = sorted(bench_dir.glob("bench_fig*.py"))
    matches = [p for p in figures if p.stem.startswith(f"bench_{args.figure}")]
    if not matches:
        print(
            f"no bench matches {args.figure!r}; available: "
            + ", ".join(p.stem.replace("bench_", "") for p in figures),
            file=sys.stderr,
        )
        return 2
    cmd = [sys.executable, "-m", "pytest", *map(str, matches), "--benchmark-only", "-s"]
    return subprocess.call(cmd)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-managed collections (EDBT 2017 reproduction)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the command under the protocol sanitizer "
        "(checks memory-reclamation invariants; see docs/sanitizer.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate TPC-H data into a snapshot")
    gen.add_argument("--sf", type=float, default=0.01, help="scale factor")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", default="tpch.smcsnap")
    gen.add_argument(
        "--columnar", action="store_true", help="column-wise; loads keep it"
    )
    gen.set_defaults(fn=_cmd_gen)

    info = sub.add_parser("info", help="describe a snapshot")
    info.add_argument("snapshot")
    info.add_argument(
        "--metrics",
        action="store_true",
        help="also print the Prometheus-format metrics exposition",
    )
    info.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="load under a pager with this hot-tier byte budget and "
        "report per-collection residency (hot/cold blocks, tier bytes)",
    )
    info.set_defaults(fn=_cmd_info)

    serve = sub.add_parser(
        "serve", help="serve a snapshot over the query service protocol"
    )
    serve.add_argument(
        "snapshot",
        nargs="?",
        help="snapshot file to serve (optional with an initialized "
        "--data-dir, which recovers itself)",
    )
    serve.add_argument(
        "--data-dir",
        help="persist mutations here: write-ahead log + checkpoints; an "
        "uninitialized directory is seeded from the snapshot argument "
        "(or starts empty), an initialized one is recovered",
    )
    serve.add_argument(
        "--fsync",
        choices=["always", "commit", "none"],
        default="commit",
        help="WAL fsync policy in persistent mode (default: commit — "
        "one fsync per group commit)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7070)
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        help="queries executing at once (admission-control slots)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="bounded waiting room; full means immediate OVERLOADED",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="session TTL in seconds (idle sessions expire)",
    )
    serve.add_argument(
        "--exec-workers",
        metavar="N",
        default=None,
        help="route eligible parallel reads through N scan worker "
        "processes attached to a shared-memory block pool ('auto' = "
        "CPU count); composes with --data-dir and --memory-budget",
    )
    serve.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="hot-tier byte budget for the block pool: a pager demotes "
        "cold blocks to a file-backed tier; queries read them there, "
        "writers and log replay fault them back (composes with "
        "--data-dir and --exec-workers)",
    )
    serve.set_defaults(fn=_cmd_serve)

    from repro.tpch.queries import EXTRA_QUERIES, QUERIES

    query = sub.add_parser("query", help="run a TPC-H query on a snapshot")
    query.add_argument("snapshot")
    query.add_argument("query", help=", ".join([*QUERIES, *EXTRA_QUERIES]))
    query.add_argument(
        "--engine", choices=["compiled", "interpreted"], default="compiled"
    )
    query.add_argument("--limit", type=int, default=25)
    query.add_argument("--explain", action="store_true")
    query.set_defaults(fn=_cmd_query)

    bench = sub.add_parser("bench", help="run a figure bench (e.g. fig11)")
    bench.add_argument("figure", help="fig06..fig13")
    bench.set_defaults(fn=_cmd_bench)

    recover_p = sub.add_parser(
        "recover",
        help="recover a data directory (checkpoint + WAL replay) and "
        "report the rebuilt state",
    )
    recover_p.add_argument("data_dir")
    recover_p.set_defaults(fn=_cmd_recover)

    log_dump = sub.add_parser(
        "log-dump",
        help="print a write-ahead log segment record by record",
    )
    log_dump.add_argument(
        "path", help="a WAL segment file, or a data directory (dumps its "
        "active segment)"
    )
    log_dump.set_defaults(fn=_cmd_log_dump)

    snapshot_p = sub.add_parser(
        "snapshot", help="export a data directory to a snapshot file"
    )
    snapshot_p.add_argument("data_dir")
    snapshot_p.add_argument("out", help="snapshot file to write")
    snapshot_p.set_defaults(fn=_cmd_snapshot)

    restore_p = sub.add_parser(
        "restore",
        help="initialize a fresh data directory from a snapshot file",
    )
    restore_p.add_argument("data_dir")
    restore_p.add_argument("snapshot")
    restore_p.set_defaults(fn=_cmd_restore)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sanitize:
        from repro import sanitizer

        with sanitizer.enabled() as san:
            rc = args.fn(args)
            san.assert_clean()
            print(f"sanitizer: clean ({sum(san.event_counts.values())} events)")
            return rc
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
