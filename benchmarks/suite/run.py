#!/usr/bin/env python3
"""One served-TPC-H benchmark: five workloads against the real server.

    python benchmarks/suite/run.py                         # all five, untraced
    python benchmarks/suite/run.py --traced                # ... then a traced pass
    python benchmarks/suite/run.py --workload short_mix --seed 7
    python benchmarks/suite/run.py --workload scan_mix --seed 3 --seconds 8 --trace 0
    python benchmarks/suite/run.py --smoke                 # SF 0.002, 2 s windows
    python benchmarks/suite/run.py --regen-golden

Each run starts ``python -m repro serve`` as a subprocess, drives it over
TCP in closed loops from this one process, checks every answer against
``golden.json`` and prints every metric by name with its unit.  With
``--trace`` given (the form ``BENCHMARK.json`` declares) exactly one run
is made and the last line of stdout is its result object: end-to-end
metrics for ``--trace 0``, per-layer metrics for ``--trace 1``.  See
``README.md`` for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dataset  # noqa: E402
import layers  # noqa: E402
from loadgen import (  # noqa: E402
    Conn, QueryLoop, RefreshWriter, Samples, digest, median_request,
)
from serverproc import (  # noqa: E402
    ROOT, SRC, SUITE, Server, child_env, loop_core, pin, scrape, tree_bytes,
)
from workloads import (  # noqa: E402
    FULL_TABLE_PARAMS,
    GRIDS,
    LIVE_BATCHES,
    ORDER_LAG,
    SCALE_FACTOR,
    WORKLOADS,
    encode_refresh,
    every_point,
    frame,
    owner_rows,
    query_message,
    query_sequence,
    refresh_batches,
)

#: The cores this process may use, before any loop pins itself.
ALL_CORES = os.sched_getaffinity(0)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None

#: Cold starts per read-workload run; ``setup_s`` is their median and the
#: last one serves the workload.
COLD_STARTS = 2
#: Restarts after the SIGKILL on ``write_refresh``.
RESTARTS = 3
#: Pre-framed requests per client; the loop wraps around when they run out.
SEQUENCE_LENGTH = 4000
#: ``write_refresh`` is sized by work, not time.  The warm cycles bring the
#: writer to its steady state of 100 row ops a cycle; the cycles it then
#: writes alone cross the server's 16 MiB checkpoint threshold once, around
#: cycle 535; those it writes beside the reader bring the WAL tail the
#: restarts replay to more than 20 000 records.
WARM_CYCLES = LIVE_BATCHES + ORDER_LAG
ALONE_CYCLES = 580
BESIDE_CYCLES = 220
#: In a traced write run, the cycles measured before the request-path
#: wrappers are installed (the base of ``trace.overhead_ratio``).
TRACE_BASE_CYCLES = 200
SMOKE_SF = 0.002


class Run:
    """Bookkeeping of one run: requests attempted and failed, leaks."""

    def __init__(self, scratch: Path, golden: Dict[str, str]) -> None:
        self.scratch = scratch
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.leaked: List[str] = []
        self.servers: List[Server] = []

    def problem(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    def check(self, key: str, reply: Dict[str, Any]) -> None:
        """Count one query reply: an error, OVERLOADED or a digest that
        differs from the golden one is a failure."""
        self.attempted += 1
        if not reply.get("ok"):
            self.problem(f"{key}: {reply.get('error')} {reply.get('detail', '')}")
        elif digest(reply) != self.golden[key]:
            self.problem(f"{key}: wrong answer")

    def check_samples(self, samples: Samples, keys, digests: bool = True) -> None:
        for error in samples.errors:
            self.attempted += 1
            self.problem(f"client: {error}")
        for index, reply in samples.replies:
            grid, point = keys[index]
            if digests:
                self.check(f"{grid}#{point}", reply)
            else:
                self.attempted += 1
                if not reply.get("ok"):
                    self.problem(f"{grid}: {reply.get('error')} {reply.get('detail', '')}")

    def start(self, serve_args: List[str], trace: Optional[str],
              cores: Optional[Set[int]] = None) -> Tuple[Server, Conn]:
        trace_out = self.scratch / f"{trace}.json" if trace else None
        server = Server(serve_args, self.scratch, trace_out, cores)
        self.servers.append(server)
        return server, server.wait_ready()

    def stop(self, server: Server, graceful: bool = True) -> None:
        self.leaked += server.stop(graceful)

    def trace(self, name: str) -> Dict[str, Any]:
        return json.loads((self.scratch / f"{name}.json").read_text())


def first_answer(run: Run, conn: Conn, grid: str, workers: int) -> None:
    """The first query a fresh server answers, checked like any other."""
    reply = conn.call(query_message(grid, GRIDS[grid][0], workers, conn.hello()))
    run.check(f"{grid}#0", reply)


def warm_up(run: Run, conn: Conn, mix: List[str], workers: int) -> None:
    """Every grid point of the mix once: builds plans, compiles, fills
    match caches and settles tier residency — and checks each answer
    before any window is timed."""
    for grid, point in every_point(mix):
        reply = conn.call(query_message(grid, GRIDS[grid][point], workers, conn.session))
        run.check(f"{grid}#{point}", reply)


def time_pings(conn: Conn, count: int = 200) -> List[float]:
    request = frame({"op": "ping"})
    times = []
    for __ in range(count):
        start = time.perf_counter()
        conn.exchange(request)
        times.append(time.perf_counter() - start)
    return times


def reader_loop(port, mix, workers, seed, seconds, stop=None):
    keys = query_sequence(mix, seed, SEQUENCE_LENGTH)

    def requests_for(session: str) -> List[bytes]:
        return [
            frame(query_message(g, GRIDS[g][p], workers, session)) for g, p in keys
        ]

    return QueryLoop(port, requests_for, seconds, stop), keys


def query_p50_ms(samples: Samples, keys) -> float:
    kinds = [keys[index][0] for index, __ in samples.replies]
    return median_request(samples.latency, kinds) * 1e3


def snapshot_state(conn: Conn) -> Tuple[Dict[str, float], Dict[str, Any]]:
    return scrape(conn), conn.call({"op": "info"})["telemetry"]


def live_rows(scraped: Dict[str, float]) -> float:
    return sum(v for k, v in scraped.items() if k.startswith("smc_context_live{"))


def traced_gen(run: Run, sf: float) -> Dict[str, Any]:
    """Generate the dataset once more under the tracer, for ``tpch.*``
    and ``io.snapshot_save_s`` (the cached build is not timed per run)."""
    out = run.scratch / "gen.smcsnap"
    subprocess.run(
        [sys.executable, str(SUITE / "traced_serve.py"), "--trace-out",
         str(run.scratch / "gen.json"), "gen", "--sf", str(sf), "--out", str(out)],
        env=child_env(run.scratch), check=True, stdout=subprocess.DEVNULL,
    )
    out.unlink()
    return run.trace("gen")


# ----------------------------------------------------------------------
# The four read workloads
# ----------------------------------------------------------------------


def run_read(name: str, seed: int, seconds: float, traced: bool,
             data: dataset.Dataset, run: Run) -> Dict[str, Any]:
    spec = WORKLOADS[name]
    mix, workers = spec["mix"], spec["workers"]
    serve_args = [str(data.snapshot), *spec["flags"]]
    # One closed loop: this thread and the server share one core.
    cores = loop_core() if spec.get("one_core") else None
    if cores:
        os.sched_setaffinity(0, cores)
    starts = []
    # A traced run reports no set-up time, so it starts once.
    for i in range(1 if traced else COLD_STARTS):
        if i:
            conn.close()
            run.stop(server)
        server, conn = run.start(serve_args, "serve" if traced else None, cores)
        first_answer(run, conn, mix[0], workers)
        starts.append((server.ping_s, time.perf_counter() - server.spawned))
    warm_up(run, conn, mix, workers)
    pings = time_pings(conn)
    obs: Dict[str, Any] = {"pings": pings}

    if traced:
        # Per-layer numbers are shares and per-call times: half a window
        # gives them, after a quarter for the untraced base.
        seconds /= 2
        base, keys = reader_loop(server.port, mix, workers, seed, seconds / 2)
        base.run()
        run.check_samples(base.samples, keys)
        obs["untraced_rate"] = base.samples.rate(len(mix))
        server.trace_on()
    obs["scrape0"], obs["info0"] = snapshot_state(conn)
    loop, keys = reader_loop(server.port, mix, workers, seed, seconds)
    loop.run()
    obs["scrape1"], obs["info1"] = snapshot_state(conn)
    rss = server.read_peak_rss()
    reader = loop.samples
    run.check_samples(reader, keys)
    obs.update(reader=reader, reader_keys=keys)

    if traced and spec.get("two_clients"):
        # Two loops at once: they and the server get every core back.
        os.sched_setaffinity(0, ALL_CORES)
        pin(server.pid, ALL_CORES)
        pair = [reader_loop(server.port, mix, workers, seed + 1000 + i, seconds / 2)
                for i in range(2)]
        for client, __ in pair:
            client.start()
        for client, client_keys in pair:
            client.join()
            run.check_samples(client.samples, client_keys)
        wall = max(c.samples.ended for c, __ in pair) - min(c.samples.started for c, __ in pair)
        obs["qps_c2"] = sum(len(c.samples.latency) for c, __ in pair) / wall

    conn.close()
    run.stop(server)
    if traced:
        obs["traced_rate"] = reader.rate(len(mix))
        obs["window_traces"] = obs["start_traces"] = [run.trace("serve")]
        obs["rows_loaded"] = live_rows(obs["scrape1"])
        obs["restart_s"] = starts[0][1]
        return obs
    return {
        "setup_s": statistics.median(p for p, __ in starts),
        "ops_per_s": reader.rate(len(mix)),
        "query_p50_ms": query_p50_ms(reader, keys),
        "server_peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# write_refresh
# ----------------------------------------------------------------------


def lineitem_count(reply: Dict[str, Any]) -> int:
    return sum(row[-1] for row in reply["rows"])  # count_order per group


def run_write(seed: int, seconds: float, traced: bool, fixed_work: bool,
              data: dataset.Dataset, run: Run) -> Dict[str, Any]:
    spec = WORKLOADS["write_refresh"]
    mix = spec["mix"]
    datadir = run.scratch / "D"
    shutil.copytree(data.template, datadir)
    serve_args = ["--data-dir", str(datadir), *spec["flags"]]
    # One core while one loop runs (writer alone, reader alone, restarts);
    # every core for the phase where writer and reader run side by side.
    cores = loop_core()
    os.sched_setaffinity(0, cores)
    server, conn = run.start(serve_args, "serve" if traced else None, cores)
    first_answer(run, conn, mix[0], 1)
    starts = [server.ping_s]
    rows_loaded = live_rows(scrape(conn))

    # Set-up: bench-owned dimension rows, framed batches, warm paths.
    owned: Dict[str, int] = {}
    for collection, values, refs in owner_rows():
        values = dict(values, **{f: {"$r": owned[t]} for f, t in refs.items()})
        reply = conn.call({"op": "mutate", "session": conn.session, "ops": [
            {"op": "add", "collection": collection, "values": values}]})
        run.attempted += 1
        if not reply.get("ok"):
            raise RuntimeError(f"set-up mutate refused: {reply}")
        owned[collection] = reply["results"][0]["entry"]
    # Fixed work with a generous time limit, or (smoke) whatever fits the
    # window: 200 cycles a second is beyond any server here.
    alone_cycles, beside_cycles = (
        (ALONE_CYCLES, BESIDE_CYCLES) if fixed_work
        else (int(150 * seconds), int(50 * seconds)))
    alone_s, beside_s = (120.0, 120.0) if fixed_work else (0.75 * seconds, 0.25 * seconds)
    batches = refresh_batches(seed, WARM_CYCLES + alone_cycles + beside_cycles)
    writer_conn = Conn(server.port)
    writer = RefreshWriter(writer_conn, *encode_refresh(batches, writer_conn.hello(), owned),
                           LIVE_BATCHES, ORDER_LAG)
    warm_up(run, conn, mix, 1)
    base_rows = lineitem_count(conn.call(query_message("q1", FULL_TABLE_PARAMS, 1, conn.session)))
    writer.run(WARM_CYCLES, 60.0)
    pings = time_pings(conn)
    obs: Dict[str, Any] = {"pings": pings}
    mutate: List[float] = []  # latency of every mutate between the scrapes
    row_ops = 0

    def write(n_cycles: int, limit: float) -> Samples:
        """The next cycles of the refresh sequence, from this thread."""
        nonlocal row_ops
        samples = writer.run(n_cycles, limit)
        run.attempted += len(samples.latency) + len(samples.errors)
        for error in samples.errors:
            run.problem(f"writer: {error}")
        mutate.extend(samples.latency)
        row_ops += sum(writer.batch_ops)
        return samples

    def mutate_rate() -> float:
        """Row ops per second of mutate time in the last segment written,
        the checkpoint stall left out."""
        pairs = [(n, t) for n, t in zip(writer.batch_ops, writer.samples.latency) if t < 1.0]
        return sum(n for n, __ in pairs) / sum(t for __, t in pairs)

    # Phase 1, the writer alone: ``ops_per_s``.  The checkpoint is in here.
    if traced:
        write(TRACE_BASE_CYCLES, alone_s)
        obs["untraced_rate"] = mutate_rate()
        alone_cycles -= TRACE_BASE_CYCLES
        server.trace_on()
        mutate.clear()
        row_ops = 0
    obs["scrape0"], obs["info0"] = snapshot_state(conn)
    alone = write(alone_cycles, alone_s)
    alone_ops = sum(writer.batch_ops)
    if traced:
        obs["traced_rate"] = mutate_rate()
    checkpoints = scrape(conn)["smc_checkpoints_total"] - obs["scrape0"]["smc_checkpoints_total"]
    if fixed_work and checkpoints != 1:
        run.problem(f"writer-alone phase held {checkpoints:.0f} checkpoints, sized for exactly 1")

    # Phase 2, the writer beside one closed-loop reader, on every core.
    # Rows change under the reader, so its answers are checked for ``ok``
    # only; the count check below covers the writes.
    os.sched_setaffinity(0, ALL_CORES)
    pin(server.pid, ALL_CORES)
    stop = threading.Event()
    loop, keys = reader_loop(server.port, mix, 1, seed, 600.0, stop)
    loop.start()
    write(beside_cycles, beside_s)
    stop.set()
    loop.join()
    reader = loop.samples
    run.check_samples(reader, keys, digests=False)
    os.sched_setaffinity(0, cores)
    pin(server.pid, cores)
    obs["scrape1"], obs["info1"] = snapshot_state(conn)
    rss = server.read_peak_rss()
    obs.update(reader=reader, reader_keys=keys, mutate=mutate, row_ops=row_ops)

    # Quiesce: every acknowledged write is visible, and stays so.
    expected = base_rows + writer.rows_added - writer.rows_removed
    quiesced = conn.call(query_message("q1", FULL_TABLE_PARAMS, 1, conn.session))
    run.attempted += 1
    if not quiesced.get("ok") or lineitem_count(quiesced) != expected:
        run.problem(f"quiesce: expected {expected} lineitems, got {quiesced.get('rows')}")
    # Phase 3, read-after-refresh: the reader alone on the store the
    # writer left.  Beside the writer its median swings 2x from run to run
    # with the interpreter lock's scheduling (reported as
    # client.query_p50_ms of the traced run), so the gated query_p50_ms is
    # taken here.  The store holds bench rows now, so answers are checked
    # for ok and for being the same every time, not against golden.
    after, after_keys = reader_loop(server.port, mix, 1, seed, seconds / (4 if traced else 2))
    after.run()
    run.check_samples(after.samples, after_keys, digests=False)
    seen: Dict[Tuple[str, int], str] = {}
    for index, reply in after.samples.replies:
        answer = digest(reply)
        if seen.setdefault(after_keys[index], answer) != answer:
            run.problem(f"{after_keys[index]}: answer changed on a quiescent store")
    obs["data_dir_bytes"] = tree_bytes(datadir)
    conn.close()
    writer_conn.close()

    restarts = []
    for i in range(RESTARTS):
        if traced:
            server.trace_dump()
        killed = time.perf_counter()
        run.stop(server, graceful=False)
        server, conn = run.start(serve_args, f"restart{i}" if traced else None, cores)
        reply = conn.call(query_message("q1", FULL_TABLE_PARAMS, 1, conn.hello()))
        restarts.append(time.perf_counter() - killed)
        starts.append(server.ping_s)
        run.attempted += 1
        if not reply.get("ok") or digest(reply) != digest(quiesced):
            run.problem(f"restart {i}: full-table digest differs from the one at quiesce")
    obs["replayed"] = scrape(conn)["smc_recovery_replayed_total"]
    conn.close()
    if traced:
        server.trace_dump()
    run.stop(server, graceful=False)

    if traced:
        obs["window_traces"] = obs["start_traces"] = [run.trace("serve")]
        obs["restart_traces"] = [run.trace(f"restart{i}") for i in range(RESTARTS)]
        obs["rows_loaded"] = rows_loaded
        obs["restart_s"] = statistics.median(restarts)
        return obs
    return {
        "setup_s": statistics.median(starts),
        "ops_per_s": alone_ops / alone.wall,
        "query_p50_ms": query_p50_ms(after.samples, after_keys),
        "server_peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# One run, with teardown and leak accounting
# ----------------------------------------------------------------------


def sweep_orphans(run: Run) -> None:
    """Kill any server still alive and remove what it left behind."""
    for server in run.servers:
        if server.proc.poll() is None:
            server.kill_group()
        for path in server.artifacts():
            run.leaked.append(path)
            try:
                os.unlink(path)
            except OSError:
                pass


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 data: dataset.Dataset, smoke: bool = False) -> Dict[str, Any]:
    """Run one workload once; returns its result record."""
    started = time.perf_counter()
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=dataset.CACHE))
    run = Run(scratch, data.golden())
    values: Dict[str, float] = {}
    try:
        if name == "write_refresh":
            out = run_write(seed, seconds, traced, not smoke, data, run)
        else:
            out = run_read(name, seed, seconds, traced, data, run)
        if traced:
            gen = traced_gen(run, data.sf)
            out.update(gen_trace=gen, snapshot_bytes=data.info["snapshot_bytes"],
                       rows_generated=out["rows_loaded"])
            values = layers.compute(out)
        else:
            values = out
    except Exception as exc:  # noqa: BLE001 - report, tear down, fail the run
        run.attempted += 1
        run.problem(f"{type(exc).__name__}: {exc}")
    finally:
        sweep_orphans(run)
        shutil.rmtree(scratch, ignore_errors=True)
        os.sched_setaffinity(0, ALL_CORES)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    missing = sorted(set(declared) - set(values))
    if missing and not run.failed:
        run.problem(f"metrics not measured: {missing}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": run.failed == 0 and not run.leaked,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "problems": run.problems,
        "leaked_artifacts": run.leaked,
        "wall_s": time.perf_counter() - started,
        "metrics": {
            k: {"value": values[k], "unit": declared[k]} for k in declared if k in values
        },
    }


# ----------------------------------------------------------------------
# Host fingerprint, printing, command line
# ----------------------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    ).stdout.strip()
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "not a git checkout",
        "loadavg_start": load,
        "noisy_host": load > nproc / 2,
    }


def print_record(record: Dict[str, Any]) -> None:
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']} seed {record['seed']} ({mode}, "
          f"{record['wall_s']:.1f} s wall) ==")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"leaked_artifacts {record['leaked_artifacts']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def contract_line(record: Dict[str, Any]) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def validate_schema(records: List[Dict[str, Any]]) -> List[str]:
    """The output-schema check ``--smoke`` runs."""
    errors = []
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[kind]]
        limit = 16 if kind == "end_to_end" else 128
        if len(names) > limit:
            errors.append(f"{len(names)} {kind} metrics, at most {limit} allowed")
        errors += [f"bad metric name {n!r}" for n in names if not _NAME.match(n)]
    for record in records:
        where = f"{record['workload']} ({'traced' if record['traced'] else 'untraced'})"
        declared = SPEC["per_layer" if record["traced"] else "end_to_end"]
        for metric in declared:
            if metric["name"] not in record["metrics"]:
                errors.append(f"{where}: {metric['name']} missing")
        if record["failed"] or not record["correct"]:
            errors.append(f"{where}: failed {record['failed']}, "
                          f"leaked {record['leaked_artifacts']}: {record['problems']}")
        if not record["traced"]:
            errors += [f"{where}: {k} is not positive"
                       for k, m in record["metrics"].items() if not m["value"] > 0]
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="make exactly one run and end stdout with its result object")
    parser.add_argument("--traced", action="store_true",
                        help="after the untraced runs, make a traced pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write all results to this JSON file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    if SPEC is None or not (SRC / "repro").is_dir():
        print("run.py needs BENCHMARK.json and src/repro of a full checkout "
              f"under {ROOT}", file=sys.stderr)
        return 2
    if args.regen_golden:
        dataset.regen_golden()
        return 0
    signal.signal(signal.SIGTERM, lambda s, f: sys.exit(143))  # run the finally blocks

    host = host_fingerprint()
    if host["noisy_host"]:
        print(f"noisy_host: load average {host['loadavg_start']:.2f} exceeds "
              f"half of {host['nproc']} cores before the first window")
    seconds = args.seconds or (2.0 if args.smoke else float(SPEC["run_seconds"]))
    data = dataset.ensure(SMOKE_SF if args.smoke else SCALE_FACTOR)
    host.update(scale_factor=data.sf, datagen_seed=data.info["datagen_seed"],
                dataset_build_s=data.info["build_s"])

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace), data)
        print_record(record)
        print(contract_line(record))
        return 0 if record["correct"] else 1

    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = list(range(args.seed, args.seed + args.runs))
    records = []
    for traced in (False, True) if args.traced or args.smoke else (False,):
        for name in names:
            # One traced pass is enough; seeds matter for the gated numbers.
            for seed in seeds[:1] if traced else seeds:
                records.append(run_workload(name, seed, seconds, traced, data, args.smoke))
                print_record(records[-1])
    host["loadavg_end"] = os.getloadavg()[0]
    host["seeds"] = seeds
    result = {"host": host, "runs": records}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    print("host:", json.dumps(host))
    ok = all(r["correct"] for r in records)
    if args.smoke:
        errors = validate_schema(records)
        for error in errors:
            print(f"SCHEMA: {error}")
        ok = ok and not errors
        print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
