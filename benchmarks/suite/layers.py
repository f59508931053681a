"""Per-layer metrics of one traced run, by name.

Three sources, all outside ``src/``:

* **scrape** — deltas of the server's ``metrics`` / ``info`` ops taken
  just before and just after the window (counts and ratios);
* **reply** — the ``elapsed_ms`` every query reply carries;
* **span** — the wrappers ``traced_serve.py`` installs (busy and self
  time), summed over the window and divided by the calls they served.

A metric a workload does not exercise reads 0 (``memory.tier_faults``
on ``scan_mix`` is the point of having both workloads).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List

from loadgen import Samples, percentile
from workloads import query_of

_QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q10", "q12", "q14"]


def span_stats(dumps: Iterable[Dict[str, Any]]) -> Dict[str, List[int]]:
    """``{span name: [calls, busy ns, self ns]}`` over the given dumps.

    A span nested in one of its own name (a subquery's ``Query.run``
    inside the outer one) adds to self time only: calls and busy time
    count outermost spans, so busy/calls is time per top-level call.
    """
    stats: Dict[str, List[int]] = {}
    for dump in dumps:
        names = dump["names"]
        for thread in dump["threads"]:
            children = [0] * len(thread)
            for span in thread:
                if span is not None and span[3] >= 0:
                    children[span[3]] += span[2] - span[1]
            for span, child_ns in zip(thread, children):
                if span is None:
                    continue
                busy = span[2] - span[1]
                entry = stats.setdefault(names[span[0]], [0, 0, 0])
                entry[2] += busy - child_ns - span[5]
                parent = span[3]
                while parent >= 0 and thread[parent] and thread[parent][0] != span[0]:
                    parent = thread[parent][3]
                if parent < 0:
                    entry[0] += 1
                    entry[1] += busy
        for name, (calls, busy, self_ns) in dump["leaves"].items():
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_ns
    return stats


def _per(total: float, calls: float, scale: float) -> float:
    return total / calls / scale if calls else 0.0


def _mean(values: List[float], scale: float) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def compute(obs: Dict[str, Any]) -> Dict[str, float]:
    """All per-layer metrics of a run from what it observed (see
    ``run.py`` for the keys of *obs*)."""
    before, after = obs["scrape0"], obs["scrape1"]

    def delta(name: str) -> float:
        def total(scrape):
            return sum(
                v for k, v in scrape.items()
                if k == name or k.startswith(name + "{")
            )
        return total(after) - total(before)

    def gauge(name: str) -> float:
        return after.get(name, 0.0)

    def ratio(hit: float, miss: float) -> float:
        return hit / (hit + miss) if hit + miss else 0.0

    spans = span_stats(obs["window_traces"])

    def column(i: int):
        return lambda name: spans.get(name, (0, 0, 0))[i]

    calls, busy, self_ns = column(0), column(1), column(2)

    reader: Samples = obs["reader"]
    replies = [r for __, r in reader.replies if r.get("ok")]
    elapsed_ms = sum(r.get("elapsed_ms", 0.0) for r in replies)
    latency_ms = sum(reader.latency) * 1000
    result_rows = sum(len(r.get("rows", ())) for r in replies)
    requests = calls("service.handle")
    queries = calls("query.run")

    m: Dict[str, float] = {}

    # -- client: the generator's own cost and the ungated tails ---------
    m["client.samples"] = len(reader.latency)
    m["client.encode_send_us"] = _mean(reader.send, 1e6)
    m["client.wait_ms"] = _mean(reader.wait, 1e3)
    m["client.decode_us"] = _mean(reader.decode, 1e6)
    m["client.query_p50_ms"] = percentile(reader.latency, 0.5) * 1e3
    m["client.query_p95_ms"] = percentile(reader.latency, 0.95) * 1e3
    m["client.query_p99_ms"] = percentile(reader.latency, 0.99) * 1e3
    m["client.query_qps_c2"] = obs.get("qps_c2", 0.0)
    mutate = obs.get("mutate", [])
    m["client.mutate_p50_ms"] = percentile(mutate, 0.5) * 1e3 if mutate else 0.0
    m["client.mutate_p95_ms"] = percentile(mutate, 0.95) * 1e3 if mutate else 0.0
    m["client.write_stall_max_ms"] = max(mutate) * 1e3 if mutate else 0.0
    m["client.reader_qps"] = len(reader.latency) / reader.wall
    m["client.restart_to_first_answer_s"] = obs["restart_s"]

    # -- service -----------------------------------------------------------
    m["service.overhead_share"] = 1 - elapsed_ms / latency_ms if replies else 0.0
    m["service.ping_us"] = statistics.median(obs["pings"]) * 1e6
    m["service.handle_self_us"] = _per(self_ns("service.handle"), requests, 1e3)
    m["service.admission_wait_us"] = _per(busy("service.admission_acquire"), requests, 1e3)
    m["service.session_us"] = _per(
        busy("service.session_require") + busy("service.session_enter")
        + busy("service.session_exit"), requests, 1e3)
    m["service.plan_cache_us"] = _per(busy("service.plan_cache"), requests, 1e3)
    m["service.plan_cache_hit_ratio"] = ratio(
        delta("service_plan_cache_hits_total"),
        delta("service_plan_cache_misses_total"))
    m["service.encode_us"] = _per(
        busy("service.encode_rows") + busy("service.send_message"), requests, 1e3)
    m["service.decode_us"] = _per(
        busy("service.load_message"), calls("service.load_message"), 1e3)
    m["service.shed_total"] = delta("service_requests_shed_total")

    # -- query ---------------------------------------------------------------
    m["query.run_ms"] = _per(busy("query.run"), queries, 1e6)
    m["query.plan_us"] = _per(
        busy("query.plan_scan") + busy("query.estimate_rows"), queries, 1e3)
    m["query.build_plan_us"] = _per(busy("query.build_scan_plan"), queries, 1e3)
    m["query.compile_ms"] = _per(busy("query.get_compiled"), queries, 1e6)
    m["query.compiled_cache_hit_ratio"] = ratio(
        delta("smc_compiled_cache_hits_total"),
        delta("smc_compiled_cache_misses_total"))
    m["query.scan_ms"] = _per(busy("query.run_columnar"), queries, 1e6)
    m["query.rows_scanned_per_s"] = delta("smc_scan_rows_total") / reader.wall
    m["query.rows_scanned_per_result"] = (
        delta("smc_scan_rows_total") / result_rows if result_rows else 0.0)
    m["query.zone_pruned_ratio"] = ratio(
        delta("smc_zone_pruned_blocks_total"),
        delta("smc_zone_scanned_blocks_total"))
    by_query: Dict[str, List[float]] = {}
    for index, reply in reader.replies:
        if reply.get("ok"):
            name = query_of(obs["reader_keys"][index][0])
            by_query.setdefault(name, []).append(reply["elapsed_ms"])
    for name in _QUERIES:
        values = by_query.get(name)
        m[f"query.{name}_ms"] = statistics.median(values) if values else 0.0
    m["query.parallel_ms"] = _per(busy("query.run_parallel"), queries, 1e6)
    m["query.procexec_ms"] = _per(busy("query.procexec_run"), queries, 1e6)
    m["query.morsels_dispatched"] = delta("smc_exec_morsels_dispatched_total")
    m["query.morsels_redispatched"] = delta("smc_exec_morsels_redispatched_total")
    m["query.procexec_process_share"] = ratio(
        delta("smc_exec_process_queries_total"),
        delta("smc_exec_thread_queries_total"))
    m["query.procexec_respawns"] = delta("smc_exec_worker_respawns_total")

    # -- memory: pager ---------------------------------------------------------
    tier0 = obs["info0"].get("tier") or {}
    tier1 = obs["info1"].get("tier") or {}
    faults = delta("smc_tier_faults_total")
    m["memory.tier_faults"] = faults
    m["memory.tier_evictions"] = delta("smc_tier_evictions_total")
    m["memory.tier_spills"] = delta("smc_tier_spills_total")
    m["memory.tier_fault_ms"] = _per(delta("smc_tier_fault_seconds_sum"), faults, 1e-3)
    m["memory.tier_touch_hit_ratio"] = ratio(
        tier1.get("touch_hits", 0) - tier0.get("touch_hits", 0), faults)
    m["memory.tier_hot_bytes"] = gauge("smc_tier_hot_bytes")
    m["memory.tier_file_bytes"] = gauge("smc_tier_file_bytes")
    m["memory.pager_maintain_ms"] = _per(busy("memory.pager_maintain"), requests, 1e6)
    m["memory.zonemap_ensure_us"] = _per(busy("memory.zonemap_ensure"), queries, 1e3)

    # -- memory: allocator; core ------------------------------------------------
    m["memory.alloc_us"] = _per(
        self_ns("memory.allocate_object"), calls("memory.allocate_object"), 1e3)
    m["memory.free_us"] = _per(
        self_ns("memory.free_object"), calls("memory.free_object"), 1e3)
    m["memory.epoch_advances"] = delta("smc_epoch_advances_total")
    m["memory.limbo_reuses"] = delta("smc_limbo_reuses_total")
    m["memory.blocks_allocated"] = delta("smc_blocks_allocated_total")
    m["core.add_us"] = _per(self_ns("core.add"), calls("core.add"), 1e3)
    m["core.remove_us"] = _per(self_ns("core.remove"), calls("core.remove"), 1e3)
    m["core.compactions"] = delta("smc_compactions_total")
    m["core.relocations"] = delta("smc_relocations_total")

    # -- durability ----------------------------------------------------------------
    row_ops = obs.get("row_ops", 0)
    checkpoint_s = busy("durability.checkpoint") / 1e9
    m["durability.apply_ms"] = _per(
        busy("durability.apply"), calls("durability.apply"), 1e6)
    m["durability.wal_append_us"] = _per(
        self_ns("durability.wal_append"), calls("durability.wal_append"), 1e3)
    m["durability.wal_fsync_ms"] = _per(
        busy("durability.wal_sync"), calls("durability.wal_sync"), 1e6)
    m["durability.wal_fsyncs"] = delta("smc_wal_fsyncs_total")
    m["durability.wal_bytes_per_op"] = (
        delta("smc_wal_bytes_total") / row_ops if row_ops else 0.0)
    m["durability.checkpoints"] = delta("smc_checkpoints_total")
    m["durability.checkpoint_s"] = checkpoint_s
    m["durability.checkpoint_rows_per_s"] = (
        gauge("smc_checkpoint_rows") / checkpoint_s if checkpoint_s else 0.0)
    restarts = [span_stats([dump]) for dump in obs.get("restart_traces", [])]
    recover = [s["durability.recover"] for s in restarts if "durability.recover" in s]
    m["durability.recover_s"] = (
        statistics.median(r[1] for r in recover) / 1e9 if recover else 0.0)
    # Replay is recovery minus the snapshot load it contains.
    replay_s = statistics.median(r[2] for r in recover) / 1e9 if recover else 0.0
    m["durability.replay_records_per_s"] = (
        obs.get("replayed", 0) / replay_s if replay_s else 0.0)
    m["durability.data_dir_bytes"] = obs.get("data_dir_bytes", 0)

    # -- io, tpch: start-up and build ------------------------------------------------
    start = span_stats(obs["start_traces"])
    loads, load_ns, __ = start.get("io.load_collections", [0, 0, 0])
    load_s = _per(load_ns, loads, 1e9)
    m["io.snapshot_load_s"] = load_s
    m["io.snapshot_load_rows_per_s"] = obs["rows_loaded"] / load_s if load_s else 0.0
    gen = span_stats([obs["gen_trace"]])
    m["io.snapshot_save_s"] = gen["io.save_collections"][1] / 1e9
    m["io.snapshot_bytes"] = obs["snapshot_bytes"]
    m["tpch.generate_s"] = gen["tpch.generate"][1] / 1e9
    m["tpch.load_rows_per_s"] = obs["rows_generated"] / (gen["tpch.load_smc"][1] / 1e9)

    # -- trace ---------------------------------------------------------------------------
    m["trace.overhead_ratio"] = obs["untraced_rate"] / obs["traced_rate"]
    m["trace.spans"] = sum(
        sum(1 for s in t if s is not None)
        for d in obs["window_traces"] for t in d["threads"])
    return m
