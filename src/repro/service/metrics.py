"""Metrics registry: counters, gauges, histograms, Prometheus exposition.

The registry is deliberately dependency-free: metric objects are plain
Python with a lock per instrument, and exposition renders the standard
``# HELP`` / ``# TYPE`` text format so any Prometheus-compatible scraper
(or a test) can parse it.

Instrumentation bridges tie the registry to the engine:

* :func:`instrument_manager` registers gauges backed by
  :meth:`MemoryManager.telemetry` — global epoch, per-context limbo
  fraction, block counts, string-dict cardinality — plus counter views
  of the manager's lifetime stats (allocation/compaction rates fall out
  of scraping those counters over time) and of the query engine's
  counters in ``stats.extra`` (rows scanned, blocks pruned, parallel
  unit counts).
* :func:`instrument_exec`, :func:`instrument_tiering` and
  :func:`instrument_durability` add the process pool's, the pager's and
  the durable store's gauges when the server runs them.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 0.5 ms .. 10 s, roughly doubling.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _labelkey(labels: Optional[Dict[str, str]]) -> LabelItems:
    return tuple(sorted(labels.items())) if labels else ()


def _render_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing counter with optional labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[LabelItems, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_labelkey(labels), 0)

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(k)} {_fmt(v)}" for k, v in items
        ] or [f"{self.name} 0"]


class Gauge:
    """A value that can go up and down; optionally callback-backed.

    A callback gauge reads its value at scrape time (used for live
    telemetry like the global epoch); a plain gauge is set explicitly.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._callback = callback
        self._lock = threading.Lock()
        self._values: Dict[LabelItems, float] = {}
        #: Label-set callbacks: at scrape time each produces
        #: ``{label_items: value}`` for a dynamic population (e.g. one
        #: series per memory context).
        self._multi_callbacks: List[Callable[[], Dict[LabelItems, float]]] = []

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_labelkey(labels)] = value

    def add(self, amount: float, **labels: str) -> None:
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        if self._callback is not None and not labels:
            return self._callback()
        with self._lock:
            return self._values.get(_labelkey(labels), 0)

    def attach_series(
        self, callback: Callable[[], Dict[LabelItems, float]]
    ) -> None:
        self._multi_callbacks.append(callback)

    def samples(self) -> List[str]:
        out: List[str] = []
        if self._callback is not None:
            out.append(f"{self.name} {_fmt(float(self._callback()))}")
        for cb in self._multi_callbacks:
            for key, value in sorted(cb().items()):
                out.append(f"{self.name}{_render_labels(key)} {_fmt(float(value))}")
        with self._lock:
            items = sorted(self._values.items())
        out.extend(f"{self.name}{_render_labels(k)} {_fmt(v)}" for k, v in items)
        return out or [f"{self.name} 0"]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` records one measurement; exposition emits ``_bucket``
    series with cumulative counts per upper bound (plus ``+Inf``),
    ``_sum`` and ``_count``.  ``quantile`` interpolates within the
    winning bucket — good enough for p50/p99 reporting in benchmarks.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts: Dict[LabelItems, List[int]] = {}
        self._sums: Dict[LabelItems, float] = {}

    def _series(self, key: LabelItems) -> List[int]:
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.bounds) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        return counts

    def observe(self, value: float, **labels: str) -> None:
        key = _labelkey(labels)
        idx = bisect_right(self.bounds, value)
        with self._lock:
            counts = self._series(key)
            counts[idx] += 1
            self._sums[key] += value

    def count(self, **labels: str) -> int:
        with self._lock:
            counts = self._counts.get(_labelkey(labels))
            return sum(counts) if counts else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Approximate q-quantile (0..1) by in-bucket interpolation."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts.get(_labelkey(labels), ()))
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
            if cumulative + n >= rank:
                frac = (rank - cumulative) / n
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            cumulative += n
        return self.bounds[-1]

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(
                (k, list(v), self._sums[k]) for k, v in self._counts.items()
            )
        out: List[str] = []
        for key, counts, total_sum in items:
            cumulative = 0
            for bound, n in zip(self.bounds, counts):
                cumulative += n
                le = 'le="%s"' % _fmt(bound)
                out.append(
                    f"{self.name}_bucket{_render_labels(key, le)} {cumulative}"
                )
            cumulative += counts[-1]
            le_inf = 'le="+Inf"'
            out.append(
                f"{self.name}_bucket{_render_labels(key, le_inf)} {cumulative}"
            )
            out.append(f"{self.name}_sum{_render_labels(key)} {repr(total_sum)}")
            out.append(f"{self.name}_count{_render_labels(key)} {cumulative}")
        if not items:
            out.append(f'{self.name}_bucket{{le="+Inf"}} 0')
            out.append(f"{self.name}_sum 0")
            out.append(f"{self.name}_count 0")
        return out


class MetricsRegistry:
    """Named collection of instruments with text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        #: Snapshot providers run at scrape time and contribute extra
        #: ``name value`` lines (e.g. engine counters read from
        #: ``stats.extra``); keyed so re-registration replaces.
        self._snapshots: Dict[str, Callable[[], Dict[str, float]]] = {}

    def _register(self, metric):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} re-registered as a "
                        f"different kind"
                    )
                return existing
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._register(Gauge(name, help, callback))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def add_snapshot(
        self, key: str, provider: Callable[[], Dict[str, float]]
    ) -> None:
        with self._lock:
            self._snapshots[key] = provider

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def expose(self) -> str:
        """Render every instrument in Prometheus text format."""
        lines: List[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
            snapshots = list(self._snapshots.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.samples())
        for __, provider in sorted(snapshots):
            for name, value in sorted(provider().items()):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_fmt(float(value))}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Instrumentation bridges
# ----------------------------------------------------------------------


def instrument_manager(registry: MetricsRegistry, manager) -> None:
    """Register live gauges over *manager*'s telemetry.

    Scrape-time callbacks keep this zero-cost between scrapes; the
    per-context and per-collection series resize themselves as contexts
    and collections come and go.
    """
    epochs = manager.epochs
    registry.gauge(
        "smc_global_epoch",
        "Global reclamation epoch",
        callback=lambda: float(epochs.global_epoch),
    )
    registry.gauge(
        "smc_min_active_epoch",
        "Smallest epoch among threads inside a critical section",
        callback=lambda: float(epochs.min_active_epoch()),
    )
    registry.gauge(
        "smc_live_blocks",
        "Live mapped blocks across the address space",
        callback=lambda: float(manager.space.live_block_count),
    )
    registry.gauge(
        "smc_mapped_bytes",
        "Bytes mapped by live blocks (data + strings)",
        callback=lambda: float(manager.total_bytes()),
    )

    def _context_series(field: str) -> Callable[[], Dict[LabelItems, float]]:
        def read() -> Dict[LabelItems, float]:
            tel = manager.telemetry()
            return {
                (("context", ctx["name"]),): float(ctx[field])
                for ctx in tel["contexts"]
            }

        return read

    limbo = registry.gauge(
        "smc_context_limbo_fraction", "Limbo slots / capacity per context"
    )
    limbo.attach_series(_context_series("limbo_fraction"))
    blocks = registry.gauge(
        "smc_context_blocks", "Block count per memory context"
    )
    blocks.attach_series(_context_series("blocks"))
    live = registry.gauge("smc_context_live", "Live objects per context")
    live.attach_series(_context_series("live"))
    queue = registry.gauge(
        "smc_context_reclaim_queue", "Reclamation-queue length per context"
    )
    queue.attach_series(_context_series("reclaim_queue"))

    def _dict_series() -> Dict[LabelItems, float]:
        tel = manager.telemetry()
        return {
            (("collection", name),): float(count)
            for name, count in tel["string_dicts"].items()
        }

    dicts = registry.gauge(
        "smc_string_dict_distinct",
        "Distinct interned strings per collection dictionary",
    )
    dicts.attach_series(_dict_series)

    nav_bytes = registry.gauge(
        "smc_nav_columns_bytes",
        "Bytes of navigation columns held per memory context",
    )
    nav_bytes.attach_series(_context_series("nav_bytes"))
    nav_builds = registry.gauge(
        "smc_nav_column_builds_total",
        "Passes over a context's blocks that built navigation columns",
    )
    nav_builds.attach_series(_context_series("nav_builds"))

    def _nav_fallbacks() -> Dict[LabelItems, float]:
        tel = manager.telemetry()
        return {
            (("context", ctx["name"]), ("reason", reason)): float(count)
            for ctx in tel["contexts"]
            for reason, count in ctx["nav_fallbacks"].items()
        }

    fallbacks = registry.gauge(
        "smc_nav_column_fallbacks_total",
        "Scanned blocks per context that navigated by address, by reason",
    )
    fallbacks.attach_series(_nav_fallbacks)

    def _manager_counters() -> Dict[str, float]:
        tel = manager.telemetry()
        return {
            f"smc_{name}_total": float(value)
            for name, value in tel["counters"].items()
        }

    registry.add_snapshot("manager_counters", _manager_counters)


def instrument_exec(registry: MetricsRegistry, pool) -> None:
    """Export the process executor's worker-pool state (``smc_exec_*``).

    The gauges are scrape-time reads of the
    :class:`~repro.query.procexec.ProcessScanPool`; the lifetime
    counters (``smc_exec_morsels_dispatched_total``,
    ``smc_exec_morsels_redispatched_total``, ``smc_exec_worker_respawns
    _total`` and the per-query ``smc_exec_process_queries_total`` /
    ``smc_exec_thread_queries_total`` engine-choice split — the latter
    counts ``workers > 1`` queries the pool declined, which ran
    serially) already ride ``manager.stats.extra`` through
    :func:`instrument_manager`.
    """
    registry.gauge(
        "smc_exec_workers",
        "Scan worker processes configured for the process executor",
        callback=lambda: float(pool.workers),
    )
    registry.gauge(
        "smc_exec_workers_alive",
        "Scan worker processes currently forked and responsive",
        callback=lambda: float(pool.alive_workers()),
    )


def instrument_tiering(registry: MetricsRegistry, pager) -> None:
    """Export the pager's tiering state (``smc_tier_*``).

    Residency gauges and byte totals are scrape-time reads of the
    :class:`~repro.memory.pager.Pager`; the lifetime counters
    (``smc_tier_faults_total``, ``smc_tier_evictions_total``,
    ``smc_tier_spills_total``) already ride ``manager.stats.extra``
    through :func:`instrument_manager`.  Fault latency lands in a
    histogram via the pager's ``fault_timer`` hook.  Faults are write
    faults; what reads cost the tier shows as
    ``smc_tier_cold_reads_total`` (blocks scanned in place while cold).
    """
    registry.gauge(
        "smc_tier_budget_bytes",
        "Hot-tier byte budget the pager evicts down to",
        callback=lambda: float(pager.budget),
    )
    registry.gauge(
        "smc_tier_hot_bytes",
        "Bytes of pool blocks resident in writable hot segments",
        callback=lambda: float(pager.hot_bytes()),
    )
    registry.gauge(
        "smc_tier_cold_bytes",
        "Bytes of pool blocks demoted to read-only tier mappings",
        callback=lambda: float(pager.cold_bytes()),
    )
    registry.gauge(
        "smc_tier_file_bytes",
        "Size of the tier spill file backing cold blocks",
        callback=lambda: float(pager.telemetry()["tier_file_bytes"]),
    )

    registry.gauge(
        "smc_tier_zombie_mappings",
        "Replaced cold mappings kept alive by a reader's views",
        callback=lambda: float(pager.telemetry()["zombie_mappings"]),
    )
    registry.add_snapshot(
        "tiering",
        lambda: {
            "smc_tier_cold_reads_total": float(pager.telemetry()["cold_reads"])
        },
    )

    def _residency_series() -> Dict[LabelItems, float]:
        return {
            (("residency", state),): float(count)
            for state, count in pager.residency_counts().items()
        }

    residency = registry.gauge(
        "smc_tier_blocks", "Pool blocks by residency state"
    )
    residency.attach_series(_residency_series)

    def _context_series() -> Dict[LabelItems, float]:
        manager = pager.manager
        names = {c.context_id: c.name for c in manager._contexts}
        out: Dict[LabelItems, float] = {}
        for ctx_id, entry in pager.residency_by_context().items():
            name = names.get(ctx_id, str(ctx_id))
            for state, count in entry.items():
                out[(("context", name), ("residency", state))] = float(count)
        return out

    per_context = registry.gauge(
        "smc_tier_context_blocks",
        "Pool blocks by residency state per memory context",
    )
    per_context.attach_series(_context_series)

    faults = registry.histogram(
        "smc_tier_fault_seconds",
        "Wall-clock latency of cold-block write faults (promotion to hot)",
    )
    pager.fault_timer = faults.observe


def instrument_durability(registry: MetricsRegistry, store) -> None:
    """Export the durable store's WAL/checkpoint/recovery telemetry.

    All series are scrape-time reads of
    :meth:`~repro.durability.store.DurableStore.stats`, so they follow
    checkpoint segment rollovers without re-registration.
    """

    def _stats() -> Dict[str, float]:
        s = store.stats()
        return {
            "smc_wal_bytes_total": float(s["wal_bytes_total"]),
            "smc_wal_records_total": float(s["wal_records_total"]),
            "smc_wal_fsyncs_total": float(s["wal_fsyncs_total"]),
            "smc_wal_batches_total": float(s["wal_batches_total"]),
            "smc_checkpoints_total": float(s["checkpoints_total"]),
            "smc_recovery_replayed_total": float(
                s["recovery_replayed_total"]
            ),
        }

    registry.add_snapshot("durability", _stats)
    registry.gauge(
        "smc_wal_size_bytes",
        "Current write-ahead log segment size on disk",
        callback=lambda: float(store.stats()["wal_size_bytes"]),
    )
    registry.gauge(
        "smc_checkpoint_duration_seconds",
        "Duration of the most recent checkpoint",
        callback=lambda: float(store.stats()["checkpoint_last_duration"]),
    )
    registry.gauge(
        "smc_checkpoint_rows",
        "Rows written by the most recent checkpoint",
        callback=lambda: float(store.stats()["checkpoint_last_rows"]),
    )
    registry.gauge(
        "smc_checkpoint_bytes",
        "Size of the current checkpoint file",
        callback=lambda: float(store.stats()["checkpoint_last_bytes"]),
    )
    registry.gauge(
        "smc_snapshot_load_seconds",
        "Time recovery spent adopting the checkpoint image (replay excluded)",
        callback=lambda: float(store.stats()["snapshot_load_seconds"]),
    )
