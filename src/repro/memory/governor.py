"""Unified memory governor: one byte budget across the engine's caches.

The engine grows several independent caches — each collection's
string-dictionary match/decode caches, the write-ahead log's
group-commit buffer and, under a pager, the hot block pool.  Left
alone, each imposes its own ad-hoc cap (a 256-entry dictionary limit, a
fixed WAL buffer), so total cache memory is unowned: it depends on how
many collections exist and which queries ran.  The governor makes the
total explicit.  One byte budget is split across registered *tenants*
and periodically **rebalanced toward the tenants that are missing**:
a tenant whose miss counter grew since the last rebalance gets a larger
share of the pool, one that is all hits shrinks back toward its floor.

Tenant protocol (duck-typed callables supplied at registration):

``usage()``
    Current bytes held by the tenant's cache(s).
``counters()``
    ``(hits, misses)`` lifetime totals; the governor differentiates them
    between rebalances, so tenants just keep monotonic counters.
``set_budget(n)``
    Install a new byte ceiling; the tenant must evict down to it.

The governor never frees memory itself — it only moves ceilings; each
tenant owns its eviction policy (insertion-order for the match caches,
flush-to-disk for the WAL buffer, demotion for the block pool).  Shares are recomputed
proportionally to ``weight * (miss_delta + 1)`` on top of a per-tenant
floor, so a quiet tenant keeps a minimum working set and a thrashing one
can claim most of the pool without starving the others entirely.

Exposed as ``smc_governor_*`` gauges when a metrics registry is given.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

#: Fraction of the total budget reserved as equal per-tenant floors.
FLOOR_FRACTION = 0.25

#: Default operation cadence for :meth:`MemoryGovernor.maybe_rebalance`.
REBALANCE_EVERY = 64


class _Tenant:
    __slots__ = (
        "name",
        "usage",
        "counters",
        "set_budget",
        "weight",
        "share",
        "last_hits",
        "last_misses",
        "hit_delta",
        "miss_delta",
    )

    def __init__(self, name, usage, counters, set_budget, weight):
        self.name = name
        self.usage = usage
        self.counters = counters
        self.set_budget = set_budget
        self.weight = float(weight)
        self.share = 0
        self.last_hits = 0
        self.last_misses = 0
        self.hit_delta = 0
        self.miss_delta = 0


class MemoryGovernor:
    """Arbitrates one byte budget across registered cache tenants."""

    def __init__(
        self,
        budget_bytes: int,
        metrics=None,
        *,
        floor_fraction: float = FLOOR_FRACTION,
        rebalance_every: int = REBALANCE_EVERY,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("governor budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self._floor_fraction = float(floor_fraction)
        self._rebalance_every = max(1, int(rebalance_every))
        self._lock = threading.Lock()
        self._tenants: Dict[str, _Tenant] = {}
        self._ops = 0
        self.rebalances = 0
        if metrics is not None:
            metrics.gauge(
                "smc_governor_budget_bytes",
                "Total byte budget arbitrated by the memory governor",
                callback=lambda: float(self.budget_bytes),
            )
            metrics.gauge(
                "smc_governor_rebalances",
                "Budget rebalances performed by the memory governor",
                callback=lambda: float(self.rebalances),
            )
            share = metrics.gauge(
                "smc_governor_tenant_share_bytes",
                "Byte ceiling currently granted to each governor tenant",
            )
            share.attach_series(self._share_series)
            usage = metrics.gauge(
                "smc_governor_tenant_usage_bytes",
                "Bytes currently held by each governor tenant",
            )
            usage.attach_series(self._usage_series)

    # -- metric series ---------------------------------------------------

    def _share_series(self):
        with self._lock:
            return {
                (("tenant", t.name),): float(t.share)
                for t in self._tenants.values()
            }

    def _usage_series(self):
        with self._lock:
            tenants = list(self._tenants.values())
        return {(("tenant", t.name),): float(t.usage()) for t in tenants}

    # -- registration ----------------------------------------------------

    def register(
        self,
        name: str,
        *,
        usage: Callable[[], int],
        counters: Callable[[], Tuple[int, int]],
        set_budget: Callable[[int], None],
        weight: float = 1.0,
    ) -> None:
        """Add a tenant and re-split the budget over the new population."""
        tenant = _Tenant(name, usage, counters, set_budget, weight)
        hits, misses = counters()
        tenant.last_hits, tenant.last_misses = int(hits), int(misses)
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"governor tenant {name!r} already registered")
            self._tenants[name] = tenant
        self.rebalance()

    def unregister(self, name: str) -> None:
        """Remove a tenant and re-split the budget over the survivors.

        The departing tenant keeps whatever ceiling it last held (it is
        about to be torn down anyway); the survivors immediately reclaim
        its slice via the re-split, and every survivor's new share is at
        least its floor — the floors only grow when the population
        shrinks, so an unregister can never starve anyone.
        """
        with self._lock:
            if name not in self._tenants:
                raise KeyError(f"governor tenant {name!r} is not registered")
            del self._tenants[name]
        self.rebalance()

    # -- rebalancing -----------------------------------------------------

    def maybe_rebalance(self) -> bool:
        """Cheap per-operation hook; rebalances every N calls."""
        with self._lock:
            self._ops += 1
            due = self._ops % self._rebalance_every == 0
        if due:
            self.rebalance()
        return due

    def rebalance(self) -> None:
        """Recompute tenant ceilings from miss-counter growth.

        Every tenant keeps an equal floor (``floor_fraction`` of the
        budget split evenly); the remaining pool is divided proportional
        to ``weight * (miss_delta + 1)``.  The ``+1`` keeps an idle
        tenant's demand positive so a single miss cannot swing the whole
        pool, and makes the initial (no-history) split weight-equal.
        """
        with self._lock:
            tenants = list(self._tenants.values())
            if not tenants:
                return
            demands: List[float] = []
            for t in tenants:
                hits, misses = t.counters()
                t.hit_delta = max(0, int(hits) - t.last_hits)
                t.miss_delta = max(0, int(misses) - t.last_misses)
                t.last_hits, t.last_misses = int(hits), int(misses)
                demands.append(t.weight * (t.miss_delta + 1))
            floor = int(
                self._floor_fraction * self.budget_bytes / len(tenants)
            )
            pool = self.budget_bytes - floor * len(tenants)
            total_demand = sum(demands)
            for t, demand in zip(tenants, demands):
                t.share = floor + int(pool * demand / total_demand)
            self.rebalances += 1
        # Apply ceilings outside the governor lock: tenants evict under
        # their own locks and may call back into metrics.
        for t in tenants:
            t.set_budget(t.share)

    # -- introspection ---------------------------------------------------

    def usage_bytes(self) -> int:
        with self._lock:
            tenants = list(self._tenants.values())
        return sum(int(t.usage()) for t in tenants)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            tenants = list(self._tenants.values())
            out: Dict[str, object] = {
                "budget_bytes": self.budget_bytes,
                "rebalances": self.rebalances,
                "tenants": {},
            }
        total = 0
        for t in tenants:
            usage = int(t.usage())
            hits, misses = t.counters()
            total += usage
            out["tenants"][t.name] = {  # type: ignore[index]
                "share_bytes": t.share,
                "usage_bytes": usage,
                "hits": int(hits),
                "misses": int(misses),
            }
        out["usage_bytes"] = total
        return out
