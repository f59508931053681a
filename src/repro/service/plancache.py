"""Prepared-plan cache keyed on (query, layout, encoding, engine).

Query plans are parameterised at run time (``Query.run(params=...)``),
so one built plan serves every request for the same query shape.  What
an entry holds is the ``Query`` tree *and the prepared scans memoised on
it* by the vectorised engine (``columnar_exec.build_scan_plan``):
predicate order, access path, zone-test templates.  A hit therefore
skips plan construction and planning alike — the request only binds its
parameters.  Hit/miss counters feed the service metrics registry.

Those decisions come from statistics and go stale as the store grows;
the staleness rule lives with them, not here: a prepared scan records
the coarse stats stamp it was made under
(``repro.query.planner.stats_stamp``) and the engine re-prepares it when
the stamp moves, so a cached ``Query`` never needs evicting for it.

The cache is also a governor tenant: plans are charged a nominal byte
cost and evicted oldest-first when the installed budget shrinks below
the held total.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple

PlanKey = Tuple[str, str, str, Any]

#: Nominal bytes charged per cached plan.  Plans are small object graphs
#: (expression trees + compiled-function references) whose true footprint
#: is unmeasurable without walking them; a flat charge keeps the governor
#: arithmetic honest about *count* pressure, which is what matters here.
NOMINAL_PLAN_BYTES = 8192


class PlanCache:
    def __init__(self, metrics=None, budget_bytes: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._plans: Dict[PlanKey, Any] = {}
        self._budget = budget_bytes
        self._hits = 0
        self._misses = 0
        self.capacity_evictions = 0
        if metrics is not None:
            self._hit_counter = metrics.counter(
                "service_plan_cache_hits_total", "Prepared-plan cache hits"
            )
            self._miss_counter = metrics.counter(
                "service_plan_cache_misses_total", "Prepared-plan cache misses"
            )
            metrics.gauge(
                "service_plan_cache_size",
                "Prepared plans currently cached",
                callback=lambda: float(self.size),
            )
        else:
            self._hit_counter = self._miss_counter = None

    @staticmethod
    def key_for(
        query_name: str, layout: str, encoding: str, engine: Any
    ) -> PlanKey:
        """*engine* is whatever hashable names the execution options
        (engine, flavour, workers, pruning, planner)."""
        return (query_name, layout, encoding, engine)

    def _evict_to_budget_locked(self) -> None:
        if self._budget is None:
            return
        limit = max(1, self._budget // NOMINAL_PLAN_BYTES)
        while len(self._plans) > limit:
            oldest = next(iter(self._plans))
            del self._plans[oldest]
            self.capacity_evictions += 1

    def get_or_build(self, key: PlanKey, build: Callable[[], Any]) -> Any:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
        if plan is not None:
            if self._hit_counter is not None:
                self._hit_counter.inc(query=key[0])
            return plan
        # Build outside the lock (plan construction can be slow); a racing
        # builder for the same key is harmless — last write wins and both
        # plans are equivalent.
        plan = build()
        with self._lock:
            self._plans[key] = plan
            self._misses += 1
            self._evict_to_budget_locked()
        if self._miss_counter is not None:
            self._miss_counter.inc(query=key[0])
        return plan

    def invalidate(self) -> None:
        with self._lock:
            self._plans.clear()

    # -- governor tenant hooks ------------------------------------------

    def usage_bytes(self) -> int:
        with self._lock:
            return len(self._plans) * NOMINAL_PLAN_BYTES

    def set_budget(self, budget: Optional[int]) -> None:
        with self._lock:
            self._budget = budget
            self._evict_to_budget_locked()

    def counters(self) -> Tuple[int, int]:
        with self._lock:
            return self._hits, self._misses

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._plans),
                "capacity_evictions": self.capacity_evictions,
            }
