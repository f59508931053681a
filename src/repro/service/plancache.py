"""Prepared-plan cache keyed on the served query's name.

Query plans are parameterised at run time (``Query.run(params=...)``),
so one built plan serves every request for the same query.  What an
entry holds is the ``Query`` tree *and the prepared scan memoised on it*
by the vectorised engine (``columnar_exec.build_scan_plan``): predicate
order, access path, zone-test templates.  A hit therefore skips plan
construction and planning alike — the request only binds its
parameters.  Hit/miss counters feed the service metrics registry.

Nothing else a request names changes what is cached: the worker count
is an execution choice made per run, and the served store's layout and
string encoding are fixed for a server's lifetime.  So the name is the
whole key, and the cache holds at most one plan per registered query —
no byte budget bounds it.

The prepared scan's decisions come from statistics and go stale as the
store grows; the staleness rule lives with them, not here: a prepared
scan records the coarse stats stamp it was made under
(``repro.query.planner.stats_stamp``) and the engine re-prepares it when
the stamp moves, so a cached ``Query`` never needs evicting for it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict


class PlanCache:
    def __init__(self, metrics=None) -> None:
        self._lock = threading.Lock()
        self._plans: Dict[str, Any] = {}
        self._hits = 0
        self._misses = 0
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

    def get_or_build(self, name: str, build: Callable[[], Any]) -> Any:
        with self._lock:
            plan = self._plans.get(name)
            if plan is not None:
                self._hits += 1
        if plan is not None:
            if self._hit_counter is not None:
                self._hit_counter.inc(query=name)
            return plan
        # Build outside the lock (plan construction can be slow); a racing
        # builder for the same name is harmless — last write wins and both
        # plans are equivalent.
        plan = build()
        with self._lock:
            self._plans[name] = plan
            self._misses += 1
        if self._miss_counter is not None:
            self._miss_counter.inc(query=name)
        return plan

    def invalidate(self) -> None:
        with self._lock:
            self._plans.clear()

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
            }
