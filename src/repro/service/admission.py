"""Admission control: bounded concurrency, class timeouts, load-shedding.

The controller guards the query-execution stage with a semaphore sized
to ``max_concurrency`` plus a bounded waiting room of ``queue_depth``.
A request that finds the waiting room full is shed immediately; one
that waits longer than its queue class's timeout is shed with
``timed_out``.  Shedding is always an explicit ``OVERLOADED`` response
(the server maps :class:`OverloadedError` onto the wire) — never a
silent drop, so a closed-loop client can distinguish saturation from
failure and back off.

Queue classes let a client give its cheap requests (``interactive``)
less patience than bulk query traffic (``batch``): the class is the
client's choice, named in the request's ``class`` field, and each class
carries its own admission timeout and its own shed counters.  Only
``query`` and ``mutate`` requests pass admission: ping, metrics and the
other control ops never wait here.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

#: Per-class admission timeouts (seconds).  ``default`` applies to any
#: class without an explicit entry.
DEFAULT_CLASS_TIMEOUTS = {
    "interactive": 1.0,
    "default": 5.0,
    "batch": 15.0,
}


class OverloadedError(Exception):
    """Request shed by admission control; ``reason`` says why."""

    def __init__(self, reason: str, queue_class: str) -> None:
        super().__init__(f"overloaded ({reason}, class={queue_class})")
        self.reason = reason
        self.queue_class = queue_class


class AdmissionController:
    def __init__(
        self,
        max_concurrency: int = 8,
        queue_depth: int = 32,
        class_timeouts: Optional[Dict[str, float]] = None,
        metrics=None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.class_timeouts = dict(DEFAULT_CLASS_TIMEOUTS)
        if class_timeouts:
            self.class_timeouts.update(class_timeouts)
        self._slots = threading.Semaphore(max_concurrency)
        self._lock = threading.Lock()
        self._running = 0
        self._waiting = 0
        if metrics is not None:
            self._admitted = metrics.counter(
                "service_requests_admitted_total",
                "Requests admitted past admission control",
            )
            self._shed = metrics.counter(
                "service_requests_shed_total",
                "Requests shed with OVERLOADED, by class and reason",
            )
            self._wait_hist = metrics.histogram(
                "service_admission_wait_seconds",
                "Time spent waiting for an execution slot",
            )
            metrics.gauge(
                "service_requests_running",
                "Requests currently executing",
                callback=lambda: float(self.running),
            )
            metrics.gauge(
                "service_requests_waiting",
                "Requests queued for an execution slot",
                callback=lambda: float(self.waiting),
            )
        else:
            self._admitted = self._shed = self._wait_hist = None

    @property
    def running(self) -> int:
        with self._lock:
            return self._running

    @property
    def waiting(self) -> int:
        with self._lock:
            return self._waiting

    def timeout_for(self, queue_class: str) -> float:
        return self.class_timeouts.get(
            queue_class, self.class_timeouts["default"]
        )

    def acquire(self, queue_class: str = "default") -> None:
        """Admit one request or raise :class:`OverloadedError`.

        Fast path: a free slot admits immediately.  Otherwise the request
        joins the bounded waiting room (full room → shed ``queue_full``)
        and blocks on the semaphore up to its class timeout (expiry →
        shed ``timed_out``).
        """
        if self._slots.acquire(blocking=False):
            with self._lock:
                self._running += 1
            if self._admitted is not None:
                self._admitted.inc(queue_class=queue_class)
                self._wait_hist.observe(0.0, queue_class=queue_class)
            return
        with self._lock:
            if self._waiting >= self.queue_depth:
                shed = True
            else:
                self._waiting += 1
                shed = False
        if shed:
            if self._shed is not None:
                self._shed.inc(queue_class=queue_class, reason="queue_full")
            raise OverloadedError("queue_full", queue_class)
        start = time.monotonic()
        try:
            admitted = self._slots.acquire(timeout=self.timeout_for(queue_class))
        finally:
            with self._lock:
                self._waiting -= 1
        if not admitted:
            if self._shed is not None:
                self._shed.inc(queue_class=queue_class, reason="timed_out")
            raise OverloadedError("timed_out", queue_class)
        with self._lock:
            self._running += 1
        if self._admitted is not None:
            self._admitted.inc(queue_class=queue_class)
            self._wait_hist.observe(
                time.monotonic() - start, queue_class=queue_class
            )

    def release(self) -> None:
        with self._lock:
            self._running -= 1
        self._slots.release()

    class _Slot:
        __slots__ = ("_ctl", "_queue_class")

        def __init__(self, ctl: "AdmissionController", queue_class: str) -> None:
            self._ctl = ctl
            self._queue_class = queue_class

        def __enter__(self) -> None:
            self._ctl.acquire(self._queue_class)

        def __exit__(self, *exc) -> None:
            self._ctl.release()

    def slot(self, queue_class: str = "default") -> "_Slot":
        """Context manager: admit on enter, release on exit."""
        return self._Slot(self, queue_class)
