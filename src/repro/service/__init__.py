"""Concurrent query service over self-managed collections.

The service layer turns the query engines into a serving system:

``metrics``
    Counters, gauges and latency histograms with Prometheus-style text
    exposition, instrumented through the memory core and query engines.
``session``
    Session registry with idle-TTL expiry.  A request's epoch pin is the
    critical section of the thread that handles it, so a dead client
    cannot wedge limbo reclamation.
``admission``
    Bounded admission controller with per-class timeouts and explicit
    ``OVERLOADED`` load-shedding.
``plancache``
    Prepared-plan cache keyed on (query, layout, encoding, engine).
``protocol``
    Length-prefixed JSON wire protocol with exact value round-trips.
``server`` / ``client``
    Threaded TCP server (``repro serve``) and client library.

The client is imported on first use (PEP 562): a server never needs it.

See ``docs/service.md`` for the protocol and policies.
"""

import importlib

from repro.service.admission import AdmissionController, OverloadedError
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.plancache import PlanCache
from repro.service.server import QueryService, ServiceServer
from repro.service.session import Session, SessionRegistry

_LAZY = {
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ServiceOverloadedError": "repro.service.client",
    "ServiceSessionExpired": "repro.service.client",
}

__all__ = [
    "AdmissionController",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OverloadedError",
    "PlanCache",
    "QueryService",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceServer",
    "ServiceSessionExpired",
    "Session",
    "SessionRegistry",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
