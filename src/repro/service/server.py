"""The query service: request handling and the TCP server.

:class:`QueryService` is transport-independent — it maps request dicts
to response dicts, so tests can drive it in-process and the TCP layer
stays a thin framing loop.  :class:`ServiceServer` wraps it in a
threaded ``socket`` server speaking the length-prefixed JSON protocol
(one thread per connection; admission control, not the thread count,
bounds concurrent query execution).

Error taxonomy (the ``error`` field of a ``{"ok": false}`` response):

``OVERLOADED``
    Shed by admission control; ``reason`` is ``queue_full`` or
    ``timed_out``.  Never a silent drop — the client sees every shed.
``LEASE_EXPIRED``
    The session is unknown, released, or was idle past its TTL; open a
    new session.
``BAD_REQUEST``
    Unknown op/query or malformed arguments (a ``query`` that is not a
    string, ``params`` that are not an object, a known parameter whose
    value is not of its default's type, a ``workers`` that is not an
    integer >= 1, a ``ttl`` that is not a positive number); the detail
    names the accepted values.
``INTERNAL``
    Unexpected exception during execution (with a detail string).

A ``query`` request names a query, its ``params``, ``workers`` and a
queue ``class``; it always runs on the served collections' compiled
engine (the vectorised one), and an ``engine`` or ``flavor`` field an
older client sends is ignored.  A query's ``workers`` is capped at the
host's CPU count.  A request with ``workers > 1`` runs on the exec
process pool when the server has one and the pool takes the plan;
otherwise it runs serially.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.query import planner as _planner
from repro.service import protocol
from repro.service.admission import AdmissionController, OverloadedError
from repro.service.metrics import (
    MetricsRegistry,
    instrument_durability,
    instrument_exec,
    instrument_manager,
    instrument_tiering,
)
from repro.service.plancache import PlanCache
from repro.service.session import (
    DEFAULT_LEASE_TTL,
    SessionExpiredError,
    SessionRegistry,
)
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES


def _bad_request(detail: str) -> Dict[str, Any]:
    return {"ok": False, "error": "BAD_REQUEST", "detail": detail}


def _unknown_query(name: Any) -> Dict[str, Any]:
    known = sorted(QUERIES) + sorted(EXTRA_QUERIES)
    return _bad_request(f"unknown query {name!r}; choose from {known}")


def _lookup_query(name: Any):
    """The builder a ``query`` field names, or ``None``."""
    if not isinstance(name, str):
        return None
    return QUERIES.get(name) or EXTRA_QUERIES.get(name)


def _query_params(message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """``DEFAULT_PARAMS`` under the request's ``params`` object, or
    ``None`` when ``params`` is present but not an object of decodable
    values, or gives a known parameter a value that is not an instance
    of its default's type (a ``bool`` never passes for an ``int``)."""
    overrides = message.get("params")
    if overrides is None:
        return dict(DEFAULT_PARAMS)
    if not isinstance(overrides, dict):
        return None
    try:
        decoded = protocol.decode_value(overrides)
    except (ValueError, ArithmeticError):  # {"$t": "nope"}, {"$d": "x"}
        return None
    if not isinstance(decoded, dict):  # a tagged scalar such as {"$d": ...}
        return None
    for key, value in decoded.items():
        default = DEFAULT_PARAMS.get(key)
        if default is not None and (
            not isinstance(value, type(default)) or isinstance(value, bool)
        ):
            return None
    return {**DEFAULT_PARAMS, **decoded}


def _bad_params(message: Dict[str, Any]) -> Dict[str, Any]:
    return _bad_request(
        "params must be an object of encoded values, each known "
        f"parameter of its default's type, got {message.get('params')!r}"
    )


def _is_number(value: Any, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


class QueryService:
    """Transport-independent request handler."""

    def __init__(
        self,
        collections: Dict[str, Any],
        manager=None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_concurrency: int = 8,
        queue_depth: int = 32,
        class_timeouts: Optional[Dict[str, float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        store=None,
        exec_workers: int = 0,
    ) -> None:
        self.collections = {
            k: v for k, v in collections.items() if not k.startswith("_")
        }
        self.manager = manager or collections.get("_manager")
        if self.manager is None:
            raise ValueError("a memory manager is required")
        #: Optional :class:`~repro.durability.DurableStore` backing the
        #: served collections.  When set, the ``mutate`` op persists its
        #: changes through the write-ahead log (one group commit per
        #: request) and ``close`` checkpoints and closes the store.
        self.store = store
        #: Process pool for scatter-gather scans when ``exec_workers > 0``
        #: (requires a shared-memory manager).  The pool attaches to the
        #: manager, so the vectorised engine routes any eligible
        #: multi-worker query through it; ineligible plans run serially,
        #: visible in the smc_exec_*_queries counters.
        self.exec_pool = None
        if exec_workers:
            from repro.query.procexec import ProcessScanPool

            self.exec_pool = ProcessScanPool(
                self.manager, workers=int(exec_workers)
            )
            self.manager.exec_pool = self.exec_pool
        self.metrics = metrics or MetricsRegistry()
        instrument_manager(self.metrics, self.manager)
        if getattr(self.manager, "pager", None) is not None:
            instrument_tiering(self.metrics, self.manager.pager)
        if self.exec_pool is not None:
            instrument_exec(self.metrics, self.exec_pool)
        if store is not None:
            instrument_durability(self.metrics, store)
        self.sessions = SessionRegistry(
            self.manager, lease_ttl=lease_ttl, metrics=self.metrics
        )
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            queue_depth=queue_depth,
            class_timeouts=class_timeouts,
            metrics=self.metrics,
        )
        self.plans = PlanCache(metrics=self.metrics)
        self._requests = self.metrics.counter(
            "service_requests_total", "Requests handled, by op and status"
        )
        self._latency = self.metrics.histogram(
            "service_request_seconds", "Request handling latency, by op"
        )
        self._routed_small = self.metrics.counter(
            "smc_serve_small_scans_routed_total",
            "Multi-worker requests routed to one worker by estimated rows",
        )

    def _current_lsn(self) -> int:
        """The LSN a response is consistent with (stamped on replies)."""
        return self.store.committed_lsn if self.store is not None else 0

    # -- request dispatch ----------------------------------------------

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        start = time.perf_counter()
        try:
            if op == "hello":
                response = self._op_hello(message)
            elif op == "bye":
                response = self._op_bye(message)
            elif op == "ping":
                response = {"ok": True, "pong": True}
            elif op == "query":
                response = self._op_query(message)
            elif op == "explain":
                response = self._op_explain(message)
            elif op == "mutate":
                response = self._op_mutate(message)
            elif op == "metrics":
                response = {"ok": True, "text": self.metrics.expose()}
            elif op == "info":
                response = {
                    "ok": True,
                    "telemetry": protocol.encode_value(
                        self.manager.telemetry()
                    ),
                    "plan_cache": self.plans.stats(),
                }
            else:
                response = _bad_request(f"unknown op {op!r}")
        except OverloadedError as exc:
            response = {
                "ok": False,
                "error": "OVERLOADED",
                "reason": exc.reason,
                "queue_class": exc.queue_class,
            }
        except SessionExpiredError as exc:
            response = {
                "ok": False,
                "error": "LEASE_EXPIRED",
                "detail": str(exc),
            }
        except Exception as exc:  # noqa: BLE001 - wire boundary
            response = {
                "ok": False,
                "error": "INTERNAL",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        elapsed = time.perf_counter() - start
        status = (
            "ok" if response.get("ok") else response.get("error", "ERROR")
        )
        self._requests.inc(op=str(op), status=status)
        self._latency.observe(elapsed, op=str(op))
        return response

    # -- ops -----------------------------------------------------------

    def _op_hello(self, message: Dict[str, Any]) -> Dict[str, Any]:
        ttl = message.get("ttl")
        if ttl is not None and not (_is_number(ttl) and ttl > 0):
            return _bad_request(
                f"ttl must be a positive number of seconds or absent, "
                f"got {ttl!r}"
            )
        session = self.sessions.create(ttl)
        return {
            "ok": True,
            "session": session.session_id,
            "lease_ttl": session.ttl,
        }

    def _op_bye(self, message: Dict[str, Any]) -> Dict[str, Any]:
        released = self.sessions.release(str(message.get("session", "")))
        return {"ok": True, "released": released}

    def _op_query(self, message: Dict[str, Any]) -> Dict[str, Any]:
        name = message.get("query")
        builder = _lookup_query(name)
        if builder is None:
            return _unknown_query(name)
        workers = message.get("workers", 1)
        if not (_is_number(workers, int) and workers >= 1):
            return _bad_request(
                f"workers must be an integer >= 1, got {workers!r}"
            )
        workers = min(workers, os.cpu_count() or 1)
        queue_class = str(message.get("class", "default"))
        params = _query_params(message)
        if params is None:
            return _bad_params(message)

        session = None
        session_id = message.get("session")
        if session_id is not None:
            session = self.sessions.require(str(session_id))
            session.touch()

        # Stamp the watermark *before* execution: the data read is
        # guaranteed to reflect at least this LSN, never less.
        lsn_at_start = self._current_lsn()
        # A cached query carries its prepared scan (conjunct order,
        # access path); the engine re-prepares it itself when the
        # store's coarse stats stamp moves.
        plan = self.plans.get_or_build(name, lambda: builder(self.collections))

        # Serve-path worker routing: a query the planner estimates to
        # touch only a handful of rows is not worth a parallel fan-out —
        # run it on one worker and leave the pool to the big scans.
        # Without a pool a multi-worker request runs serially anyway, so
        # there is nothing to route.
        effective_workers = workers
        if workers > 1 and self.exec_pool is not None:
            est = _planner.estimate_query_rows(plan, params)
            effective_workers = _planner.route_workers(est, workers)
            if effective_workers != workers:
                self._routed_small.inc(query=str(name))

        self.admission.acquire(queue_class)
        try:
            if session is not None:
                session.enter()
            try:
                start = time.perf_counter()
                result = plan.run(params=params, workers=effective_workers)
                elapsed_ms = (time.perf_counter() - start) * 1000
            finally:
                if session is not None:
                    session.exit()
        finally:
            self.admission.release()
        pager = getattr(self.manager, "pager", None)
        if pager is not None:
            # Operation boundary: finish pending demotions and evict the
            # hot tier back under budget (faults during the scan may have
            # transiently exceeded it).
            pager.maintain()
        return {
            "ok": True,
            "columns": list(result.columns),
            "rows": protocol.encode_rows(result.rows),
            "elapsed_ms": elapsed_ms,
            "lsn": lsn_at_start,
        }

    def _op_explain(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """EXPLAIN surface: the planner's view of a query, no execution."""
        name = message.get("query")
        builder = _lookup_query(name)
        if builder is None:
            return _unknown_query(name)
        params = _query_params(message)
        if params is None:
            return _bad_params(message)
        query = builder(self.collections)
        text = query.explain(params=params)
        return {"ok": True, "query": str(name), "text": text}

    def _op_mutate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        from repro.durability import MutationError

        if self.store is None:
            return _bad_request("server is not running with a data directory")
        ops = message.get("ops")
        session = None
        session_id = message.get("session")
        if session_id is not None:
            session = self.sessions.require(str(session_id))
            session.touch()
        queue_class = str(message.get("class", "default"))
        self.admission.acquire(queue_class)
        try:
            if session is not None:
                session.enter()
            try:
                # One group commit per request: the whole op list rides a
                # single BEGIN/COMMIT batch and one fsync.
                try:
                    results = self.store.apply(ops)
                except MutationError as exc:
                    return _bad_request(str(exc))
            finally:
                if session is not None:
                    session.exit()
        finally:
            self.admission.release()
        committed = self.store.committed_lsn
        self.store.maybe_checkpoint()
        pager = getattr(self.manager, "pager", None)
        if pager is not None:
            pager.maintain()
        return {"ok": True, "results": results, "lsn": committed}

    def close(self) -> None:
        if self.exec_pool is not None:
            # A live pool must never outlast the service that created it.
            self.manager.exec_pool = None
            self.exec_pool.shutdown()
            self.exec_pool = None
        self.sessions.close()
        if self.store is not None:
            self.store.close(checkpoint=True)


class ServiceServer:
    """Threaded TCP front end: one connection handler thread per client."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._lock = threading.Lock()

    def start(self) -> "ServiceServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="service-conn",
                daemon=True,
            )
            with self._lock:
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
                self._conns.append(conn)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(None)
            while not self._stop.is_set():
                try:
                    message = protocol.recv_message(conn)
                except (protocol.ProtocolError, OSError):
                    break
                if message is None:
                    break
                if message.get("op") == "shutdown":
                    protocol.send_message(conn, {"ok": True, "stopping": True})
                    # Stop from a helper thread: stop() joins connection
                    # threads, so it must not run on one.  Non-daemon so
                    # service.close() (the durable store's final
                    # checkpoint) completes even if the main thread
                    # returns as soon as it sees _stop set.
                    threading.Thread(
                        target=self.stop, name="service-shutdown"
                    ).start()
                    break
                response = self.service.handle(message)
                try:
                    protocol.send_message(conn, response)
                except OSError:
                    break
        finally:
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def stop(self) -> None:
        """Stop serving, then close the service (final checkpoint)."""
        with self._lock:
            already_stopping = self._stop.is_set()
            self._stop.set()
        if already_stopping:
            # Another thread is (or has finished) tearing down — wait for
            # it so callers never race service.close()'s final checkpoint.
            self._stopped.wait(timeout=60.0)
            return
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            threads = list(self._conn_threads)
            conns = list(self._conns)
            self._conns.clear()
        # Unblock handler threads parked in recv().
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5.0)
        try:
            self.service.close()
        finally:
            self._stopped.set()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
