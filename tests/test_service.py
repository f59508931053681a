"""Query service: metrics, admission, sessions, protocol, differential TCP.

The differential tests pin the service's core contract: every supported
TPC-H query returns byte-identical results through the TCP service —
any worker count, and beside a client writing through ``mutate`` — as
via the in-process engine.  The session tests pin the reclamation
guarantee: a session's request is pinned by the critical section of the
thread serving it, from entry to reply and no longer, so a dead or
stalled client cannot block epoch advancement.
"""

import datetime
import os
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest

import repro
from repro.memory.manager import MemoryManager
from repro.service.admission import AdmissionController, OverloadedError
from repro.service.metrics import (
    Histogram,
    MetricsRegistry,
    instrument_manager,
)
from repro.service.plancache import PlanCache
from repro.service.session import SessionExpiredError, SessionRegistry
from repro.service import protocol


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_counter_and_labels():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "requests")
    c.inc()
    c.inc(2, op="query")
    assert c.value() == 1
    assert c.value(op="query") == 2
    with pytest.raises(ValueError):
        c.inc(-1)
    text = reg.expose()
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{op="query"} 2' in text


def test_gauge_callback_and_series():
    reg = MetricsRegistry()
    g = reg.gauge("depth", "queue depth", callback=lambda: 7.0)
    assert g.value() == 7.0
    s = reg.gauge("per_ctx")
    s.attach_series(lambda: {(("context", "A"),): 3.0})
    text = reg.expose()
    assert "depth 7" in text
    assert 'per_ctx{context="A"} 3' in text


def test_histogram_buckets_and_quantiles():
    h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
    for v in [0.005] * 50 + [0.05] * 40 + [0.5] * 10:
        h.observe(v)
    assert h.count() == 100
    assert h.quantile(0.5) <= 0.1
    assert 0.1 <= h.quantile(0.99) <= 1.0
    samples = "\n".join(h.samples())
    assert 'lat_bucket{le="0.01"} 50' in samples
    assert 'lat_bucket{le="+Inf"} 100' in samples
    assert "lat_count 100" in samples


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    # Same-kind re-registration returns the existing instrument.
    assert reg.counter("x") is reg.counter("x")


def test_instrument_manager_exposes_memory_telemetry(manager):
    from repro.core.collection import Collection
    from tests.schemas import TNote

    notes = Collection(TNote, manager=manager)
    for i in range(20):
        notes.add(text=f"t{i % 3}", stars=i % 5)
    reg = MetricsRegistry()
    instrument_manager(reg, manager)
    text = reg.expose()
    assert "smc_global_epoch" in text
    assert 'smc_context_limbo_fraction{context="TNote"}' in text
    assert 'smc_string_dict_distinct{collection="TNote"} 3' in text
    assert "smc_allocations_total 20" in text


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def test_admission_bounds_concurrency_and_sheds_on_full_queue():
    ctl = AdmissionController(max_concurrency=1, queue_depth=0)
    ctl.acquire()
    with pytest.raises(OverloadedError) as exc:
        ctl.acquire()
    assert exc.value.reason == "queue_full"
    ctl.release()
    ctl.acquire()  # slot free again
    ctl.release()


def test_admission_class_timeout_sheds():
    ctl = AdmissionController(
        max_concurrency=1,
        queue_depth=4,
        class_timeouts={"interactive": 0.05, "default": 0.05},
    )
    ctl.acquire()
    start = time.monotonic()
    with pytest.raises(OverloadedError) as exc:
        ctl.acquire("interactive")
    assert exc.value.reason == "timed_out"
    assert time.monotonic() - start < 2.0
    ctl.release()


def test_admission_queue_admits_when_slot_frees():
    ctl = AdmissionController(max_concurrency=1, queue_depth=4)
    ctl.acquire()
    admitted = threading.Event()

    def waiter():
        ctl.acquire("batch")
        admitted.set()
        ctl.release()

    t = threading.Thread(target=waiter)
    t.start()
    time.sleep(0.05)
    assert not admitted.is_set()
    ctl.release()
    t.join(timeout=5)
    assert admitted.is_set()


def test_admission_metrics_count_sheds():
    reg = MetricsRegistry()
    ctl = AdmissionController(max_concurrency=1, queue_depth=0, metrics=reg)
    ctl.acquire()
    with pytest.raises(OverloadedError):
        ctl.acquire("batch")
    ctl.release()
    shed = reg.get("service_requests_shed_total")
    assert shed.value(queue_class="batch", reason="queue_full") == 1


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------


def test_plan_cache_hits_and_misses(tpch_tiny):
    from repro.service.server import QueryService
    from repro.tpch.loader import load_smc

    reg = MetricsRegistry()
    cache = PlanCache(metrics=reg)
    built = []

    def build():
        built.append(1)
        return object()

    a = cache.get_or_build("q1", build)
    b = cache.get_or_build("q1", build)
    assert a is b
    assert len(built) == 1
    assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}
    cache.get_or_build("q6", build)
    assert cache.stats()["size"] == 2
    cache.invalidate()
    assert cache.stats()["size"] == 0

    # Served: one plan per query name, whatever else a request names.
    # Engine and worker count are choices of the run, and "prune" /
    # "planner" fields are served as if absent.
    collections = load_smc(tpch_tiny)
    service = QueryService(collections, collections["_manager"])
    try:
        rows = set()
        for workers in range(1, 9):
            for engine in ("compiled", "interpreted"):
                for flags in ({}, {"prune": True, "planner": True}):
                    reply = service.handle(
                        {"op": "query", "query": "q6", "engine": engine,
                         "workers": workers, **flags}
                    )
                    assert reply["ok"], reply
                    rows.add(repr(reply["rows"]))
        assert len(rows) == 1
        stats = service.handle({"op": "info"})["plan_cache"]
        assert (stats["size"], stats["misses"]) == (1, 1)
    finally:
        service.close()
        collections["_manager"].close()


# ----------------------------------------------------------------------
# Sessions (TTL expiry)
# ----------------------------------------------------------------------


def test_require_refuses_a_session_idle_past_its_ttl(manager):
    """Expiry needs no sweep: ``require`` itself refuses a stale session."""
    registry = SessionRegistry(manager, lease_ttl=30.0)
    session = registry.create(ttl=0.01)
    time.sleep(0.02)
    with pytest.raises(SessionExpiredError):
        registry.require(session.session_id)
    assert session.expired
    assert registry.count() == 0


def test_create_sweeps_stale_sessions(manager):
    registry = SessionRegistry(manager, lease_ttl=30.0)
    stale = registry.create(ttl=0.01)
    time.sleep(0.02)
    fresh = registry.create()
    assert stale.expired and not fresh.expired
    assert registry.get(stale.session_id) is None
    assert registry.require(fresh.session_id) is fresh


def test_stalled_session_pins_nothing_and_reclamation_proceeds():
    """A client that stalls after a reply, still within its TTL, holds no
    section: limbo piled up during its request is reclaimed without the
    session being expired or released."""
    from repro.core.collection import Collection
    from tests.schemas import TNote

    manager = MemoryManager(block_shift=10, reclamation_threshold=0.0)
    registry = SessionRegistry(manager, lease_ttl=30.0)
    try:
        notes = Collection(TNote, manager=manager)
        handles = [notes.add(text=f"x{i}", stars=0) for i in range(64)]

        session = registry.create()
        session.enter()  # a request is in flight on this thread
        pinned = threading.Thread(target=manager.advance_epoch)
        pinned.start()
        pinned.join(timeout=10.0)
        # Another thread advanced once past the entry epoch; no further.
        advanced = []
        other = threading.Thread(
            target=lambda: advanced.append(manager.advance_epoch())
        )
        other.start()
        other.join(timeout=10.0)
        assert advanced == [False]
        for h in handles[:48]:
            notes.remove(h)  # limbo piles up during the request
        session.exit()  # reply sent; the client now stalls, never says bye

        assert not session.expired
        assert registry.require(session.session_id) is session
        assert manager.epochs.min_active_epoch() == manager.epochs.global_epoch
        assert manager.advance_epoch()
        assert manager.advance_epoch()
        before = manager.stats.limbo_reuses
        for i in range(48):
            notes.add(text=f"y{i}", stars=1)
        assert manager.stats.limbo_reuses > before
    finally:
        registry.close()
        manager.close()


# ----------------------------------------------------------------------
# Protocol codec
# ----------------------------------------------------------------------


def test_protocol_value_roundtrip_exact():
    rows = [
        (Decimal("123.4500"), datetime.date(1998, 9, 2), 1.5, 7, "x", None),
        (Decimal("-0.01"), datetime.date(1992, 1, 1), 0.1 + 0.2, -1, "", True),
    ]
    decoded = protocol.decode_rows(protocol.encode_rows(rows))
    assert repr(decoded) == repr(rows)
    for (a, b) in zip(decoded[0], rows[0]):
        assert type(a) is type(b) or b is None


def test_protocol_framing_roundtrip():
    msg = {"op": "query", "rows": [[{"$d": "1.5"}]]}
    frame = protocol.dump_message(msg)
    assert protocol.load_message(frame[4:]) == msg
    with pytest.raises(protocol.ProtocolError):
        protocol.load_message(b"[1, 2]")  # not an object
    with pytest.raises(protocol.ProtocolError):
        protocol.load_message(b"\xff\xfe")


# ----------------------------------------------------------------------
# End-to-end service (in-process handler + TCP)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_service(tpch_tiny):
    """A served TPC-H dataset plus in-process baselines for every query."""
    from repro.service.server import QueryService, ServiceServer
    from repro.tpch.loader import load_smc
    from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

    collections = load_smc(tpch_tiny)
    manager = collections["_manager"]
    plain = {k: v for k, v in collections.items() if not k.startswith("_")}
    builders = dict(QUERIES)
    builders.update(EXTRA_QUERIES)
    baselines = {
        name: builder(plain).run(engine="compiled", params=DEFAULT_PARAMS)
        for name, builder in builders.items()
    }
    service = QueryService(collections, manager, max_concurrency=4)
    server = ServiceServer(service).start()
    yield {
        "server": server,
        "service": service,
        "manager": manager,
        "baselines": baselines,
    }
    server.stop()
    manager.close()


def _assert_identical(result, baseline):
    assert list(result.columns) == list(baseline.columns)
    assert repr(result.rows) == repr(baseline.rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_differential_all_queries_over_tcp(tpch_service, workers):
    from repro.service.client import ServiceClient

    with ServiceClient(port=tpch_service["server"].port) as client:
        for name, baseline in tpch_service["baselines"].items():
            _assert_identical(client.query(name, workers=workers), baseline)


def test_differential_under_concurrent_mutators(tpch_tiny, tpch_service, tmp_path):
    """Byte-identical TPC-H answers beside a client writing through ``mutate``.

    The served manager backs a durable store.  A writer client adds and
    removes batches of scratch rows through the write-ahead log and, as
    no wire op compacts, compacts the worn scratch collection in process
    every few batches; 4 KiB blocks give it worn blocks to relocate.
    """
    from repro.core.collection import Collection
    from repro.durability import DurableStore
    from repro.service.client import ServiceClient
    from repro.service.server import QueryService, ServiceServer
    from repro.tpch.loader import load_smc
    from tests.schemas import TNote

    collections = load_smc(tpch_tiny, manager=MemoryManager(block_shift=12))
    manager = collections["_manager"]
    scratch = collections["scratch"] = Collection(
        TNote, manager=manager, name="scratch"
    )
    store = DurableStore.create(str(tmp_path / "dd"), collections=collections)
    service = QueryService(collections, manager, store=store, max_concurrency=4)
    server = ServiceServer(service).start()
    stop = threading.Event()
    committed = []
    relocations = []
    errors = []

    def writer():
        try:
            with ServiceClient(port=server.port) as client:
                previous = []
                while not stop.is_set() or len(committed) < 8:
                    n = len(committed)
                    ops = [
                        {
                            "op": "add",
                            "collection": "scratch",
                            "values": {"text": f"w{n}-{i}", "stars": i % 5},
                        }
                        for i in range(64)
                    ]
                    # Three of every four rows of the previous batch go:
                    # the blocks wear below the compaction threshold.
                    ops += [
                        {"op": "remove", "collection": "scratch", "entry": e}
                        for i, e in enumerate(previous)
                        if i % 4
                    ]
                    results = client.mutate(ops)
                    previous = [r["entry"] for r in results[:64]]
                    committed.append(len(ops))
                    if len(committed) % 4 == 0:
                        relocations.append(
                            scratch.compact(occupancy_threshold=0.6)
                        )
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    thread = threading.Thread(target=writer, name="mutate-writer")
    thread.start()
    try:
        deadline = time.monotonic() + 30.0
        while not (committed or errors) and time.monotonic() < deadline:
            time.sleep(0.01)
        with ServiceClient(port=server.port) as client:
            for __ in range(3):
                for name, baseline in tpch_service["baselines"].items():
                    _assert_identical(client.query(name, workers=2), baseline)
    finally:
        stop.set()
        thread.join(timeout=60)
        server.stop()
        manager.close()
    assert not thread.is_alive()
    assert not errors, errors
    assert len(committed) > 0
    assert sum(relocations) > 0


def test_concurrent_clients_differential(tpch_service):
    from repro.service.client import ServiceClient

    port = tpch_service["server"].port
    baselines = tpch_service["baselines"]
    failures = []

    def worker(names):
        try:
            with ServiceClient(port=port) as client:
                for name in names:
                    _assert_identical(client.query(name), baselines[name])
        except Exception as exc:  # noqa: BLE001 - collected for assertion
            failures.append(exc)

    names = list(baselines)
    threads = [
        threading.Thread(target=worker, args=(names[i::4],)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures


def test_unknown_query_and_op_are_bad_requests(tpch_service):
    service = tpch_service["service"]
    for message in (
        {"op": "query", "query": "q99"},
        {"op": "frobnicate"},
        {"op": "replicate"},
        {"op": "lsn"},
        {"op": "promote"},
        {"op": "query", "query": "q6", "workers": "abc"},
        {"op": "query", "query": "q6", "workers": -4},
        {"op": "query", "query": "q6", "params": "garbage"},
        {"op": "query", "query": "q6", "params": {"date": {"$t": "nope"}}},
        {"op": "query", "query": "q6", "params": {"q6_disc_lo": "abc"}},
        {"op": "query", "query": "q6", "params": {"q6_quantity": [1]}},
        {"op": "query", "query": "q6", "params": {"q6_date": 5}},
        {"op": "query", "query": "q2", "params": {"q2_size": True}},
        {"op": "explain", "query": "q6", "params": {"q6_date": 5}},
        {"op": "query", "query": ["q6"]},
        {"op": "explain", "query": "q6", "params": "garbage"},
        {"op": "explain", "query": ["q6"]},
        {"op": "hello", "ttl": "x"},
    ):
        reply = service.handle(message)
        assert reply["error"] == "BAD_REQUEST", message


def test_generated_flavor_refuses_a_foreign_source(tpch_tiny):
    """Generated ``smc-safe`` code is written for row blocks: over
    columnar blocks (or over a managed list) it is refused with
    ``CompileError`` before a byte is decoded."""
    from repro.core.collection import Collection
    from repro.managed.collections_ import ManagedList
    from repro.query.compiler import CompileError
    from repro.tpch.loader import load_smc
    from repro.tpch.queries import DEFAULT_PARAMS, QUERIES
    from tests.schemas import TNote

    columnar = load_smc(tpch_tiny, columnar=True)
    manager = columnar["_manager"]
    try:
        for name in ("q1", "q3", "q6"):
            query = QUERIES[name](columnar)
            with pytest.raises(CompileError):
                query.run(engine="smc-safe", params=DEFAULT_PARAMS)

        notes = ManagedList(TNote)
        notes.add(text="a", stars=1)
        with pytest.raises(CompileError):
            notes.query().select(s=TNote.stars).run(engine="smc-safe")
        smc = Collection(TNote, manager=manager)
        smc.add(text="a", stars=1)
        assert smc.query().select(s=TNote.stars).run(engine="smc-safe").rows == [(1,)]
    finally:
        manager.close()


def test_query_and_explain_ignore_engine_and_flavor(tpch_tiny):
    """The wire names a query, not an engine: a served ``query`` or
    ``explain`` always runs the store's compiled engine, and an
    ``engine`` or ``flavor`` field is ignored, even one naming code the
    served columnar blocks cannot run."""
    import json

    from repro.service.server import QueryService
    from repro.tpch.loader import load_smc

    columnar = load_smc(tpch_tiny, columnar=True)
    manager = columnar["_manager"]
    service = QueryService(columnar, manager)
    ignored = (
        {"flavor": "smc-safe"},
        {"flavor": "bogus"},
        {"engine": "interpreted"},
        {"engine": "bogus", "flavor": "managed"},
    )
    try:
        for name in ("q1", "q3", "q6"):
            plain = service.handle({"op": "query", "query": name})
            text = service.handle({"op": "explain", "query": name})["text"]
            assert plain["ok"] and plain["rows"], (name, plain)
            for extra in ignored:
                reply = service.handle({"op": "query", "query": name, **extra})
                assert reply["ok"], (name, extra, reply)
                assert json.dumps(reply["rows"]) == json.dumps(plain["rows"])
                reply = service.handle({"op": "explain", "query": name, **extra})
                assert reply["text"] == text, (name, extra)
    finally:
        service.close()
        manager.close()


def test_client_connect_retry_rides_out_slow_start(tmp_path):
    """ServiceClient's bounded retry connects to a server that
    comes up shortly after the first attempt is refused."""
    import socket

    from repro.core.collection import Collection
    from repro.service.client import ServiceClient
    from repro.service.server import QueryService, ServiceServer
    from tests.schemas import TNote

    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # the port is now free — and refused

    manager = MemoryManager()
    colls = {"notes": Collection(TNote, manager=manager, name="notes")}
    service = QueryService(colls, manager)
    holder = {}

    def late_start():
        time.sleep(0.3)
        holder["server"] = ServiceServer(
            service, "127.0.0.1", port
        ).start()

    thread = threading.Thread(target=late_start, daemon=True)
    thread.start()
    try:
        with pytest.raises(OSError):
            ServiceClient(port=port, retries=0, timeout=2.0)
        client = ServiceClient(
            port=port, retries=10, backoff=0.05, timeout=5.0
        )
        assert client.ping()
        client.close()
    finally:
        thread.join(timeout=10)
        if "server" in holder:
            holder["server"].stop()


def test_expired_session_gets_lease_expired(tpch_service):
    service = tpch_service["service"]
    hello = service.handle({"op": "hello", "ttl": 0.01})
    assert hello["ok"]
    time.sleep(0.02)
    assert service.sessions.sweep() >= 1
    reply = service.handle(
        {"op": "query", "query": "q6", "session": hello["session"]}
    )
    assert reply["error"] == "LEASE_EXPIRED"


def test_killed_client_cannot_wedge_epoch(tpch_service):
    """Abruptly closing a client's socket must not pin the epoch forever."""
    import socket as socket_mod

    from repro.service import protocol as proto

    server = tpch_service["server"]
    manager = tpch_service["manager"]
    sock = socket_mod.create_connection(("127.0.0.1", server.port))
    proto.send_message(sock, {"op": "hello", "ttl": 0.05})
    reply = proto.recv_message(sock)
    session_id = reply["session"]
    # Simulate a client killed mid-flight: run one query (so the session
    # is live), then vanish without bye.
    proto.send_message(
        sock, {"op": "query", "query": "q6", "session": session_id}
    )
    proto.recv_message(sock)
    sock.close()

    service = tpch_service["service"]
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if service.sessions.get(session_id) is None:
            break
        service.sessions.sweep()
        time.sleep(0.02)
    assert service.sessions.get(session_id) is None
    # Epoch advancement is unobstructed.
    assert manager.advance_epoch()
    assert manager.advance_epoch()


def test_in_flight_session_request_pins_the_epoch(tpch_service, monkeypatch):
    """A session's request is pinned by its serving thread's section:
    while the query is parked mid-flight another thread advances at most
    once past the entry epoch, and the reply leaves nothing pinned."""
    from repro.query import columnar_exec

    service = tpch_service["service"]
    epochs = tpch_service["manager"].epochs
    session_id = service.handle({"op": "hello"})["session"]
    parked, go = threading.Event(), threading.Event()
    run_serial = columnar_exec._run_serial

    def gated(plan):
        parked.set()
        go.wait(timeout=10.0)
        return run_serial(plan)

    monkeypatch.setattr(columnar_exec, "_run_serial", gated)
    replies = []
    request = {"op": "query", "query": "q6", "session": session_id}
    reader = threading.Thread(
        target=lambda: replies.append(service.handle(request))
    )
    reader.start()
    try:
        assert parked.wait(timeout=10.0), "query never reached the scan"
        entry = epochs.min_active_epoch()
        for __ in range(3):
            epochs.try_advance()
        assert epochs.global_epoch == entry + 1
        assert all(key > 0 for key in epochs._contexts)
    finally:
        go.set()
        reader.join(timeout=10.0)
    assert replies and replies[0]["ok"], replies
    assert epochs.min_active_epoch() == epochs.global_epoch
    service.handle({"op": "bye", "session": session_id})


def test_hello_then_bye_releases_the_session(tpch_service):
    service = tpch_service["service"]
    session_id = service.handle({"op": "hello"})["session"]
    assert service.sessions.get(session_id) is not None
    assert "lease-watchdog" not in {t.name for t in threading.enumerate()}
    bye = {"op": "bye", "session": session_id}
    assert service.handle(bye) == {"ok": True, "released": True}
    assert service.handle(bye) == {"ok": True, "released": False}
    reply = service.handle(
        {"op": "query", "query": "q6", "session": session_id}
    )
    assert reply["error"] == "LEASE_EXPIRED"


def test_server_forgets_closed_connections(tpch_service):
    from repro.service.client import ServiceClient

    server = tpch_service["server"]
    for __ in range(20):
        with ServiceClient(port=server.port, open_session=False) as client:
            assert client.ping()
    deadline = time.monotonic() + 5.0
    while server._conns and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(server._conns) == 0


def test_query_workers_capped_at_cpu_count(tpch_tiny, tpch_service, monkeypatch):
    """On a one-core host a ``workers: 8`` request is capped to one
    worker and never reaches the process pool; on two it does."""
    from repro.query import planner
    from repro.service.server import QueryService
    from repro.tpch.loader import load_smc

    collections = load_smc(tpch_tiny, shm=True)
    manager = collections["_manager"]
    service = QueryService(collections, manager, exec_workers=1)
    # Keep the fan-out: the tiny dataset would route q1 to one worker.
    monkeypatch.setattr(planner, "SMALL_SCAN_ROWS", 0)
    extra = manager.stats.extra
    try:
        for cpus, pooled in ((1, 0), (2, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            before = extra.get("exec_process_queries", 0)
            reply = service.handle({"op": "query", "query": "q1", "workers": 8})
            assert reply["ok"], reply
            assert extra.get("exec_process_queries", 0) - before == pooled, cpus
            assert repr(protocol.decode_rows(reply["rows"])) == repr(
                tpch_service["baselines"]["q1"].rows
            )
    finally:
        service.close()
        manager.close()


def test_service_sheds_with_explicit_overloaded(tpch_tiny):
    from repro.service.client import ServiceClient, ServiceOverloadedError
    from repro.service.server import QueryService, ServiceServer
    from repro.tpch.loader import load_smc

    collections = load_smc(tpch_tiny)
    manager = collections["_manager"]
    service = QueryService(
        collections,
        manager,
        max_concurrency=1,
        queue_depth=0,
        class_timeouts={"default": 0.05},
    )
    server = ServiceServer(service).start()
    try:
        # Hold the only slot so every query is shed immediately.
        service.admission.acquire()
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceOverloadedError) as exc:
                client.query("q6")
            assert exc.value.reason == "queue_full"
        service.admission.release()
        with ServiceClient(port=server.port) as client:
            assert client.query("q6").rows  # recovers after release
    finally:
        server.stop()
        manager.close()


def test_metrics_scrape_over_tcp(tpch_service):
    from repro.service.client import ServiceClient

    with ServiceClient(port=tpch_service["server"].port) as client:
        client.query("q1")
        text = client.metrics()
    assert "# TYPE service_requests_total counter" in text
    assert "smc_global_epoch" in text
    assert "service_plan_cache_misses_total" in text
    assert 'service_request_seconds_bucket{op="query",le="+Inf"}' in text
    assert "smc_scan_rows_total" in text


def test_info_reports_plan_cache_and_telemetry(tpch_service):
    from repro.service.client import ServiceClient

    with ServiceClient(port=tpch_service["server"].port) as client:
        client.query("q3")
        client.query("q3")
        info = client.info()
    tel = info["telemetry"]
    assert tel["global_epoch"] >= 0
    assert any(ctx["name"] == "Lineitem" for ctx in tel["contexts"])
    assert tel["string_dicts"]["Lineitem"] > 0
    stats = info["plan_cache"]
    assert stats["misses"] >= 1
    assert stats["hits"] >= 1


# ----------------------------------------------------------------------
# Start-up: what a snapshot server imports
# ----------------------------------------------------------------------

#: Modules a server answering queries over a snapshot never runs: the
#: durability package, the client, the TPC-H generator and
#: loaders, and the managed / RDBMS baselines the loaders pull in.
_NOT_SERVED = {
    "repro.durability",
    "repro.durability.checkpoint",
    "repro.durability.recovery",
    "repro.durability.store",
    "repro.durability.wal",
    "repro.service.client",
    "repro.tpch.loader",
    "repro.tpch.datagen",
    "repro.managed",
    "repro.managed.collections_",
    "repro.rdbms",
    "repro.rdbms.table",
    "multiprocessing.shared_memory",
}


def test_serve_imports_only_what_a_snapshot_server_runs():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli, repro.service.server; print(*sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.service.server" in out
    assert not _NOT_SERVED & set(out)
    # The lazy package attributes still resolve on first use.
    from repro.service import ServiceClient
    from repro.tpch import load_smc

    assert ServiceClient.__module__ == "repro.service.client"
    assert load_smc.__module__ == "repro.tpch.loader"
