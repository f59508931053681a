"""Replication: differential fleet, failover drills, bounded staleness.

The differential tests pin the fleet's core contract: every supported
TPC-H query returns byte-identical results on the primary and on every
read replica — including while replicated mutations churn — because a
replica at LSN *n* holds exactly the state the primary held at LSN *n*
(physical WAL shipping through the recovery apply path).

The failover drills pin the durability contract across promotion: a
primary killed at the WAL-ship point loses no acknowledged batch (the
freshest replica holds every committed-and-shipped record and only it
may promote), a lagging replica's promotion is refused with
STALE_PROMOTION, and the promoted node then passes the same
crash-recovery matrix as a seed primary.

The staleness property test drives a socket-free in-process fleet
(:class:`LoopbackClient`) under random interleavings of writes, reads
and replica pauses: reads never observe state older than
``known_committed - bound``, and a router's ``read_lsn`` watermark is
monotonic across redirects.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core.collection import Collection
from repro.durability import DurableStore, recover
from repro.durability.replication import (
    ReplicationClient,
    StalePromotionError,
)
from repro.errors import InjectedFaultError
from repro.service.client import (
    LoopbackClient,
    RoutedClient,
    ServiceClient,
    ServiceNotPrimary,
    ServiceStaleRead,
)
from repro.service.fleet import Fleet
from repro.service.server import QueryService
from tests.schemas import TNote


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _note_collections():
    from repro.memory.manager import MemoryManager

    manager = MemoryManager()
    notes = Collection(TNote, manager=manager, name="notes")
    return {"notes": notes, "_manager": manager}


def _notes(store) -> list:
    return sorted((h.text, h.stars) for h in store.collections["notes"])


def _note_fleet(tmp_path, replicas=1, **kwargs):
    kwargs.setdefault("fsync_policy", "commit")
    kwargs.setdefault("poll_wait", 0.05)
    return Fleet(
        str(tmp_path / "fleet"),
        collections=_note_collections(),
        replicas=replicas,
        **kwargs,
    ).start()


def _wait_until(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# Differential fleet (acceptance gate)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_fleet(tpch_tiny, tmp_path_factory):
    """A TPC-H fleet (primary + 2 replicas) plus single-process baselines.

    Baselines are materialized as ``(columns, repr(rows))`` from a
    completely separate load of the same dataset, so any divergence in
    the replicated stores shows up as a byte-level repr mismatch.
    """
    from repro.tpch.loader import load_smc
    from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

    builders = dict(QUERIES)
    builders.update(EXTRA_QUERIES)

    base = load_smc(tpch_tiny)
    plain = {k: v for k, v in base.items() if not k.startswith("_")}
    baselines = {}
    for name, builder in builders.items():
        result = builder(plain).run(engine="compiled", params=DEFAULT_PARAMS)
        baselines[name] = (list(result.columns), repr(result.rows))
    base["_manager"].close()

    colls = load_smc(tpch_tiny)
    colls["scratch"] = Collection(
        TNote, manager=colls["_manager"], name="scratch"
    )
    fleet = Fleet(
        str(tmp_path_factory.mktemp("tpch-fleet")),
        collections=colls,
        replicas=2,
        fsync_policy="none",
        poll_wait=0.05,
    ).start()
    yield {"fleet": fleet, "baselines": baselines}
    fleet.close()


def _assert_matches(result, baseline):
    columns, rows_repr = baseline
    assert list(result.columns) == columns
    assert repr(result.rows) == rows_repr


class TestFleetDifferential:
    def test_all_queries_identical_on_every_node(self, tpch_fleet):
        """Every TPC-H query, on the primary and on each replica."""
        fleet = tpch_fleet["fleet"]
        fleet.wait_caught_up()
        for node in fleet.nodes:
            with ServiceClient(port=node.port) as client:
                for name, baseline in tpch_fleet["baselines"].items():
                    _assert_matches(client.query(name), baseline)

    def test_differential_under_replicated_churn(self, tpch_fleet):
        """Byte-identical TPC-H answers while replicated mutations churn.

        The churn runs through the router against a scratch collection
        that ships to the replicas like any other — so the replicas are
        continuously applying WAL batches while serving the reads.
        """
        fleet = tpch_fleet["fleet"]
        stop = threading.Event()
        churned = []
        errors = []

        def churn():
            try:
                with fleet.client(staleness_bound=8) as writer:
                    i = 0
                    while not stop.is_set():
                        entry = writer.add(
                            "scratch", text=f"churn-{i}", stars=i % 5
                        )
                        if i % 3 == 0:
                            writer.update(
                                "scratch", entry, stars=(i + 1) % 5
                            )
                        if i % 7 == 0:
                            writer.remove("scratch", entry)
                        churned.append((i, entry))
                        i += 1
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        try:
            # Reads start once the replicas hold a churned write, so the
            # router observes a positive LSN however the threads are
            # scheduled; the churn goes on beside every read.
            _wait_until(lambda: churned or errors, what="a churned write")
            fleet.wait_caught_up()
            with fleet.client(staleness_bound=8) as router:
                for __ in range(2):
                    for name, baseline in tpch_fleet["baselines"].items():
                        _assert_matches(router.query(name), baseline)
                assert router.read_lsn > 0
            # And on every node by name, the writes still going on.
            for node in fleet.nodes:
                with ServiceClient(port=node.port) as client:
                    for name, baseline in tpch_fleet["baselines"].items():
                        _assert_matches(client.query(name), baseline)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors
        assert len(churned) > 0

    def test_scratch_contents_identical_at_same_lsn(self, tpch_fleet):
        """White box: a replica at LSN n holds the primary's state at n."""
        fleet = tpch_fleet["fleet"]
        with fleet.client() as router:
            for i in range(10):
                router.add("scratch", text=f"pin-{i}", stars=i % 3)
        target = fleet.primary.store.committed_lsn
        reference = sorted(
            (h.text, h.stars)
            for h in fleet.primary.store.collections["scratch"]
        )
        for node in fleet.nodes:
            if node is fleet.primary:
                continue
            assert node.replication.wait_for(target, timeout=10.0)
            rows = sorted(
                (h.text, h.stars)
                for h in node.store.collections["scratch"]
            )
            assert rows == reference, f"{node.name} diverged at LSN {target}"

    def test_replica_refuses_writes_and_names_the_primary(self, tpch_fleet):
        fleet = tpch_fleet["fleet"]
        replica = next(n for n in fleet.nodes if n is not fleet.primary)
        with ServiceClient(port=replica.port) as client:
            with pytest.raises(ServiceNotPrimary) as exc:
                client.add("scratch", text="nope", stars=0)
        assert exc.value.primary == (
            f"{fleet.primary.host}:{fleet.primary.port}"
        )

    def test_replication_metrics_exposed(self, tpch_fleet):
        fleet = tpch_fleet["fleet"]
        replica = next(n for n in fleet.nodes if n is not fleet.primary)
        with ServiceClient(port=replica.port) as client:
            text = client.metrics()
        assert "smc_repl_applied_lsn" in text
        assert "smc_repl_lag_records" in text
        assert "smc_repl_apply_records_total" in text
        with ServiceClient(port=fleet.primary.port) as client:
            text = client.metrics()
        assert 'smc_repl_ship_requests_total{kind="tail"}' in text
        assert "smc_repl_ship_records_total" in text

    def test_stale_replica_answers_stale_read_and_router_redirects(
        self, tpch_fleet
    ):
        """A paused replica refuses reads beyond its watermark; the
        router redirects and still answers correctly."""
        fleet = tpch_fleet["fleet"]
        fleet.wait_caught_up()
        replica = next(n for n in fleet.nodes if n is not fleet.primary)
        replica.replication.pause()
        try:
            with fleet.client(staleness_bound=0, stale_wait=0.1) as router:
                for i in range(3):
                    router.add("scratch", text=f"stale-{i}", stars=0)
                floor = router.min_lsn(0)
                assert floor > replica.replication.applied_lsn
                # Direct read on the paused replica: honest refusal.
                with ServiceClient(port=replica.port) as client:
                    with pytest.raises(ServiceStaleRead) as exc:
                        client.call(
                            {
                                "op": "query",
                                "query": "q6",
                                "min_lsn": floor,
                                "wait": 0.05,
                                "session": client.session,
                            }
                        )
                assert exc.value.applied_lsn < floor
                assert exc.value.min_lsn == floor
                # The router reaches the floor anyway (other replica or
                # primary) and its watermark reflects it.
                _assert_matches(
                    router.query("q6"), tpch_fleet["baselines"]["q6"]
                )
                assert router.read_lsn >= floor
        finally:
            replica.replication.resume()
        fleet.wait_caught_up()


# ----------------------------------------------------------------------
# Catch-up, checkpoint alignment, resync
# ----------------------------------------------------------------------


class TestCatchUp:
    def test_replica_restart_catches_up_from_checkpoint_and_tail(
        self, tmp_path
    ):
        fleet = _note_fleet(tmp_path, replicas=1)
        try:
            with fleet.client() as router:
                for i in range(15):
                    router.add("notes", text=f"pre-{i}", stars=i % 5)
            fleet.wait_caught_up()
            replica = fleet.nodes[1]
            replica.close()
            with fleet.client() as router:
                for i in range(20):
                    router.add("notes", text=f"gap-{i}", stars=i % 5)
            restarted = fleet.restart_replica(replica)
            # Pure tail catch-up on the existing directory: no re-clone.
            assert restarted.replication.resyncs == 0
            fleet.wait_caught_up()
            assert _notes(restarted.store) == _notes(fleet.primary.store)
            assert len(_notes(restarted.store)) == 35
            # A fresh replica joins behind the same tail and serves at
            # the primary's committed LSN as soon as it is returned.
            joined = fleet.add_replica()
            assert (
                joined.replication.applied_lsn
                >= fleet.primary.store.committed_lsn
            )
            assert _notes(joined.store) == _notes(fleet.primary.store)
        finally:
            fleet.close()

    def test_primary_checkpoint_aligns_replica_segments(self, tmp_path):
        """A primary checkpoint cuts the shipped log; the replica takes
        its own aligned checkpoint and restarts cleanly from it."""
        fleet = _note_fleet(tmp_path, replicas=1)
        try:
            with fleet.client() as router:
                for i in range(10):
                    router.add("notes", text=f"seg1-{i}", stars=1)
            fleet.wait_caught_up()
            fleet.primary.store.checkpoint()
            with fleet.client() as router:
                for i in range(10):
                    router.add("notes", text=f"seg2-{i}", stars=2)
            fleet.wait_caught_up()
            replica = fleet.nodes[1]
            _wait_until(
                lambda: replica.replication.local_checkpoints >= 1,
                what="replica checkpoint alignment",
            )
            # The replica's own data dir must recover standalone — its
            # image carries the (primary id, local id) pairs of the rows
            # it added itself, and its tail belongs to the aligned segment.
            restarted = fleet.restart_replica(replica)
            assert restarted.replication.resyncs == 0
            fleet.wait_caught_up()
            assert _notes(restarted.store) == _notes(fleet.primary.store)
            assert len(_notes(restarted.store)) == 20
        finally:
            fleet.close()

    def test_join_ships_checkpoint_in_bounded_chunks(self, tmp_path, monkeypatch):
        """A checkpoint larger than the protocol's frame limit still
        joins: resync ships it in bounded slices (it used to travel
        base64-encoded in a single frame)."""
        from repro.durability import store as store_module
        from repro.service import protocol

        collections = _note_collections()
        for i in range(300):
            collections["notes"].add(text=f"seed-{i}", stars=i % 5)
        monkeypatch.setattr(protocol, "MAX_FRAME", 256 * 1024)
        monkeypatch.setattr(store_module, "RESYNC_CHUNK_BYTES", 96 * 1024)
        fleet = Fleet(
            str(tmp_path / "fleet"),
            collections=collections,
            replicas=1,
            fsync_policy="commit",
            poll_wait=0.05,
        ).start()
        try:
            primary = fleet.primary.store
            checkpoint = primary.datadir.checkpoint_path(primary.cut_lsn)
            assert os.path.getsize(checkpoint) > 4 * protocol.MAX_FRAME
            fleet.wait_caught_up()
            replica = fleet.nodes[1]
            assert replica.replication.resyncs == 1
            cloned = replica.store.datadir.checkpoint_path(replica.store.cut_lsn)
            assert open(cloned, "rb").read() == open(checkpoint, "rb").read()
            with fleet.client() as router:
                router.add("notes", text="after-join", stars=1)
            fleet.wait_caught_up()
            assert _notes(replica.store) == _notes(primary)
            assert len(_notes(replica.store)) == 301
        finally:
            fleet.close()

    def test_resync_restarts_when_the_checkpoint_is_superseded(self, tmp_path):
        """A checkpoint swept mid-transfer makes the follower start over
        with the new one rather than splice two files together."""
        from repro.durability.replication import bootstrap_from_resync

        collections = _note_collections()
        collections["notes"].add(text="a", stars=1)
        store = DurableStore.create(str(tmp_path / "p"), collections=collections)
        calls = []

        def fetch(offset, checkpoint):
            calls.append((offset, checkpoint))
            if len(calls) == 2:  # between the first and the second slice
                collections["notes"].add(text="b", stars=2)
                store.checkpoint()
            return store.resync_chunk(offset, 64 * 1024, checkpoint)

        manifest = bootstrap_from_resync(str(tmp_path / "r"), fetch)
        assert manifest["cut_lsn"] == store.cut_lsn > 0
        assert [c for c in calls if c[0] == 0 and c[1] is None] == [(0, None)] * 2
        recovered, __ = recover(str(tmp_path / "r"))
        assert sorted(h.text for h in recovered["notes"]) == ["a", "b"]
        assert os.listdir(str(tmp_path / "r")).count(manifest["checkpoint"]) == 1
        assert not [n for n in os.listdir(str(tmp_path / "r")) if n.endswith(".tmp")]
        recovered["_manager"].close()
        store.close()
        collections["_manager"].close()

    def test_fall_behind_forces_resync_then_recovers(self, tmp_path):
        """A replica paused across a primary checkpoint loses its
        segment lineage: the live loop flags needs_resync (terminal),
        and a rejoin re-clones and catches up."""
        fleet = _note_fleet(tmp_path, replicas=1)
        try:
            fleet.wait_caught_up()
            replica = fleet.nodes[1]
            replica.replication.pause()
            with fleet.client() as router:
                for i in range(8):
                    router.add("notes", text=f"miss-{i}", stars=0)
            fleet.primary.store.checkpoint()  # cuts the shipped tail
            with fleet.client() as router:
                for i in range(4):
                    router.add("notes", text=f"post-{i}", stars=1)
            replica.replication.resume()
            _wait_until(
                lambda: replica.replication.needs_resync,
                what="needs_resync flag",
            )
            rejoined = fleet.restart_replica(replica)
            assert rejoined.replication.resyncs == 1
            fleet.wait_caught_up()
            assert _notes(rejoined.store) == _notes(fleet.primary.store)
            assert len(_notes(rejoined.store)) == 12
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# Failover drills (acceptance gate)
# ----------------------------------------------------------------------


class TestFailoverDrills:
    def test_primary_killed_at_ship_loses_no_acked_batch(self, tmp_path):
        """Crash the primary at the WAL-ship point, promote, verify.

        Every batch the router saw acknowledged before the crash must
        be present on the promoted node; writes resume through the same
        router via NOT_PRIMARY/connection failover.
        """
        from repro import sanitizer

        fleet = _note_fleet(tmp_path, replicas=2)
        router = fleet.client(retries=6, backoff=0.05)
        try:
            acked = []
            for i in range(25):
                router.add("notes", text=f"acked-{i}", stars=i % 5)
                acked.append(f"acked-{i}")
            fleet.wait_caught_up()

            plan = sanitizer.FaultPlan().crash_at("repl.ship")
            with sanitizer.enabled(faults=plan):
                # The next replica poll fires the fault inside the
                # primary's ship path; its WAL goes inert (the process
                # "died" mid-ship).
                _wait_until(
                    lambda: plan.fired.get("repl.ship"),
                    what="repl.ship crash",
                )
            assert plan.fired["repl.ship"] == 1
            fleet.kill_primary()

            winner = fleet.failover()
            assert winner.role == "primary"
            assert winner.replication.promoted
            texts = sorted(h.text for h in winner.store.collections["notes"])
            assert texts == sorted(acked), "an acknowledged batch vanished"

            # The same router fails over: its cached primary is dead,
            # rediscovery finds the promoted node.
            entry = router.add("notes", text="post-failover", stars=5)
            assert entry >= 0
            assert router.failovers >= 1
            fleet.wait_caught_up()
            survivor = next(
                n for n in fleet.nodes
                if n.alive and n is not fleet.primary
            )
            assert _notes(survivor.store) == _notes(winner.store)
        finally:
            router.close()
            fleet.close()

    def test_lagging_replica_refuses_promotion(self, tmp_path):
        fleet = _note_fleet(tmp_path, replicas=2)
        try:
            fleet.wait_caught_up()
            lagging = fleet.nodes[2]
            lagging.replication.pause()
            with fleet.client() as router:
                for i in range(10):
                    router.add("notes", text=f"fresh-{i}", stars=0)
            fresh = fleet.nodes[1]
            assert fresh.replication.wait_for(
                fleet.primary.store.committed_lsn, timeout=10.0
            )
            floor = fresh.replication.applied_lsn
            assert lagging.replication.applied_lsn < floor
            fleet.kill_primary()

            # Direct refusal...
            with pytest.raises(StalePromotionError):
                lagging.replication.promote(min_lsn=floor)
            # ...and over the wire, with the watermarks the operator
            # needs to pick a better candidate.
            reply = lagging.service.handle(
                {"op": "promote", "min_lsn": floor}
            )
            assert reply["error"] == "STALE_PROMOTION"
            assert reply["applied_lsn"] < reply["min_lsn"] == floor
            assert not lagging.replication.promoted

            winner = fleet.failover()
            assert winner is fresh
            assert sorted(
                h.text for h in winner.store.collections["notes"]
            ) == sorted(f"fresh-{i}" for i in range(10))
        finally:
            fleet.close()

    def test_replica_killed_at_apply_restarts_and_catches_up(self, tmp_path):
        """Crash a replica mid-apply; its directory recovers and the
        rejoined replica streams only what it is missing."""
        from repro import sanitizer

        fleet = _note_fleet(tmp_path, replicas=1)
        try:
            fleet.wait_caught_up()
            replica = fleet.nodes[1]
            plan = sanitizer.FaultPlan().crash_at("repl.apply", after=3)
            with sanitizer.enabled(faults=plan):
                with fleet.client() as router:
                    for i in range(12):
                        router.add("notes", text=f"r-{i}", stars=i % 5)
                _wait_until(
                    lambda: plan.fired.get("repl.apply"),
                    what="repl.apply crash",
                )
            _wait_until(
                lambda: isinstance(
                    replica.replication.failure, InjectedFaultError
                ),
                what="replica loop death",
            )
            rejoined = fleet.restart_replica(replica)
            assert rejoined.replication.resyncs == 0
            fleet.wait_caught_up()
            assert _notes(rejoined.store) == _notes(fleet.primary.store)
            assert len(_notes(rejoined.store)) == 12
        finally:
            fleet.close()

    CRASH_POINTS = [
        ("wal.append.mid", False),
        ("wal.fsync", True),
        ("checkpoint.manifest_rename", False),
    ]

    @pytest.mark.parametrize(
        "point,power_loss",
        CRASH_POINTS,
        ids=[f"{p}-pl{int(pl)}" for p, pl in CRASH_POINTS],
    )
    def test_promoted_node_passes_crash_matrix(
        self, tmp_path, point, power_loss
    ):
        """After failover, the promoted node is a first-class primary:
        crash it at the WAL/checkpoint points and recover its directory."""
        from repro import sanitizer

        fleet = _note_fleet(tmp_path, replicas=1)
        acked = []
        try:
            with fleet.client() as router:
                for i in range(10):
                    router.add("notes", text=f"pre-{i}", stars=i % 5)
                    acked.append(f"pre-{i}")
            fleet.wait_caught_up()
            fleet.kill_primary()
            winner = fleet.failover()
            data_dir = winner.store.datadir.root
            with fleet.client() as router:
                for i in range(5):
                    router.add("notes", text=f"own-{i}", stars=i)
                    acked.append(f"own-{i}")

            plan = sanitizer.FaultPlan().crash_at(
                point, power_loss=power_loss
            )
            with sanitizer.enabled(faults=plan):
                with pytest.raises(InjectedFaultError):
                    for i in range(20):
                        winner.store.apply(
                            [
                                {
                                    "op": "add",
                                    "collection": "notes",
                                    "values": {"text": f"crash-{i}", "stars": 0},
                                }
                            ]
                        )
                    winner.store.checkpoint()
            assert plan.fired.get(point) == 1
            winner.kill()
        finally:
            fleet.close()

        loaded, report = recover(data_dir)
        texts = sorted(h.text for h in loaded["notes"])
        committed_extra = [t for t in texts if t.startswith("crash-")]
        assert [t for t in texts if not t.startswith("crash-")] == sorted(
            acked
        ), "a pre-crash acked batch vanished from the promoted node"
        # Whatever survives of the crashing run is a committed prefix.
        assert committed_extra == sorted(
            f"crash-{i}" for i in range(len(committed_extra))
        )
        loaded["_manager"].close()


# ----------------------------------------------------------------------
# Bounded-staleness property (hypothesis, socket-free fleet)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def loop_fleet(tpch_tiny, tmp_path_factory):
    """In-process fleet over LoopbackClient transports (no sockets)."""
    from repro.tpch.loader import load_smc

    root = tmp_path_factory.mktemp("loop-fleet")
    colls = load_smc(tpch_tiny)
    colls["scratch"] = Collection(
        TNote, manager=colls["_manager"], name="scratch"
    )
    store = DurableStore.create(
        str(root / "primary"), collections=colls, fsync_policy="none"
    )
    pcolls = dict(store.collections)
    pcolls["_manager"] = store.manager
    primary = QueryService(pcolls, store.manager, store=store)
    services = {"P": primary}
    repls = []
    for i in (1, 2):
        repl = ReplicationClient(
            "loop",
            0,
            str(root / f"replica-{i}"),
            fsync_policy="none",
            poll_wait=0.02,
            name=f"loop-{i}",
            transport_factory=lambda h, p: LoopbackClient(primary),
        )
        rstore = repl.sync()
        rcolls = dict(rstore.collections)
        rcolls["_manager"] = rstore.manager
        services[f"R{i}"] = QueryService(
            rcolls, rstore.manager, store=rstore, replication=repl
        )
        repl.start()
        repls.append(repl)
    yield {"services": services, "repls": repls}
    for repl in repls:
        repl.stop()
    for service in services.values():
        service.close()


class TestStalenessProperty:
    def test_staleness_bound_and_monotonic_reads(self, loop_fleet):
        """Random interleavings of writes, bounded reads and replica
        pauses: every read satisfies ``lsn >= known_committed - bound``
        and the session's read watermark never moves backwards."""
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        services = loop_fleet["services"]
        repls = loop_fleet["repls"]

        step = st.tuples(
            st.sampled_from(["write", "read", "pause", "resume"]),
            st.integers(min_value=0, max_value=3),  # staleness bound
            st.integers(min_value=0, max_value=1),  # replica index
        )

        @settings(
            max_examples=10,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(ops=st.lists(step, min_size=4, max_size=14))
        def run(ops):
            router = RoutedClient(
                ["P", "R1", "R2"],
                staleness_bound=0,
                stale_wait=0.15,
                client_factory=lambda ep: LoopbackClient(
                    services[ep], open_session=True
                ),
            )
            try:
                last_read = 0
                wrote = 0
                for kind, bound, idx in ops:
                    if kind == "write":
                        router.add("scratch", text=f"p-{wrote}", stars=0)
                        wrote += 1
                    elif kind == "pause":
                        repls[idx].pause()
                    elif kind == "resume":
                        repls[idx].resume()
                    else:
                        floor = router.min_lsn(bound)
                        router.query("q6", bound=bound)
                        assert router.read_lsn >= floor, (
                            "read below the staleness floor"
                        )
                        assert router.read_lsn >= last_read, (
                            "read watermark moved backwards"
                        )
                        last_read = router.read_lsn
            finally:
                for repl in repls:
                    repl.resume()
                router.close()

        try:
            run()
        finally:
            for repl in repls:
                repl.resume()


# ----------------------------------------------------------------------
# Client plumbing and guard rails
# ----------------------------------------------------------------------


class TestClientAndGuards:
    def test_client_connect_retry_rides_out_slow_start(self, tmp_path):
        """ServiceClient's bounded retry connects to a server that
        comes up shortly after the first attempt is refused."""
        import socket

        from repro.service.server import ServiceServer

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # the port is now free — and refused

        fleet_colls = _note_collections()
        service = QueryService(fleet_colls, fleet_colls["_manager"])
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

    def test_replicate_on_nondurable_service_is_bad_request(self):
        colls = _note_collections()
        service = QueryService(colls, colls["_manager"])
        try:
            reply = service.handle({"op": "replicate", "after_lsn": 0})
            assert reply["error"] == "BAD_REQUEST"
            reply = service.handle({"op": "promote"})
            assert reply["error"] == "BAD_REQUEST"
            reply = service.handle({"op": "lsn"})
            assert reply["ok"] and reply["role"] == "primary"
        finally:
            service.close()

    def test_replica_does_not_chain_ship(self, tmp_path):
        fleet = _note_fleet(tmp_path, replicas=1)
        try:
            replica = fleet.nodes[1]
            reply = replica.service.handle(
                {"op": "replicate", "after_lsn": 0}
            )
            assert reply["error"] == "BAD_REQUEST"
            assert "chained" in reply["detail"]
        finally:
            fleet.close()
