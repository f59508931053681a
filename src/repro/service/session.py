"""Session registry with epoch-lease watchdog.

Every connected client gets a :class:`Session` holding an
:class:`~repro.memory.epoch.EpochLease`.  While the session executes a
request the lease is *entered*, pinning the global epoch exactly like a
thread inside a critical section — readers on the wire are epoch-
protected even though requests hop between server worker threads.

The failure mode this design exists for: a client dies (or stalls) mid
request, its lease stays entered, the epoch can never advance past it,
and every limbo slot in the system becomes unreclaimable.  The
:class:`SessionRegistry` watchdog expires sessions whose last heartbeat
(any request counts) is older than the lease TTL: the lease is revoked
— force-exited and unregistered under the epoch registry lock — and
reclamation resumes.  A revoked session's later requests get a
``LEASE_EXPIRED`` error; the client must open a new session.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.memory.epoch import EpochLease

#: Default lease TTL: generous for interactive clients, short enough
#: that an abandoned session cannot stall reclamation for long.
DEFAULT_LEASE_TTL = 30.0

#: How often the watchdog sweeps, as a fraction of the TTL.
_SWEEP_FRACTION = 0.25


class SessionExpiredError(Exception):
    """The session's lease was revoked by the watchdog."""


class Session:
    """One client session: an epoch lease plus bookkeeping."""

    def __init__(self, session_id: str, lease: EpochLease, ttl: float) -> None:
        self.session_id = session_id
        self.lease = lease
        self.ttl = ttl
        self.created_at = time.monotonic()
        self.last_seen = self.created_at
        self.requests = 0
        self._lock = threading.Lock()

    def touch(self) -> None:
        with self._lock:
            self.last_seen = time.monotonic()
            self.requests += 1

    @property
    def expired(self) -> bool:
        return self.lease.revoked

    def enter(self) -> int:
        """Enter the leased critical section for one request."""
        if self.lease.revoked:
            raise SessionExpiredError(self.session_id)
        try:
            return self.lease.enter()
        except Exception as exc:  # revoked between check and enter
            raise SessionExpiredError(self.session_id) from exc

    def exit(self) -> None:
        self.lease.exit()


class SessionRegistry:
    """Creates, tracks and expires sessions.

    The watchdog thread is started lazily on the first session and
    stopped by :meth:`close`.  Expiry counters land in the metrics
    registry when one is attached.
    """

    def __init__(
        self,
        manager,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        metrics=None,
    ) -> None:
        self.manager = manager
        self.lease_ttl = lease_ttl
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._watchdog: Optional[threading.Thread] = None
        self._stop = threading.Event()
        if metrics is not None:
            self._expired_total = metrics.counter(
                "service_sessions_expired_total",
                "Sessions expired by the lease watchdog",
            )
            self._revoked_held = metrics.counter(
                "service_leases_revoked_held_total",
                "Watchdog revocations that force-exited a held lease",
            )
            metrics.gauge(
                "service_sessions_active",
                "Currently registered sessions",
                callback=lambda: float(self.count()),
            )
        else:
            self._expired_total = None
            self._revoked_held = None

    # -- lifecycle -----------------------------------------------------

    def create(self, ttl: Optional[float] = None) -> Session:
        ttl = self.lease_ttl if ttl is None else min(ttl, self.lease_ttl)
        with self._lock:
            self._next_id += 1
            session_id = f"s{self._next_id:06d}"
        lease = self.manager.epochs.create_lease(session_id)
        session = Session(session_id, lease, ttl)
        with self._lock:
            self._sessions[session_id] = session
            if self._watchdog is None:
                self._start_watchdog()
        return session

    def get(self, session_id: str) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    def require(self, session_id: str) -> Session:
        session = self.get(session_id)
        if session is None or session.expired:
            raise SessionExpiredError(session_id)
        return session

    def release(self, session_id: str) -> bool:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return False
        session.lease.release()
        return True

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def sessions(self) -> List[Session]:
        with self._lock:
            return list(self._sessions.values())

    def close(self) -> None:
        self._stop.set()
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout=5.0)
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.lease.release()

    # -- watchdog ------------------------------------------------------

    def _start_watchdog(self) -> None:
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="lease-watchdog", daemon=True
        )
        self._watchdog.start()

    def _watchdog_loop(self) -> None:
        interval = max(0.01, self.lease_ttl * _SWEEP_FRACTION)
        while not self._stop.wait(interval):
            self.sweep()

    def sweep(self) -> int:
        """Expire every session idle past its TTL; returns expiry count."""
        now = time.monotonic()
        stale: List[Session] = []
        with self._lock:
            for session in self._sessions.values():
                if now - session.last_seen > session.ttl:
                    stale.append(session)
            for session in stale:
                del self._sessions[session.session_id]
        for session in stale:
            was_held = session.lease.revoke()
            if self._expired_total is not None:
                self._expired_total.inc()
                if was_held and self._revoked_held is not None:
                    self._revoked_held.inc()
        return len(stale)
