"""Session registry.

Every connected client that says ``hello`` gets a :class:`Session`: an
id, a TTL and request bookkeeping.  A session holds no epoch state of
its own.  The service handles each request start to finish on the one
thread that reads it off the connection, so the request's pin is that
thread's critical section (paper §3.4: threads enter and exit sections,
and a section spans a whole query).  :meth:`Session.enter` opens the
section around a request and every executor the request reaches nests
inside it; :meth:`Session.exit` closes it before the reply is sent.  A
client that dies or stalls between requests therefore pins nothing.

A session idle past its TTL is expired: :meth:`SessionRegistry.require`
refuses it with :class:`SessionExpiredError` (``LEASE_EXPIRED`` on the
wire; the client must open a new session), and every
:meth:`SessionRegistry.create` sweeps stale sessions out of the
registry, so abandoned sessions do not accumulate.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

#: Default session TTL: generous for interactive clients, short enough
#: that abandoned sessions are swept promptly.
DEFAULT_LEASE_TTL = 30.0


class SessionExpiredError(Exception):
    """The session is unknown, released, or was idle past its TTL."""


class Session:
    """One client session: the TTL bookkeeping around its requests."""

    def __init__(self, session_id: str, epochs, ttl: float) -> None:
        self.session_id = session_id
        self.epochs = epochs
        self.ttl = ttl
        self.last_seen = time.monotonic()
        #: Set once the registry expires the session; never cleared.
        self.expired = False

    def touch(self) -> None:
        self.last_seen = time.monotonic()

    def idle_past_ttl(self, now: float) -> bool:
        return now - self.last_seen > self.ttl

    def enter(self) -> int:
        """Enter the calling thread's critical section for one request."""
        return self.epochs.enter_critical_section()

    def exit(self) -> None:
        self.epochs.exit_critical_section()


class SessionRegistry:
    """Creates, tracks and expires sessions.

    Expiry counters land in the metrics registry when one is attached.
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
        if metrics is not None:
            self._expired_total = metrics.counter(
                "service_sessions_expired_total",
                "Sessions expired idle past their TTL",
            )
            metrics.gauge(
                "service_sessions_active",
                "Currently registered sessions",
                callback=lambda: float(self.count()),
            )
        else:
            self._expired_total = None

    # -- lifecycle -----------------------------------------------------

    def create(self, ttl: Optional[float] = None) -> Session:
        self.sweep()
        ttl = self.lease_ttl if ttl is None else min(ttl, self.lease_ttl)
        with self._lock:
            self._next_id += 1
            session = Session(
                f"s{self._next_id:06d}", self.manager.epochs, ttl
            )
            self._sessions[session.session_id] = session
        return session

    def get(self, session_id: str) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    def require(self, session_id: str) -> Session:
        session = self.get(session_id)
        if session is not None and session.idle_past_ttl(time.monotonic()):
            self._expire([session])
            session = None
        if session is None:
            raise SessionExpiredError(session_id)
        return session

    def release(self, session_id: str) -> bool:
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def close(self) -> None:
        with self._lock:
            self._sessions.clear()

    # -- expiry --------------------------------------------------------

    def sweep(self) -> int:
        """Expire every session idle past its TTL; returns expiry count."""
        now = time.monotonic()
        with self._lock:
            stale = [s for s in self._sessions.values() if s.idle_past_ttl(now)]
        return self._expire(stale)

    def _expire(self, sessions: List[Session]) -> int:
        expired = 0
        with self._lock:
            for session in sessions:
                if self._sessions.pop(session.session_id, None) is session:
                    session.expired = True
                    expired += 1
        if self._expired_total is not None and expired:
            self._expired_total.inc(expired)
        return expired
