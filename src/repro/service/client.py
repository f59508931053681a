"""Client library for the query service.

Synchronous, one socket per client; opens a session (``hello``) on
connect and tags every request with it (the server expires a session
left idle past its TTL).  Results come back as
:class:`~repro.query.builder.Result` with exact cell values (see
``protocol``), so a client-side result compares equal — byte for byte
through ``repr`` — with an in-process run.

Usage::

    with ServiceClient("127.0.0.1", 7070) as client:
        result = client.query("q1", workers=4)
        print(client.metrics())

``workers`` > 1 runs the scan on the server's process pool (``repro
serve --exec-workers``); a server without one runs it serially.

Shed requests raise :class:`ServiceOverloadedError`; expired sessions
raise :class:`ServiceSessionExpired`; everything else a server reports
raises :class:`ServiceError` with the server's error code.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, Optional

from repro.query.builder import Result
from repro.service import protocol


class ServiceError(Exception):
    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class ServiceOverloadedError(ServiceError):
    def __init__(self, reason: str, queue_class: str) -> None:
        super().__init__("OVERLOADED", reason)
        self.reason = reason
        self.queue_class = queue_class


class ServiceSessionExpired(ServiceError):
    def __init__(self, detail: str = "") -> None:
        super().__init__("LEASE_EXPIRED", detail)


def raise_for_error(reply: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Map an error response to its typed exception; pass ok replies."""
    if reply is None:
        raise ServiceError("DISCONNECTED", "server closed the connection")
    if reply.get("ok"):
        return reply
    code = reply.get("error", "ERROR")
    if code == "OVERLOADED":
        raise ServiceOverloadedError(
            reply.get("reason", ""), reply.get("queue_class", "")
        )
    if code == "LEASE_EXPIRED":
        raise ServiceSessionExpired(reply.get("detail", ""))
    raise ServiceError(code, reply.get("detail", ""))


class ServiceClient:
    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7070,
        timeout: Optional[float] = 30.0,
        open_session: bool = True,
        lease_ttl: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> None:
        """Connect, optionally opening a session.

        ``retries`` bounds how often the connect made here is retried
        when it is refused (a server still starting), with exponential
        backoff and jitter; a connection lost later is not re-opened.
        """
        self.host, self.port = host, int(port)
        delay = backoff
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(delay * (0.5 + random.random()))
                delay = min(delay * 2, 2.0)
        self.session: Optional[str] = None
        self.lease_ttl: Optional[float] = None
        if open_session:
            reply = self.call({"op": "hello", "ttl": lease_ttl})
            self.session = reply["session"]
            self.lease_ttl = reply["lease_ttl"]

    # -- low level -----------------------------------------------------

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, await the response, raise on error."""
        protocol.send_message(self._sock, message)
        reply = protocol.recv_message(self._sock)
        return raise_for_error(reply)

    # -- operations ----------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call({"op": "ping"}).get("pong"))

    def query(
        self,
        name: str,
        engine: str = "compiled",
        flavor: Optional[str] = None,
        workers: int = 1,
        params: Optional[Dict[str, Any]] = None,
        queue_class: str = "default",
    ) -> Result:
        message: Dict[str, Any] = {
            "op": "query",
            "query": name,
            "engine": engine,
            "workers": workers,
            "class": queue_class,
        }
        if flavor is not None:
            message["flavor"] = flavor
        if params is not None:
            message["params"] = protocol.encode_value(params)
        if self.session is not None:
            message["session"] = self.session
        reply = self.call(message)
        return Result(reply["columns"], protocol.decode_rows(reply["rows"]))

    def mutate(
        self,
        ops: list,
        queue_class: str = "default",
    ) -> list:
        """Apply a batch of mutation ops as one durable group commit.

        Each op is a dict: ``{"op": "add", "collection": ..., "values":
        {...}}``, ``{"op": "update", "collection": ..., "entry": ...,
        "values": {...}}`` or ``{"op": "remove", "collection": ...,
        "entry": ...}``.  Values holding Decimal/date/datetime must be
        pre-encoded with :func:`protocol.encode_value`; reference fields
        take ``{"$r": entry}``.  Returns the per-op result list (an
        ``add`` reports the new row's ``entry``).
        """
        message: Dict[str, Any] = {
            "op": "mutate",
            "ops": ops,
            "class": queue_class,
        }
        if self.session is not None:
            message["session"] = self.session
        return self.call(message)["results"]

    def add(self, collection: str, **values: Any) -> int:
        """Durably add one row; returns its indirection entry id."""
        encoded = {k: protocol.encode_value(v) for k, v in values.items()}
        (result,) = self.mutate(
            [{"op": "add", "collection": collection, "values": encoded}]
        )
        return result["entry"]

    def update(self, collection: str, entry: int, **values: Any) -> None:
        """Durably update fields of the row at *entry*."""
        encoded = {k: protocol.encode_value(v) for k, v in values.items()}
        self.mutate(
            [
                {
                    "op": "update",
                    "collection": collection,
                    "entry": entry,
                    "values": encoded,
                }
            ]
        )

    def remove(self, collection: str, entry: int) -> None:
        """Durably remove the row at *entry*."""
        self.mutate(
            [{"op": "remove", "collection": collection, "entry": entry}]
        )

    def metrics(self) -> str:
        """Scrape the Prometheus-format metrics exposition."""
        return self.call({"op": "metrics"})["text"]

    def info(self) -> Dict[str, Any]:
        reply = self.call({"op": "info"})
        return {
            "telemetry": protocol.decode_value(reply["telemetry"]),
            "plan_cache": reply["plan_cache"],
        }

    def shutdown_server(self) -> None:
        protocol.send_message(self._sock, {"op": "shutdown"})
        protocol.recv_message(self._sock)

    def close(self) -> None:
        if self._sock.fileno() < 0:
            return
        if self.session is not None:
            try:
                self.call({"op": "bye", "session": self.session})
            except (ServiceError, OSError):
                pass
            self.session = None
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
