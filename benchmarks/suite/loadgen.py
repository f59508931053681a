"""Closed-loop clients over the service's TCP protocol.

Each client owns one connection and one session and sends its next
request only after the previous reply is decoded — the BI/dashboard
caller the paper motivates.  Requests arrive here already framed
(``workloads.frame``), so a loop iteration is: send bytes, wait for the
reply frame, ``json.loads`` it.  The three parts are timed separately
(``client.encode_send_us``, ``client.wait_ms``, ``client.decode_us``) so
the generator's own cost is attributed, not hidden in the latency.
"""

from __future__ import annotations

import hashlib
import json
import socket
import statistics
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import ORDERS_PER_BATCH, frame

_LEN = struct.Struct(">I")


class ServerGone(Exception):
    """The server closed the connection mid-conversation."""


class Conn:
    """One TCP connection with an open session."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.session: Optional[str] = None

    def hello(self) -> str:
        self.session = self.call({"op": "hello", "ttl": None})["session"]
        return self.session

    def _read_frame(self) -> bytes:
        header = self.rfile.read(4)
        if len(header) < 4:
            raise ServerGone("connection closed")
        (length,) = _LEN.unpack(header)
        payload = self.rfile.read(length)
        if len(payload) < length:
            raise ServerGone("connection closed mid-frame")
        return payload

    def exchange(self, request: bytes) -> bytes:
        """Send one frame, return the reply payload (undecoded)."""
        self.sock.sendall(request)
        return self._read_frame()

    def timed(self, request: bytes, samples: "Samples") -> Dict[str, Any]:
        """One closed-loop step: send, wait, decode — each part timed."""
        clock = time.perf_counter
        t0 = clock()
        self.sock.sendall(request)
        t1 = clock()
        payload = self._read_frame()
        t2 = clock()
        reply = json.loads(payload)
        t3 = clock()
        samples.done.append(t3)
        samples.latency.append(t3 - t0)
        samples.send.append(t1 - t0)
        samples.wait.append(t2 - t1)
        samples.decode.append(t3 - t2)
        return reply

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return json.loads(self.exchange(frame(message)))

    def close(self) -> None:
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass


def digest(reply: Dict[str, Any]) -> str:
    """Result digest over the wire encoding, which round-trips every
    cell exactly (tagged decimals and dates), so equal digests mean
    byte-identical results."""
    text = json.dumps([reply.get("columns"), reply.get("rows")], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class Samples:
    """What one closed-loop client saw in one window."""

    def __init__(self) -> None:
        self.done: List[float] = []  # clock reading when each reply was decoded
        self.latency: List[float] = []  # s, send start -> reply decoded
        self.send: List[float] = []
        self.wait: List[float] = []
        self.decode: List[float] = []
        self.replies: List[Tuple[int, Dict[str, Any]]] = []
        self.errors: List[str] = []
        self.started = 0.0
        self.ended = 0.0

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def rate(self, group: int) -> float:
        """Replies per second, from the median time *group* consecutive
        replies took.  With *group* a multiple of the mix length every
        group holds the same queries, and a stall of the host moves one
        group, not the result."""
        marks = [self.started] + self.done[group - 1 :: group]
        if len(marks) < 3:
            return len(self.done) / self.wall
        return group / statistics.median(b - a for a, b in zip(marks, marks[1:]))


class QueryLoop(threading.Thread):
    """Closed-loop query client: cycles its pre-framed requests until
    the deadline (or ``stop``) and keeps every reply for checking."""

    def __init__(
        self,
        port: int,
        requests_for,  # session -> list of frames
        seconds: float,
        stop: Optional[threading.Event] = None,
    ) -> None:
        super().__init__(daemon=True)
        self.conn = Conn(port)
        self.frames: List[bytes] = requests_for(self.conn.hello())
        self.seconds = seconds
        self.stop_event = stop or threading.Event()
        self.samples = Samples()

    def run(self) -> None:
        s = self.samples
        conn, frames, n = self.conn, self.frames, len(self.frames)
        i = 0
        s.started = time.perf_counter()
        deadline = s.started + self.seconds
        try:
            while not self.stop_event.is_set() and time.perf_counter() < deadline:
                s.replies.append((i % n, conn.timed(frames[i % n], s)))
                i += 1
        except (OSError, ServerGone, ValueError) as exc:
            s.errors.append(f"{type(exc).__name__}: {exc}")
        s.ended = time.perf_counter()
        conn.close()


class RefreshWriter:
    """Closed-loop refresh writer for ``write_refresh``.

    One cycle is up to four ``mutate`` requests: add 10 orders, add
    their 40 lineitems (``$r`` refs to the entries just returned and to
    the bench-owned part and supplier), remove the lineitems of the
    batch added ``live_batches`` cycles ago, and remove the orders of
    the batch added ``live_batches + order_lag`` cycles ago.  ``run``
    always stops on a cycle boundary and can be called again to continue
    the sequence.

    The lag is there because the server has no snapshot isolation for
    reference navigation: a q3/q10 scan that began before a lineitem was
    removed still follows its ``order`` reference, and fails with
    ``INTERNAL NullReferenceError`` if the order went in the very next
    request (seen about once in five runs).  Orders therefore outlive
    their lineitems by far longer than any query runs.
    """

    def __init__(
        self,
        conn: Conn,
        order_frames: Sequence[bytes],
        line_halves: Sequence[Sequence[Tuple[bytes, bytes]]],
        live_batches: int,
        order_lag: int,
    ) -> None:
        self.conn = conn
        self.order_frames = order_frames
        self.line_halves = line_halves
        self.live_batches = live_batches
        self.order_lag = order_lag
        self.samples = Samples()
        self.batch_ops: List[int] = []  # row ops acked per mutate
        self.live_lines: List[List[int]] = []
        self.live_orders: List[List[int]] = []
        self.rows_added = 0  # lineitems, all segments
        self.rows_removed = 0
        self.next_batch = 0
        self._prefix = (
            '{"op":"mutate","class":"default","session":"%s","ops":['
            % conn.session
        ).encode()

    def _send(self, request: bytes, n_ops: int) -> List[Dict[str, Any]]:
        reply = self.conn.timed(request, self.samples)
        if not reply.get("ok"):
            raise RuntimeError(f"mutate refused: {reply}")
        self.batch_ops.append(n_ops)
        return reply["results"]

    def _framed(self, ops: List[bytes]) -> bytes:
        body = self._prefix + b",".join(ops) + b"]}"
        return _LEN.pack(len(body)) + body

    def _remove(self, collection: bytes, entries: List[int]) -> None:
        ops = [
            b'{"op":"remove","collection":"%s","entry":%d}' % (collection, e)
            for e in entries
        ]
        self._send(self._framed(ops), len(ops))

    def cycle(self) -> None:
        """Apply the next refresh batch and retire the oldest."""
        k = self.next_batch
        self.next_batch += 1
        halves = self.line_halves[k]
        orders = [r["entry"] for r in self._send(self.order_frames[k], ORDERS_PER_BATCH)]
        per_order = len(halves) // len(orders)
        ops = [
            head + str(orders[j // per_order]).encode() + tail
            for j, (head, tail) in enumerate(halves)
        ]
        lines = [r["entry"] for r in self._send(self._framed(ops), len(ops))]
        self.rows_added += len(lines)
        self.live_lines.append(lines)
        self.live_orders.append(orders)
        if len(self.live_lines) > self.live_batches:
            old = self.live_lines.pop(0)
            self._remove(b"lineitem", old)
            self.rows_removed += len(old)
        if len(self.live_orders) > self.live_batches + self.order_lag:
            self._remove(b"orders", self.live_orders.pop(0))

    def run(self, cycles: int, seconds: float) -> Samples:
        """Run up to *cycles* more cycles or *seconds*, whichever ends
        first; returns (and keeps) the samples of this segment."""
        s = self.samples = Samples()
        self.batch_ops = []
        last = min(self.next_batch + cycles, len(self.order_frames))
        s.started = time.perf_counter()
        deadline = s.started + seconds
        try:
            while self.next_batch < last and time.perf_counter() < deadline:
                self.cycle()
        except (OSError, ServerGone, ValueError, RuntimeError) as exc:
            s.errors.append(f"{type(exc).__name__}: {exc}")
        s.ended = time.perf_counter()
        return s


def median_request(latency: Sequence[float], kinds: Sequence[str]) -> float:
    """Latency of the median request of a mix of request kinds.

    The plain median of a mix of fast and slow queries sits in the tail of
    whichever query straddles the half-way mark (on ``short_mix`` at the
    83rd percentile of the pruned scans) and swings with that tail.  This
    takes the median of each kind, lines the kinds up by it, gives each a
    width equal to its share of the requests, and reads the half-way mark
    off the line through the middles of the kinds.
    """
    by_kind: Dict[str, List[float]] = {}
    for kind, value in zip(kinds, latency):
        by_kind.setdefault(kind, []).append(value)
    total = sum(len(v) for v in by_kind.values())
    below = 0.0
    points = []  # (share of requests below the middle of the kind, median)
    for values in sorted(by_kind.values(), key=statistics.median):
        share = len(values) / total
        points.append((below + share / 2, statistics.median(values)))
        below += share
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 >= 0.5:
            return y0 + (y1 - y0) * max(0.0, 0.5 - x0) / (x1 - x0)
    return points[-1][1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (which need not be sorted)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
