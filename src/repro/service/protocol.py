"""Wire protocol: length-prefixed JSON with exact value round-trips.

Framing: each message is a 4-byte big-endian unsigned length followed by
that many bytes of UTF-8 JSON.  Both directions use the same framing.

The differential-correctness contract requires results to come back
**byte-identical** to the in-process engine, so plain JSON is not
enough: ``Decimal`` and ``date`` cells must survive the round trip with
type and value intact.  They are encoded as tagged objects:

* ``Decimal("1.23")`` → ``{"$d": "1.23"}`` (``Decimal(str(d))`` is an
  exact round trip),
* ``date(1998, 9, 2)`` → ``{"$t": "1998-09-02"}``.

(``repro.tagged`` holds that encoding; the write-ahead log uses it too.)
Floats round-trip exactly through ``repr`` (Python's ``json`` uses
``float.__repr__``, which is shortest-exact); ints and strings are
trivially exact.  Row tuples become JSON arrays and are re-tupled on
decode.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.tagged import decode_value, encode_value

#: Refuse frames above this size (64 MiB): protects against garbage
#: length prefixes from a confused peer.
MAX_FRAME = 64 * 2**20

_LEN = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed frame or message."""


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------


def encode_rows(rows: List[Tuple[Any, ...]]) -> List[List[Any]]:
    return [[encode_value(v) for v in row] for row in rows]


def decode_rows(rows: List[List[Any]]) -> List[Tuple[Any, ...]]:
    return [tuple(decode_value(v) for v in row) for row in rows]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def dump_message(message: Dict[str, Any]) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large ({len(payload)} bytes)")
    return _LEN.pack(len(payload)) + payload


def load_message(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(dump_message(message))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return None  # clean EOF at a frame boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame too large ({length} bytes)")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return load_message(payload)
