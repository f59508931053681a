"""Tagged JSON values: the exact encoding the wire protocol and the WAL share.

Plain JSON cannot carry ``Decimal`` and ``date`` values with type and
value intact, so both are written as one-key tagged objects:

* ``Decimal("1.23")`` → ``{"$d": "1.23"}`` (``Decimal(str(d))`` is an
  exact round trip),
* ``date(1998, 9, 2)`` → ``{"$t": "1998-09-02"}``,
* ``datetime`` → ``{"$dt": <isoformat>}``.

Lists and dicts are encoded element by element; everything else passes
through.  A leaf module, so the row codec (``repro.schema.layout``), the
service protocol and the durability layer all import it directly.
"""

from __future__ import annotations

import datetime as _dt
import json
from decimal import Decimal
from typing import Any

#: The write-ahead log's JSON text: compact separators, non-ASCII text
#: kept as is (the log stores it UTF-8 encoded).  Built once —
#: ``json.dumps`` with options builds an encoder per call.
log_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def encode_value(value: Any) -> Any:
    if isinstance(value, Decimal):
        return {"$d": str(value)}
    if isinstance(value, _dt.datetime):  # before date: datetime is a date
        return {"$dt": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"$t": value.isoformat()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if len(value) == 1:
            if "$d" in value:
                return Decimal(value["$d"])
            if "$t" in value:
                return _dt.date.fromisoformat(value["$t"])
            if "$dt" in value:
                return _dt.datetime.fromisoformat(value["$dt"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value
