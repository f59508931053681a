"""The five workloads: server flags, query mixes, parameter grids, refresh ops.

Everything a run sends is made here from ``--seed`` alone and handed to
the load generator already framed, so the timed loops only send bytes.
Parameters are written in the service's wire encoding (``{"$t": iso}``
dates, ``{"$d": str}`` decimals), which keeps this module free of any
import from ``src/``.

A *grid* is a fixed list of parameter points for one query; the seed only
chooses which point each request uses.  ``golden.json`` holds one result
digest per ``(grid, point)``.
"""

from __future__ import annotations

import datetime as _dt
import json
import random
import struct
from typing import Any, Dict, List, Tuple

#: TPC-H scale factor and generator seed of the recorded trajectory.
SCALE_FACTOR = 0.01
DATAGEN_SEED = 42

#: Hot-tier budget of ``tiered_scan``: a fixed byte count (about a quarter
#: of the SF 0.01 block pool), so a later change of block layout is still
#: compared at equal memory.
TIER_BUDGET_BYTES = 5_000_000

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"]
_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_WORDS = (
    "express deposits haggle slyly regular accounts carefully final "
    "requests furiously even ideas pending foxes unusual packages bold"
).split()


def _t(year: int, month: int, day: int) -> Dict[str, str]:
    return {"$t": _dt.date(year, month, day).isoformat()}


def _d(text: str) -> Dict[str, str]:
    return {"$d": text}


def _span(prefix: str, lo: _dt.date, hi: _dt.date) -> Dict[str, Any]:
    return {
        f"{prefix}_date": {"$t": lo.isoformat()},
        f"{prefix}_date_hi": {"$t": hi.isoformat()},
    }


def _quarters(prefix: str) -> List[Dict[str, Any]]:
    points = []
    for year in (1992, 1993, 1994, 1995):
        for month in (1, 7):
            lo = _dt.date(year, month, 1)
            hi = _dt.date(year, month + 3, 1)
            points.append(_span(prefix, lo, hi))
    return points


def _years(prefix: str) -> List[Dict[str, Any]]:
    return [
        _span(prefix, _dt.date(y, 1, 1), _dt.date(y + 1, 1, 1))
        for y in range(1993, 1998)
    ]


def _weeks_beyond(prefix: str) -> List[Dict[str, Any]]:
    """One-week windows in 1999: after the last generated ship/receipt
    date (1998-12-31), so every block is zone-pruned."""
    start = _dt.date(1999, 3, 1)
    return [
        _span(
            prefix,
            start + _dt.timedelta(weeks=w),
            start + _dt.timedelta(weeks=w + 1),
        )
        for w in range(8)
    ]


def _q6_point(base: Dict[str, Any], disc: int) -> Dict[str, Any]:
    point = dict(base)
    point["q6_disc_lo"] = _d(f"0.0{disc - 1}")
    point["q6_disc_hi"] = _d(f"0.0{disc + 1}")
    point["q6_quantity"] = _d("24")
    return point


GRIDS: Dict[str, List[Dict[str, Any]]] = {
    "q1": [
        {"q1_date": {"$t": (_dt.date(1998, 12, 1) - _dt.timedelta(days=d)).isoformat()}}
        for d in range(60, 121, 10)
    ],
    "q2": [
        {"q2_size": size, "q2_region": region}
        for size in (5, 15, 25, 35, 45)
        for region in _REGIONS
    ],
    "q3": [
        {"q3_segment": seg, "q3_date": _t(1995, 3, day)}
        for seg in _SEGMENTS
        for day in (5, 15)
    ],
    "q4": _quarters("q4"),
    "q5": [
        dict(_span("q5", _dt.date(y, 1, 1), _dt.date(y + 1, 1, 1)), q5_region=r)
        for r in _REGIONS
        for y in (1994, 1996)
    ],
    "q6": [_q6_point(year, disc) for year in _years("q6") for disc in (3, 6)],
    "q7": [
        {
            "q7_nation_a": a,
            "q7_nation_b": b,
            "q7_date_lo": _t(1995, 1, 1),
            "q7_date_hi": _t(1996, 12, 31),
        }
        for a, b in (
            ("FRANCE", "GERMANY"),
            ("CHINA", "JAPAN"),
            ("BRAZIL", "CANADA"),
            ("INDIA", "RUSSIA"),
            ("EGYPT", "KENYA"),
        )
    ],
    "q10": _quarters("q10"),
    "q12": _years("q12"),
    "q14": [
        _span("q14", _dt.date(1995, m, 1), _dt.date(1995, m + 1, 1))
        for m in range(2, 10)
    ],
    "q6.beyond": [_q6_point(w, 6) for w in _weeks_beyond("q6")],
    "q12.beyond": _weeks_beyond("q12"),
    "q14.beyond": _weeks_beyond("q14"),
}

#: q1 with a date after every shipdate counts every live lineitem: the
#: full-table digest ``write_refresh`` takes at quiesce and after restarts.
FULL_TABLE_PARAMS = {"q1_date": _t(2100, 1, 1)}

_SCAN_MIX = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q10", "q12", "q14"]

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "scan_mix": {
        "why": "all-hot 10-query mix, one client: kernels do ~95% of the work",
        "flags": [],
        "mix": _SCAN_MIX,
        "workers": 1,
        # One closed loop at workers=1: client and server share one core
        # (``serverproc.loop_core``).
        "one_core": True,
        # Phase B: the same traffic from two clients (client.query_qps_c2).
        "two_clients": True,
    },
    "short_mix": {
        "why": "q2 and fully zone-pruned scans: per-request overhead dominates",
        "flags": [],
        "mix": ["q2", "q6.beyond", "q12.beyond", "q2", "q14.beyond"],
        "workers": 1,
        "one_core": True,
    },
    "tiered_scan": {
        "why": "scan_mix traffic with a hot budget of a quarter of the pool: "
        "the pager faults and evicts on every pass",
        "flags": ["--memory-budget", str(TIER_BUDGET_BYTES)],
        "mix": _SCAN_MIX,
        "workers": 1,
        "one_core": True,
    },
    "parallel_scan": {
        "why": "scan-heavy subset at workers=2 through the process pool",
        "flags": ["--exec-workers", "2"],
        "mix": ["q1", "q3", "q5", "q7", "q10", "q12"],
        "workers": 2,
    },
    "write_refresh": {
        "why": "TPC-H refresh batches through the WAL beside a reader, "
        "one checkpoint, then SIGKILL and three restarts",
        "flags": ["--fsync", "commit"],
        "mix": ["q1", "q3", "q6", "q10", "q12", "q14"],
        "workers": 1,
    },
}


def query_of(grid: str) -> str:
    return grid.split(".")[0]


def frame(message: Dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact UTF-8 JSON."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def query_message(
    grid: str, point: Dict[str, Any], workers: int, session: str
) -> Dict[str, Any]:
    return {
        "op": "query",
        "query": query_of(grid),
        "engine": "compiled",
        "workers": workers,
        "prune": True,
        "class": "default",
        "params": point,
        "session": session,
    }


def every_point(mix: List[str]) -> List[Tuple[str, int]]:
    """Each (grid, point) of a mix once: the warm-up and pre-check pass."""
    seen = []
    for grid in dict.fromkeys(mix):
        seen.extend((grid, i) for i in range(len(GRIDS[grid])))
    return seen


def query_sequence(
    mix: List[str], seed: int, length: int
) -> List[Tuple[str, int]]:
    """Round-robin over the mix; the seed shuffles the order in which
    each query walks its grid.  Every grid point comes up equally often
    whatever the seed, so two seeds differ in order, not in how much
    work they ask for."""
    rnd = random.Random(seed)
    orders = {}
    for grid in dict.fromkeys(mix):
        orders[grid] = list(range(len(GRIDS[grid])))
        rnd.shuffle(orders[grid])
    turn = dict.fromkeys(orders, 0)
    sequence = []
    for i in range(length):
        grid = mix[i % len(mix)]
        order = orders[grid]
        sequence.append((grid, order[turn[grid] % len(order)]))
        turn[grid] += 1
    return sequence


# ----------------------------------------------------------------------
# write_refresh: TPC-H refresh batches over the wire ``mutate`` op
# ----------------------------------------------------------------------

ORDERS_PER_BATCH = 10
LINES_PER_ORDER = 4
#: Batches kept live before the oldest is removed again (RF2 after RF1),
#: and how many more cycles its orders outlive its lineitems (see
#: ``loadgen.RefreshWriter``).
LIVE_BATCHES = 40
ORDER_LAG = 40


def _comment(rnd: random.Random) -> str:
    return " ".join(rnd.choice(_WORDS) for __ in range(rnd.randrange(2, 6)))


def _money(rnd: random.Random, lo: int, hi: int) -> Dict[str, str]:
    cents = rnd.randrange(lo * 100, hi * 100 + 1)
    return _d(f"{cents // 100}.{cents % 100:02d}")


def owner_rows() -> List[Tuple[str, Dict[str, Any], Dict[str, str]]]:
    """Bench-owned dimension rows the refresh orders and lineitems point
    at, as ``(collection, values, refs)`` in dependency order; ``refs``
    maps a reference field to the collection whose bench-owned row it
    takes.  They are added once during set-up and never removed."""
    return [
        ("region", {"regionkey": 90, "name": "BENCHLAND", "comment": "bench owned"}, {}),
        (
            "nation",
            {"nationkey": 90, "name": "BENCHNATION", "regionkey": 90, "comment": "bench owned"},
            {"region": "region"},
        ),
        (
            "supplier",
            {
                "suppkey": 900001, "name": "Supplier#900000001",
                "address": "1 bench st.", "nationkey": 90,
                "phone": "90-100-1000", "acctbal": _d("100.00"),
                "comment": "bench owned",
            },
            {"nation": "nation"},
        ),
        (
            "customer",
            {
                "custkey": 900001, "name": "Customer#900000001",
                "address": "1 bench ave.", "nationkey": 90,
                "phone": "90-100-1001", "acctbal": _d("100.00"),
                "mktsegment": "BUILDING", "comment": "bench owned",
            },
            {"nation": "nation"},
        ),
        (
            "part",
            {
                "partkey": 900001, "name": "part 900001 bench",
                "mfgr": "Manufacturer#1", "brand": "Brand#11",
                "type": "PROMO PLATED BRASS", "size": 15,
                "container": "SM CASE", "retailprice": _d("1000.00"),
                "comment": "bench owned",
            },
            {},
        ),
    ]


def refresh_batches(seed: int, count: int) -> List[Tuple[List[Dict], List[Dict]]]:
    """``count`` refresh batches: 10 order value dicts and their 40
    lineitem value dicts (4 per order, in order), reference fields left
    for the writer to fill from the entry ids the server returns."""
    rnd = random.Random(seed ^ 0x5EED)
    first = _dt.date(1992, 1, 1)
    batches = []
    key = 9_000_000
    for __ in range(count):
        orders, lines = [], []
        for __ in range(ORDERS_PER_BATCH):
            key += 1
            orderdate = first + _dt.timedelta(days=rnd.randrange(2400))
            orders.append(
                {
                    "orderkey": key,
                    "custkey": 900001,
                    "orderstatus": "O",
                    "totalprice": _money(rnd, 1000, 400000),
                    "orderdate": {"$t": orderdate.isoformat()},
                    "orderpriority": rnd.choice(_PRIORITIES),
                    "clerk": f"Clerk#{rnd.randrange(1, 1000):09d}",
                    "shippriority": 0,
                    "comment": _comment(rnd),
                }
            )
            for number in range(1, LINES_PER_ORDER + 1):
                ship = orderdate + _dt.timedelta(days=rnd.randrange(1, 122))
                commit = orderdate + _dt.timedelta(days=rnd.randrange(30, 91))
                receipt = ship + _dt.timedelta(days=rnd.randrange(1, 31))
                lines.append(
                    {
                        "orderkey": key,
                        "partkey": 900001,
                        "suppkey": 900001,
                        "linenumber": number,
                        "quantity": _d(f"{rnd.randrange(1, 51)}.00"),
                        "extendedprice": _money(rnd, 900, 100000),
                        "discount": _d(f"0.{rnd.randrange(0, 11):02d}"),
                        "tax": _d(f"0.{rnd.randrange(0, 9):02d}"),
                        "returnflag": rnd.choice("RAN"),
                        "linestatus": rnd.choice("OF"),
                        "shipdate": {"$t": ship.isoformat()},
                        "commitdate": {"$t": commit.isoformat()},
                        "receiptdate": {"$t": receipt.isoformat()},
                        "shipinstruct": rnd.choice(_INSTRUCTIONS),
                        "shipmode": rnd.choice(_SHIPMODES),
                        "comment": _comment(rnd),
                    }
                )
        batches.append((orders, lines))
    return batches


def encode_refresh(
    batches: List[Tuple[List[Dict], List[Dict]]],
    session: str,
    owned: Dict[str, int],
) -> Tuple[List[bytes], List[List[Tuple[bytes, bytes]]]]:
    """Frame the batches for ``loadgen.RefreshWriter``: one complete
    ``mutate`` frame per 10 orders, and per lineitem the two halves of
    its op around the order entry id the server has yet to hand out."""
    order_frames, line_halves = [], []
    for orders, lines in batches:
        order_frames.append(
            frame(
                {
                    "op": "mutate",
                    "class": "default",
                    "session": session,
                    "ops": [
                        {
                            "op": "add",
                            "collection": "orders",
                            "values": dict(o, customer={"$r": owned["customer"]}),
                        }
                        for o in orders
                    ],
                }
            )
        )
        halves = []
        for line in lines:
            values = dict(
                line,
                part={"$r": owned["part"]},
                supplier={"$r": owned["supplier"]},
                order={"$r": -1},
            )
            text = json.dumps(
                {"op": "add", "collection": "lineitem", "values": values},
                separators=(",", ":"),
            )
            head, tail = text.split('"$r":-1')
            halves.append(((head + '"$r":').encode(), tail.encode()))
        line_halves.append(halves)
    return order_frames, line_halves
