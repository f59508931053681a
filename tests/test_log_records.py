"""Log records are written as text, and the text is the encoder's.

The durability store writes every WAL payload as bytes: ADD and UPDATE
records from the row codec's per-field text emitters, the other kinds
from fixed templates.  The oracle is the dict path those emitters
replaced, kept here: the codec's former ``logged`` / ``log_value``
building tagged values, encoded by a compact ``ensure_ascii=False`` JSON
encoder.  Every record a store appends must equal the oracle's bytes:

* ADD, for every field kind, random supplied subsets in random key
  orders (sparse rows included), decimals at scales 0, 2 and 4, dates at
  both ends of the calendar, text with quotes, backslashes, control
  characters, U+2028 and non-ASCII, ``True`` in an int field, NaN /
  ±inf / -0.0 in a float field, null and non-null references;
* ADD over thousands of distinct key orders in one batch;
* UPDATE, REMOVE, INTERN, BEGIN and COMMIT.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import math
import os
import random
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collection import Collection
from repro.durability import DurableStore, scan_wal
from repro.durability.wal import (
    ADD,
    BEGIN,
    COMMIT,
    INTERN,
    RECORD_HEADER_SIZE,
    REMOVE,
    UPDATE,
    encode_payload,
)
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.manager import MemoryManager
from repro.schema.fields import (
    BoolField,
    CharField,
    DateField,
    DecimalField,
    Field,
    Float64Field,
    RefField,
    VarStringField,
    days_to_date,
)
from repro.schema.layout import FIELD_REF, FIELD_VAR, _ref_of, _text
from repro.tagged import encode_value

from tests.schemas import TEverything, TLedger, TPerson

# ----------------------------------------------------------------------
# The oracle: the dict path the writers replaced
# ----------------------------------------------------------------------

_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def _encode(payload) -> bytes:
    return _ENCODER.encode(payload).encode("utf-8")


def _plain_log(raw):
    return raw if type(raw) is int or type(raw) is float else encode_value(raw)


def _scalar_log(field: Field):
    if isinstance(field, CharField):
        return lambda raw: raw.decode("utf-8")
    if isinstance(field, DecimalField):
        quantum = field._quantum
        return lambda raw: {"$d": str(Decimal(raw) * quantum)}
    if isinstance(field, DateField):
        return lambda raw: {"$t": days_to_date(raw).isoformat()}
    if type(field).from_raw is Field.from_raw:
        return _plain_log
    from_raw = field.from_raw
    return lambda raw: encode_value(from_raw(raw))


def logged(codec, row, sid_of):
    """The ADD record's field values, in the caller's field order."""
    supplied, raws, __, __ = row
    out = {}
    for name in supplied:
        index, kind, field, __, __ = codec._spec[name]
        raw = raws[index]
        if kind == FIELD_VAR:
            out[name] = {"$s": sid_of(raw)} if raw else ""
        elif kind == FIELD_REF:
            out[name] = None if raw == NULL_ADDRESS else {"$r": raw}
        else:
            out[name] = _scalar_log(field)(raw)
    return out


def log_value(codec, name, value, sid_of):
    """The logged form of one Python field value (UPDATE records)."""
    __, kind, field, convert, __ = codec._spec[name]
    if kind == FIELD_REF:
        ref = _ref_of(field, value)
        return None if ref is None else {"$r": ref.entry}
    if kind == FIELD_VAR:
        text = _text(field, value, None)
        return {"$s": sid_of(text)} if text else ""
    return _scalar_log(field)(convert(value))


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

#: Characters JSON escapes or that UTF-8 widens, mixed into every text.
_AWKWARD = ['"', "\\", "/", "'", "\n", "\t", "\x00", "\x1f", "\x7f",
            "\u2028", "\u2029", "\u00fc", "\u20ac", "\U0001f600"]
_CHARS = st.one_of(st.sampled_from(_AWKWARD), st.characters(codec="utf-8"))
_INT_BOUNDS = {"b": 7, "h": 15, "i": 31, "q": 63}


def _char_values(width):
    return st.text(_CHARS, max_size=width).filter(lambda s: len(s.encode()) <= width)


def _decimal_values(scale):
    raw = st.integers(-(2**63) + 1, 2**63 - 1)
    return st.one_of(
        raw.map(lambda n: Decimal(n).scaleb(-scale)),
        st.sampled_from([Decimal(0), Decimal("-0"), Decimal("0.00"), Decimal("1E+2")]),
        st.decimals(min_value=-(10**9), max_value=10**9, places=6),
        st.integers(-(10**6), 10**6),
        st.floats(-1e6, 1e6),
    )


def _values(field, refs):
    """Python values a row may carry in *field*."""
    if isinstance(field, RefField):
        return st.one_of(st.none(), st.sampled_from(refs[field.target]))
    if isinstance(field, VarStringField):
        return st.one_of(st.none(), st.text(_CHARS, max_size=24))
    if isinstance(field, CharField):
        return _char_values(field.width)
    if isinstance(field, DecimalField):
        return _decimal_values(field.scale)
    if isinstance(field, DateField):
        return st.one_of(
            st.dates(),
            st.sampled_from([datetime.date.min, datetime.date.max]),
            st.integers(-719162, 2932896),  # raw days, 0001-01-01..9999-12-31
        )
    if isinstance(field, BoolField):
        return st.one_of(st.booleans(), st.integers(-3, 3))
    if isinstance(field, Float64Field):
        return st.one_of(
            st.floats(),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
            st.integers(-(2**53), 2**53),
            st.booleans(),
            st.floats(allow_nan=False).map(np.float64),
        )
    bits = _INT_BOUNDS[field.fmt]
    return st.one_of(st.integers(-(2**bits), 2**bits - 1), st.booleans())


# ----------------------------------------------------------------------
# A store and its records
# ----------------------------------------------------------------------

#: Store keys the records carry; one needs escaping in the ``"c"`` text.
EVERY, LEDGER, PERSONS = 'every "thing" \u00fc\\', "ledger", "persons"


class _Log:
    def __init__(self, store, colls):
        self.store = store
        self.colls = colls
        self.refs = {
            "TPerson": [colls[PERSONS].add(name=f"p{i}", age=i) for i in range(3)],
            "TLedger": [colls[LEDGER].add(units=i) for i in range(3)],
        }

    def records_since(self, offset):
        """``(kind, payload bytes)`` of every record past *offset*."""
        scan = scan_wal(self.store.wal.path)
        return [
            (kind, scan.data[start + RECORD_HEADER_SIZE : end])
            for __, kind, start, end in scan.frames
            if start >= offset
        ]

    def interns(self, sids_before):
        """The oracle's INTERN payloads for the sids bound since."""
        new = sorted((sid, t) for t, sid in self.store._sids.items() if sid > sids_before)
        return [(INTERN, _encode({"i": sid, "t": text})) for sid, text in new]


@contextlib.contextmanager
def _store():
    with tempfile.TemporaryDirectory() as root:
        manager = MemoryManager()
        colls = {
            EVERY: Collection(TEverything, manager=manager),
            LEDGER: Collection(TLedger, manager=manager),
            PERSONS: Collection(TPerson, manager=manager),
            "_manager": manager,
        }
        store = DurableStore.create(
            os.path.join(root, "data"), collections=colls, fsync_policy="none"
        )
        try:
            yield _Log(store, colls)
        finally:
            store.close()
            manager.close()


def _rows(log, key):
    """A random supplied subset of *key*'s fields, in random order."""
    fields = log.colls[key].layout.fields
    return st.lists(st.sampled_from(fields), unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries(
            {f.name: _values(f, log.refs) for f in chosen}
        )
    )


def _expected_add(log, key, entry, values):
    coll = log.colls[key]
    codec = coll.layout.codec
    row = codec.encode(values)
    payload = {
        "c": key,
        "s": coll.schema.__name__,
        "e": entry,
        "v": logged(codec, row, log.store._sids.__getitem__),
    }
    return _encode(payload)


# ----------------------------------------------------------------------
# ADD
# ----------------------------------------------------------------------


def test_add_records_are_the_encoders_bytes():
    with _store() as log:

        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def check(data):
            key = data.draw(st.sampled_from([EVERY, LEDGER]))
            values = data.draw(_rows(log, key))
            offset, sids = log.store.wal.size, len(log.store._sids)
            (handle,) = log.colls[key].add_many([values])
            *interns, add = log.records_since(offset)
            assert interns == log.interns(sids)
            assert add == (ADD, _expected_add(log, key, handle.ref.entry, values))

        check()


def test_python_and_wire_spellings_log_the_same_record():
    """What a record logs is a function of the raw: a wire value and the
    Python value it stands for write the same bytes."""
    with _store() as log:
        ledger = log.colls[LEDGER]
        parent = log.refs["TLedger"][0]
        memo = "\u00fc\u2028 \"q\" \\"
        python = dict(units=Decimal("2.5"), amount=10, day=datetime.date(1, 1, 1),
                      tag="tab\there", memo=memo, parent=parent)
        wire = dict(units={"$d": "2.5"}, amount={"$d": "1e1"}, day={"$t": "0001-01-01"},
                    tag="tab\there", memo=memo, parent={"$r": parent.ref.entry})
        offset = log.store.wal.size
        (first,) = ledger.add_many([python])
        (second,) = log.store.apply([{"op": "add", "collection": LEDGER, "values": wire}])
        adds = [body for kind, body in log.records_since(offset) if kind == ADD]
        assert adds[1] == adds[0].replace(
            b'"e":%d' % first.ref.entry, b'"e":%d' % second["entry"]
        )
        assert adds[0] == _expected_add(log, LEDGER, first.ref.entry, python)
        assert b'"units":{"$d":"2"},"amount":{"$d":"10.00"},"day":{"$t":"0001-01-01"}' in adds[0]


# ----------------------------------------------------------------------
# UPDATE, REMOVE, INTERN, BEGIN, COMMIT
# ----------------------------------------------------------------------


def test_update_records_are_the_encoders_bytes():
    with _store() as log:
        handles = {key: [log.colls[key].add() for __ in range(3)] for key in (EVERY, LEDGER)}

        @settings(max_examples=200, deadline=None)
        @given(data=st.data())
        def check(data):
            key = data.draw(st.sampled_from([EVERY, LEDGER]))
            coll = log.colls[key]
            field = data.draw(st.sampled_from(coll.layout.fields))
            value = data.draw(_values(field, log.refs))
            handle = data.draw(st.sampled_from(handles[key]))
            offset, sids = log.store.wal.size, len(log.store._sids)
            setattr(handle, field.name, value)
            *interns, update = log.records_since(offset)
            assert interns == log.interns(sids)
            sid_of = log.store._sids.__getitem__
            expected = {
                "c": key,
                "e": handle.ref.entry,
                "f": field.name,
                "v": log_value(coll.layout.codec, field.name, value, sid_of),
            }
            assert update == (UPDATE, _encode(expected))

        check()


def test_remove_intern_begin_commit_are_the_encoders_bytes():
    with _store() as log:
        every = log.colls[EVERY]
        texts = ["plain", 'quote " and \\ slash', "\x00\x1f\u2028 \u00fc \U0001f600", ""]
        for n in range(1, 4):
            offset, sids = log.store.wal.size, len(log.store._sids)
            with log.store.batch():
                handles = every.add_many([{"memo": t * n, "i8": n} for t in texts])
                every.remove_many(handles[:2])
            records = log.records_since(offset)
            seq = log.store.wal.batches
            assert records[0] == (BEGIN, _encode({"n": seq}))
            assert records[-1] == (COMMIT, _encode({"n": seq}))
            assert [r for r in records if r[0] == INTERN] == log.interns(sids)
            assert [r for r in records if r[0] == REMOVE] == [
                (REMOVE, _encode({"c": EVERY, "e": h.ref.entry})) for h in handles[:2]
            ]


def test_append_takes_bytes_only():
    """A payload held as a dict goes through ``encode_payload``; handed
    to ``append`` itself it is refused before anything is written."""
    with _store() as log:
        wal = log.store.wal
        size, lsn = wal.size, wal.next_lsn
        with pytest.raises(TypeError):
            wal.append(REMOVE, {"c": LEDGER, "e": 1})
        assert (wal.size, wal.next_lsn) == (size, lsn)
        wal.append(REMOVE, encode_payload({"c": LEDGER, "e": 1}))
        assert log.records_since(size) == [(REMOVE, _encode({"c": LEDGER, "e": 1}))]


# ----------------------------------------------------------------------
# Key orders
# ----------------------------------------------------------------------


def test_shuffled_key_orders_log_the_encoders_bytes():
    """The writer keeps nothing per key order: 10 000 adds in over 3 000
    orders each list their fields in the caller's order."""
    rnd = random.Random(25)
    names = [f.name for f in TLedger.__layout__.fields if f.name != "parent"]
    with _store() as log:
        ledger = log.colls[LEDGER]
        rows = []
        for i in range(10_000):
            pool = dict(units=i, amount=i % 7, day=i % 365, flag=i % 2,
                        ratio=i / 8, tag=f"t{i % 13}", memo=f"m{i % 17}")
            chosen = rnd.sample(names, rnd.randrange(1, len(names) + 1))
            rows.append({name: pool[name] for name in chosen})
        assert len({tuple(row) for row in rows}) > 3_000
        offset = log.store.wal.size
        handles = ledger.add_many(rows)
        adds = [body for kind, body in log.records_since(offset) if kind == ADD]
        assert adds == [
            _expected_add(log, LEDGER, h.ref.entry, values) for h, values in zip(handles, rows)
        ]
