"""Tabular classes shared across test modules.

Defined once: the tabular registry is keyed by class name, so re-defining
the same names in several modules would silently re-wire reference
targets between test files.
"""

from __future__ import annotations

from repro.schema import (
    BoolField,
    CharField,
    DateField,
    DecimalField,
    Float64Field,
    Int8Field,
    Int16Field,
    Int32Field,
    Int64Field,
    RefField,
    Tabular,
    VarStringField,
)


class TPerson(Tabular):
    name = CharField(24)
    age = Int32Field()
    balance = DecimalField(2)


class TOrder(Tabular):
    orderkey = Int64Field()
    owner = RefField("TPerson")
    total = DecimalField(2)
    placed = DateField()


class TNote(Tabular):
    text = VarStringField()
    stars = Int8Field()


class TEverything(Tabular):
    """One field of every kind, for layout and codec tests."""

    i8 = Int8Field()
    i16 = Int16Field()
    i32 = Int32Field()
    i64 = Int64Field()
    flag = BoolField()
    ratio = Float64Field()
    price = DecimalField(2)
    fine = DecimalField(4)
    day = DateField()
    code = CharField(10)
    memo = VarStringField()
    friend = RefField("TPerson")


class TNode(Tabular):
    """Self-referencing type (linked structures)."""

    value = Int64Field()
    next = RefField("TNode")


class TLedger(Tabular):
    """Self-referencing type with a scale-0 decimal (write-path codec tests)."""

    units = DecimalField(0)
    amount = DecimalField(2)
    day = DateField()
    flag = BoolField()
    ratio = Float64Field()
    tag = CharField(8)
    memo = VarStringField()
    parent = RefField("TLedger")
