"""Property-based layout tests: random schemas round-trip losslessly."""

import datetime
import itertools
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.core.collection import Collection
from repro.memory.manager import MemoryManager
from repro.schema.fields import (
    BoolField,
    CharField,
    DateField,
    DecimalField,
    Float64Field,
    Int8Field,
    Int16Field,
    Int32Field,
    Int64Field,
    VarStringField,
)
from repro.schema.tabular import Tabular, TabularMeta

_counter = itertools.count()

_FIELD_KINDS = [
    ("i8", Int8Field, st.integers(-128, 127)),
    ("i16", Int16Field, st.integers(-(2**15), 2**15 - 1)),
    ("i32", Int32Field, st.integers(-(2**31), 2**31 - 1)),
    ("i64", Int64Field, st.integers(-(2**62), 2**62 - 1)),
    ("bool", BoolField, st.booleans()),
    ("float", Float64Field, st.floats(allow_nan=False, allow_infinity=False, width=32)),
    (
        "dec",
        lambda: DecimalField(2),
        st.decimals(min_value=-(10**9), max_value=10**9, places=2, allow_nan=False),
    ),
    (
        "date",
        DateField,
        st.dates(datetime.date(1900, 1, 1), datetime.date(2200, 1, 1)),
    ),
    ("char", lambda: CharField(12), st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=12
    )),
    ("vstr", VarStringField, st.text(max_size=80)),
]


@st.composite
def schema_and_rows(draw):
    kinds = draw(
        st.lists(st.sampled_from(_FIELD_KINDS), min_size=1, max_size=8)
    )
    fields = []
    strategies = {}
    for i, (tag, factory, strat) in enumerate(kinds):
        name = f"f{i}_{tag}"
        fields.append((name, factory()))
        strategies[name] = strat
    rows = draw(
        st.lists(st.fixed_dictionaries(strategies), min_size=1, max_size=10)
    )
    return fields, rows


@settings(max_examples=60, deadline=None)
@given(data=schema_and_rows())
def test_random_layout_roundtrip(data):
    """Any ordered mix of field kinds packs and unpacks losslessly."""
    fields, rows = data
    schema = TabularMeta(f"Rand{next(_counter)}", (Tabular,), dict(fields))
    layout = schema.__layout__
    manager = MemoryManager(block_shift=12)
    # The collection gives varstring fields their dictionary.
    Collection(schema, manager=manager)
    try:
        for row in rows:
            buf = bytearray(layout.slot_size)
            layout.write_new(buf, 0, row, manager)
            readback = layout.read_row(buf, 0, manager)
            for name, field in fields:
                assert readback[name] == field.from_raw(field.to_raw(row[name])) or (
                    readback[name] == row[name]
                )
    finally:
        manager.close()


@settings(max_examples=60, deadline=None)
@given(data=schema_and_rows())
def test_template_and_full_pack_agree_with_write_new(data):
    """Rows the codec packs and ``add_many`` places — full rows, and
    sparse ones holding only their first field — decode like the rows
    ``write_new`` writes field by field."""
    fields, rows = data
    schema = TabularMeta(f"Rand{next(_counter)}", (Tabular,), dict(fields))
    layout = schema.__layout__
    manager = MemoryManager(block_shift=12)
    try:
        first = fields[0][0]
        batch = [dict(row) for row in rows] + [{first: row[first]} for row in rows]
        handles = Collection(schema, manager=manager).add_many(batch)
        for values, handle in zip(batch, handles):
            expected = bytearray(layout.slot_size)
            layout.write_new(expected, 0, dict(values), manager)
            address = handle.ref.address()
            block = manager.space.block_at(address)
            # Variable strings allocate separate heap records, so compare
            # decoded rows rather than raw bytes.
            assert layout.read_row(
                block.buf, manager.space.offset_of(address), manager
            ) == layout.read_row(expected, 0, manager)
    finally:
        manager.close()
