"""Field codecs and slot-layout computation."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.core.collection import Collection
from repro.memory.block import SLOT_HEADER_SIZE
from repro.schema.fields import (
    CharField,
    DateField,
    DecimalField,
    Int8Field,
    Int32Field,
    Int64Field,
    RefField,
    date_to_days,
    days_to_date,
)
from repro.schema.layout import SlotLayout

from tests.schemas import TEverything, TPerson


def test_date_conversions_roundtrip():
    d = datetime.date(1998, 9, 2)
    assert days_to_date(date_to_days(d)) == d


def test_date_accepts_iso_string():
    assert date_to_days("1970-01-02") == 1


@given(st.dates(min_value=datetime.date(1900, 1, 1), max_value=datetime.date(2200, 1, 1)))
def test_date_roundtrip_property(d):
    assert days_to_date(date_to_days(d)) == d


def test_decimal_raw_conversions():
    f = DecimalField(2)
    assert f.to_raw(Decimal("12.34")) == 1234
    assert f.to_raw(5) == 500
    assert f.to_raw(1.5) == 150
    assert f.to_raw("0.07") == 7
    assert f.from_raw(1234) == Decimal("12.34")


def test_decimal_scale_bounds():
    with pytest.raises(ValueError):
        DecimalField(scale=-1)
    with pytest.raises(ValueError):
        DecimalField(scale=10)


def test_decimal_rejects_junk():
    f = DecimalField(2)
    with pytest.raises(TypeError):
        f.to_raw(object())


@given(
    st.decimals(
        min_value=-(10**12), max_value=10**12, places=2, allow_nan=False
    )
)
def test_decimal_roundtrip_property(value):
    f = DecimalField(2)
    assert f.from_raw(f.to_raw(value)) == value


def test_char_field_width_validation():
    with pytest.raises(ValueError):
        CharField(0)


def test_char_encode_decode():
    layout = TPerson.__layout__
    buf = bytearray(layout.slot_size)
    layout.write_field(buf, 0, "name", "Ada", None)
    assert layout.read_field(buf, 0, "name", None) == "Ada"


def test_char_overflow_rejected():
    layout = TPerson.__layout__
    buf = bytearray(layout.slot_size)
    with pytest.raises(ValueError):
        layout.write_field(buf, 0, "name", "x" * 25, None)


def test_layout_offsets_are_aligned():
    layout = TEverything.__layout__
    for f in layout.fields:
        assert f.offset % f.align == 0, f.name
        assert f.offset >= SLOT_HEADER_SIZE


def test_layout_fields_do_not_overlap():
    layout = TEverything.__layout__
    spans = sorted((f.offset, f.offset + f.size) for f in layout.fields)
    for (s1, e1), (s2, __) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_layout_slot_size_multiple_of_eight():
    assert TEverything.__layout__.slot_size % 8 == 0
    assert TPerson.__layout__.slot_size % 8 == 0


def test_layout_classifies_fields():
    layout = TEverything.__layout__
    assert [f.name for f in layout.var_fields] == ["memo"]
    assert [f.name for f in layout.ref_fields] == ["friend"]
    assert "price" in [f.name for f in layout.scalar_fields]


def test_layout_rejects_empty():
    with pytest.raises(ValueError):
        SlotLayout([], "Empty")


@pytest.fixture
def coded(manager):
    """*manager* hosting a TEverything collection: the ``memo`` field's
    slot holds a code of that collection's string dictionary."""
    Collection(TEverything, manager=manager)
    return manager


def test_write_new_applies_defaults(coded):
    manager = coded
    layout = TEverything.__layout__
    buf = bytearray(layout.slot_size)
    layout.write_new(buf, 0, {}, manager)
    assert layout.read_field(buf, 0, "i32", manager) == 0
    assert layout.read_field(buf, 0, "price", manager) == Decimal(0)
    assert layout.read_field(buf, 0, "day", manager) == datetime.date(1970, 1, 1)
    assert layout.read_field(buf, 0, "code", manager) == ""
    assert layout.read_field(buf, 0, "memo", manager) == ""
    assert layout.read_field(buf, 0, "friend", manager) == (-1, 0)


def test_write_new_rejects_unknown_fields(manager):
    layout = TPerson.__layout__
    buf = bytearray(layout.slot_size)
    with pytest.raises(TypeError):
        layout.write_new(buf, 0, {"bogus": 1}, manager)


def test_write_new_full_row_roundtrip(coded):
    manager = coded
    layout = TEverything.__layout__
    buf = bytearray(layout.slot_size)
    values = {
        "i8": -5,
        "i16": 1234,
        "i32": -70000,
        "i64": 2**40,
        "flag": True,
        "ratio": 2.5,
        "price": Decimal("99.99"),
        "fine": Decimal("0.1234"),
        "day": datetime.date(2001, 2, 3),
        "code": "ABC",
        "memo": "a longer variable string",
        "friend": (7, 3),
    }
    layout.write_new(buf, 0, values, manager)
    row = layout.read_row(buf, 0, manager)
    assert row == values


def test_release_owned_frees_strings(coded):
    manager = coded
    layout = TEverything.__layout__
    buf = bytearray(layout.slot_size)
    layout.write_new(buf, 0, {"memo": "hello strings"}, manager)
    assert manager.strings.bytes_in_use > 0
    layout.release_owned(buf, 0, manager)
    assert manager.strings.bytes_in_use == 0
    assert layout.read_field(buf, 0, "memo", manager) == ""


def test_varstring_overwrite_frees_old(coded):
    manager = coded
    layout = TEverything.__layout__
    buf = bytearray(layout.slot_size)
    layout.write_new(buf, 0, {"memo": "first"}, manager)
    used = manager.strings.bytes_in_use
    layout.write_field(buf, 0, "memo", "second", manager)
    assert manager.strings.bytes_in_use == used
    assert layout.read_field(buf, 0, "memo", manager) == "second"


def test_varstring_without_a_dictionary_raises(manager):
    """Codes are the one varstring representation: with no collection of
    its class on the manager, a field has no dictionary to code into."""
    layout = TEverything.__layout__
    buf = bytearray(layout.slot_size)
    for access in (
        lambda: layout.write_field(buf, 0, "memo", "text", manager),
        lambda: layout.read_field(buf, 0, "memo", manager),
    ):
        with pytest.raises(TypeError, match="no string dictionary"):
            access()


def test_int_field_sizes():
    assert Int8Field.size == 1
    assert Int32Field.size == 4
    assert Int64Field.size == 8
    assert RefField("TPerson").size == 16


def test_layout_repr_mentions_type():
    assert "TPerson" in repr(TPerson.__layout__)
