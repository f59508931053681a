"""Columnar collections (paper section 4.1)."""

import datetime
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.core.handle import Handle
from repro.errors import NullReferenceError
from repro.schema.fields import CharField, DecimalField, Int32Field

from tests.schemas import TEverything, TNote, TOrder, TPerson


@pytest.fixture
def persons(manager):
    return ColumnarCollection(TPerson, manager=manager)


def test_column_dtypes():
    import numpy as np

    def dtype(field):
        ((__, dtype, __),) = field.columns()
        return dtype

    assert dtype(DecimalField(2)) == np.int64
    assert dtype(Int32Field()) == np.int32
    assert dtype(CharField(7)) == "S7"


def test_add_and_read(persons):
    h = persons.add(name="Ada", age=36, balance=Decimal("1.25"))
    assert isinstance(h, Handle)
    assert h.name == "Ada"
    assert h.age == 36
    assert h.balance == Decimal("1.25")


def test_remove_nulls_handle(persons):
    h = persons.add(name="Ada", age=36)
    persons.remove(h)
    assert len(persons) == 0
    with pytest.raises(NullReferenceError):
        __ = h.name


def test_update_through_handle(persons):
    h = persons.add(name="Ada", age=36)
    h.age = 37
    assert h.age == 37


def test_enumeration(persons):
    for i in range(50):
        persons.add(name=f"p{i}", age=i)
    assert [h.age for h in persons] == list(range(50))


def test_indirection_stores_block_and_slot(persons, manager):
    h = persons.add(name="Ada", age=36)
    addr = h.ref.address()
    block = manager.space.block_at(addr)
    # For columnar blocks the offset part of the address IS the slot id.
    assert block.slot_of_address(addr) == manager.space.offset_of(addr)


def test_cross_layout_references(manager):
    """A columnar collection can reference a row collection and back."""
    persons = ColumnarCollection(TPerson, manager=manager)
    orders = Collection(TOrder, manager=manager)
    p = persons.add(name="Ada", age=36)
    o = orders.add(orderkey=1, owner=p)
    assert o.owner.name == "Ada"
    persons.remove(p)
    with pytest.raises(NullReferenceError):
        __ = o.owner.name


def test_columnar_to_columnar_reference(manager):
    persons = ColumnarCollection(TPerson, manager=manager)
    orders = ColumnarCollection(TOrder, manager=manager)
    p = persons.add(name="Ada", age=36)
    o = orders.add(orderkey=7, owner=p)
    assert o.owner.name == "Ada"
    assert o.owner.age == 36
    o.owner = None
    assert o.owner is None


def test_varstring_columns(manager):
    notes = ColumnarCollection(TNote, manager=manager)
    n = notes.add(text="columnar text record", stars=4)
    assert n.text == "columnar text record"
    assert manager.strings.bytes_in_use > 0
    notes.remove(n)
    assert manager.strings.bytes_in_use == 0


def test_compaction_not_supported(persons):
    with pytest.raises(NotImplementedError):
        persons.compact()


def test_date_column(manager):
    orders = ColumnarCollection(TOrder, manager=manager)
    o = orders.add(orderkey=1, placed=datetime.date(2020, 5, 4))
    assert o.placed == datetime.date(2020, 5, 4)


def test_slot_reuse_in_columnar_blocks():
    from repro.memory.manager import MemoryManager

    m = MemoryManager(block_shift=10, reclamation_threshold=0.05)
    persons = ColumnarCollection(TPerson, manager=m)
    live = [persons.add(name=f"p{i}", age=i) for i in range(100)]
    blocks = persons.context.block_count()
    for __ in range(5):
        for h in live:
            persons.remove(h)
        live = [persons.add(name=f"r{i}", age=i) for i in range(100)]
    assert persons.context.block_count() <= blocks + 2
    m.close()


def test_query_agreement_with_row_layout(manager):
    from repro.query.expressions import param

    row = Collection(TEverything, manager=manager)
    # Columnar twin lives on its own manager to avoid type-id confusion.
    from repro.memory.manager import MemoryManager

    m2 = MemoryManager()
    colp = ColumnarCollection(TEverything, manager=m2)
    ColumnarCollection(TPerson, manager=m2)
    Collection(TPerson, manager=manager)
    rows = [
        dict(i32=i, price=Decimal(i) / 4, code=f"c{i % 3}", ratio=i / 7)
        for i in range(200)
    ]
    for r in rows:
        row.add(**r)
        colp.add(**r)
    q_row = (
        row.query()
        .where(TEverything.i32 >= param("lo"))
        .group_by(code=TEverything.code)
        .aggregate(total=__import__("repro.query.builder", fromlist=["Sum"]).Sum(TEverything.price))
        .order_by("code")
    )
    q_col = (
        colp.query()
        .where(TEverything.i32 >= param("lo"))
        .group_by(code=TEverything.code)
        .aggregate(total=__import__("repro.query.builder", fromlist=["Sum"]).Sum(TEverything.price))
        .order_by("code")
    )
    assert q_row.run(lo=50).rows == q_col.run(lo=50).rows
    m2.close()
