"""Secondary hash indexes."""

import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.core.index import HashIndex, IndexError_
from repro.memory.manager import MemoryManager

from tests.schemas import TOrder, TPerson


@pytest.fixture
def persons(manager):
    return Collection(TPerson, manager=manager)


def test_index_backfills_existing_rows(persons):
    for i in range(20):
        persons.add(name=f"p{i % 4}", age=i)
    idx = persons.create_index("name")
    assert len(idx) == 20
    assert idx.distinct_keys == 4
    assert len(idx.get("p1")) == 5


def test_index_tracks_adds(persons):
    idx = persons.create_index("age")
    persons.add(name="a", age=7)
    persons.add(name="b", age=7)
    assert len(idx.get(7)) == 2
    assert idx.get_one(7).age == 7
    assert 7 in idx
    assert 8 not in idx


def test_index_tracks_removes(persons):
    idx = persons.create_index("age")
    h = persons.add(name="a", age=7)
    persons.remove(h)
    assert idx.get(7) == []
    assert len(idx) == 0


def test_index_tracks_remove_where(persons):
    idx = persons.create_index("age")
    for i in range(10):
        persons.add(name="x", age=i % 2)
    persons.remove_where(TPerson.age == 0)
    assert idx.get(0) == []
    assert len(idx.get(1)) == 5


def test_index_tracks_field_updates(persons):
    idx = persons.create_index("age")
    h = persons.add(name="a", age=1)
    h.age = 99
    assert idx.get(1) == []
    assert idx.get_one(99) == h


def test_index_on_columnar_collection(manager):
    persons = ColumnarCollection(TPerson, manager=manager)
    idx = persons.create_index("name")
    h = persons.add(name="ada", age=1)
    assert idx.get_one("ada") == h
    h.name = "eve"
    assert idx.get("ada") == []
    assert idx.get_one("eve") == h
    persons.remove(h)
    assert idx.get("eve") == []


def test_index_survives_compaction():
    m = MemoryManager(block_shift=10)
    persons = Collection(TPerson, manager=m)
    handles = []
    while persons.context.block_count() < 5:
        handles.append(persons.add(name=f"p{len(handles)}", age=len(handles)))
    idx = persons.create_index("age")
    keep = handles[::7]
    for h in handles:
        if h not in keep:
            persons.remove(h)
    persons.compact(occupancy_threshold=0.9)
    for h in keep:
        assert idx.get_one(h.age).name == h.name
    m.close()


def test_index_rejects_unknown_field(persons):
    with pytest.raises(IndexError_):
        persons.create_index("bogus")


def test_index_rejects_ref_and_varstring_fields(manager):
    orders = Collection(TOrder, manager=manager)
    with pytest.raises(IndexError_):
        orders.create_index("owner")
    from tests.schemas import TNote

    notes = Collection(TNote, manager=manager)
    with pytest.raises(IndexError_):
        notes.create_index("text")


def test_multiple_indexes_one_collection(persons):
    by_name = persons.create_index("name")
    by_age = persons.create_index("age")
    h = persons.add(name="ada", age=36)
    assert by_name.get_one("ada") == h
    assert by_age.get_one(36) == h
    persons.remove(h)
    assert not by_name.get("ada") and not by_age.get(36)


class TestSortedIndex:
    def test_range_lookup(self, persons):
        idx = persons.create_sorted_index("age")
        for i in range(50):
            persons.add(name=f"p{i}", age=i)
        got = [h.age for h in idx.range(10, 20)]
        assert got == list(range(10, 21))
        got = [h.age for h in idx.range(10, 20, lo_open=True, hi_open=True)]
        assert got == list(range(11, 20))

    def test_open_bounds(self, persons):
        idx = persons.create_sorted_index("age")
        for i in range(10):
            persons.add(name="x", age=i)
        assert [h.age for h in idx.range(hi=3)] == [0, 1, 2, 3]
        assert [h.age for h in idx.range(lo=7)] == [7, 8, 9]
        assert len(idx.range()) == 10

    def test_tracks_mutations(self, persons):
        idx = persons.create_sorted_index("age")
        h = persons.add(name="x", age=5)
        persons.add(name="y", age=6)
        assert [g.age for g in idx.get(5)] == [5]
        h.age = 50
        assert idx.get(5) == []
        assert [g.age for g in idx.get(50)] == [50]
        persons.remove(h)
        assert idx.get(50) == []
        assert len(idx) == 1

    def test_min_max_keys(self, persons):
        idx = persons.create_sorted_index("age")
        assert idx.min_key() is None
        persons.add(name="a", age=3)
        persons.add(name="b", age=9)
        assert idx.min_key() == 3
        assert idx.max_key() == 9

    def test_backfill_and_duplicates(self, persons):
        for i in range(20):
            persons.add(name="x", age=i % 4)
        idx = persons.create_sorted_index("age")
        assert len(idx) == 20
        assert len(idx.get(2)) == 5

    def test_date_range_on_dates(self, manager, monkeypatch):
        import datetime

        from tests.schemas import TOrder

        Collection_ = Collection
        persons = Collection_(TPerson, manager=manager)
        orders = Collection_(TOrder, manager=manager)
        idx = orders.create_sorted_index("placed")
        base = datetime.date(2020, 1, 1)
        for i in range(30):
            orders.add(orderkey=i, placed=base + datetime.timedelta(days=i))
        # A lookup visits its hits only: it never enumerates the collection.
        monkeypatch.setattr(Collection_, "__iter__", None)
        got = idx.range(
            datetime.date(2020, 1, 10), datetime.date(2020, 1, 15)
        )
        assert [h.orderkey for h in got] == list(range(9, 15))

    def test_rejects_ref_field(self, manager):
        from tests.schemas import TOrder

        orders = Collection(TOrder, manager=manager)
        with pytest.raises(IndexError_):
            orders.create_sorted_index("owner")
