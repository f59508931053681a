"""Direct pointers between SMCs (paper section 6)."""

import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.core.compaction import Compactor
from repro.errors import NullReferenceError
from repro.memory.indirection import FORWARD, INC_MASK
from repro.memory.manager import MemoryManager

from tests.schemas import TOrder, TPerson


@pytest.fixture
def world(direct_manager):
    persons = Collection(TPerson, manager=direct_manager)
    orders = Collection(TOrder, manager=direct_manager)
    return direct_manager, persons, orders


def test_ref_field_stores_raw_address(world):
    m, persons, orders = world
    p = persons.add(name="A", age=1)
    o = orders.add(orderkey=1, owner=p)
    addr = o.ref.address()
    block = m.space.block_at(addr)
    off = m.space.offset_of(addr)
    field = orders.layout.by_name["owner"]
    word, inc = field.decode_words(block.buf, off + field.offset)
    assert word == p.ref.address()


def test_navigation_checks_slot_incarnation(world):
    m, persons, orders = world
    p = persons.add(name="A", age=1)
    o = orders.add(orderkey=1, owner=p)
    assert o.owner.name == "A"
    persons.remove(p)
    with pytest.raises(NullReferenceError):
        __ = o.owner.name


def test_slot_reuse_does_not_resurrect_direct_pointer():
    m = MemoryManager(block_shift=10, direct_pointers=True)
    persons = Collection(TPerson, manager=m)
    orders = Collection(TOrder, manager=m)
    p = persons.add(name="victim", age=1)
    o = orders.add(orderkey=1, owner=p)
    old_addr = p.ref.address()
    persons.remove(p)
    # Recycle until an object lands on the victim's slot (allocations
    # advance the epoch and drain the reclamation queue on their own).
    for i in range(2000):
        fresh = persons.add(name=f"f{i}", age=i)
        if fresh.ref.address() == old_addr:
            break
    else:
        pytest.fail("slot was never recycled")
    with pytest.raises(NullReferenceError):
        __ = o.owner.name
    m.close()


def test_compaction_leaves_forward_tombstones(world):
    m, persons, orders = world
    small = MemoryManager(block_shift=10, direct_pointers=True)
    persons = Collection(TPerson, manager=small)
    orders = Collection(TOrder, manager=small)
    handles = []
    while persons.context.block_count() < 4:
        handles.append(persons.add(name=f"p{len(handles)}", age=len(handles)))
    keep = handles[::4]
    order_handles = [orders.add(orderkey=i, owner=h) for i, h in enumerate(keep)]
    old_addrs = [h.ref.address() for h in keep]
    old_blocks = [small.space.block_at(a) for a in old_addrs]
    for h in handles:
        if h not in keep:
            persons.remove(h)
    moved = persons.compact(occupancy_threshold=0.9)
    assert moved > 0
    # Moved sources carry the FORWARD flag in their slot headers.
    forwards = 0
    for blk, addr in zip(old_blocks, old_addrs):
        slot = blk.slot_of_address(addr)
        if int(blk.slot_incs[slot]) & FORWARD:
            forwards += 1
    assert forwards > 0
    # Navigation still reaches every kept person (healed or rewritten).
    for i, o in enumerate(order_handles):
        assert o.owner.name == keep[i].name
    small.close()


def test_pointer_rewrite_after_compaction(world):
    """After the post-compaction scan, in-row words point at new slots."""
    small = MemoryManager(block_shift=10, direct_pointers=True)
    persons = Collection(TPerson, manager=small)
    orders = Collection(TOrder, manager=small)
    handles = []
    while persons.context.block_count() < 4:
        handles.append(persons.add(name=f"p{len(handles)}", age=len(handles)))
    keep = handles[::4]
    order_handles = [orders.add(orderkey=i, owner=h) for i, h in enumerate(keep)]
    for h in handles:
        if h not in keep:
            persons.remove(h)
    persons.compact(occupancy_threshold=0.9)
    field = orders.layout.by_name["owner"]
    for i, o in enumerate(order_handles):
        addr = o.ref.address()
        block = small.space.block_at(addr)
        off = small.space.offset_of(addr)
        word, inc = field.decode_words(block.buf, off + field.offset)
        # Word must equal the owner's *current* address (not a tombstone).
        assert word == keep[i].ref.address()
    small.close()


def _compacted_owners(order_layout):
    """A direct-pointer store whose row TPerson collection was compacted
    under orders of *order_layout*: (manager, kept persons, orders, the
    persons' addresses before the move)."""
    small = MemoryManager(block_shift=10, direct_pointers=True)
    persons = Collection(TPerson, manager=small)
    orders = order_layout(TOrder, manager=small)
    handles = []
    while persons.context.block_count() < 4:
        handles.append(persons.add(name=f"p{len(handles)}", age=len(handles)))
    keep = handles[::4]
    order_handles = [orders.add(orderkey=i, owner=h) for i, h in enumerate(keep)]
    old_addrs = [h.ref.address() for h in keep]
    for h in handles:
        if h not in keep:
            persons.remove(h)
    assert persons.compact(occupancy_threshold=0.9) > 0
    return small, keep, order_handles, old_addrs


def _owner_words(manager, order):
    address = order.ref.address()
    block = manager.space.block_at(address)
    slot = block.slot_of_address(address)
    return int(block.column("owner__w")[slot]), int(block.column("owner__i")[slot])


@pytest.mark.parametrize("layout", [Collection, ColumnarCollection])
def test_handle_read_follows_forward_and_heals(layout, monkeypatch):
    """A direct pointer into a compacted row collection, from a source of
    either layout: the handle read follows the FORWARD tombstone to the
    relocated row and heals the source's stored words."""
    # Without the rewrite pass every moved owner is still reached
    # through its tombstone, as by a read that lands between the moving
    # phase and that pass.
    monkeypatch.setattr(Compactor, "_rewrite_direct_pointers", lambda *a: 0)
    small, keep, orders, old_addrs = _compacted_owners(layout)
    moved = [
        i for i, h in enumerate(keep) if h.ref.address() != old_addrs[i]
    ]
    assert moved
    for i in moved:
        word, __ = _owner_words(small, orders[i])
        block = small.space.block_at(word)
        assert int(block.slot_incs[block.slot_of_address(word)]) & FORWARD
    for i, o in enumerate(orders):
        assert o.owner.name == keep[i].name
        assert o.owner == keep[i]
    for i, o in enumerate(orders):
        address = keep[i].ref.address()
        block = small.space.block_at(address)
        inc = int(block.slot_incs[block.slot_of_address(address)]) & INC_MASK
        assert _owner_words(small, o) == (address, inc)
    small.close()


def test_pointer_rewrite_reaches_columnar_referrers():
    """The post-compaction rewrite pass updates a columnar referrer's
    word columns and leaves its other columns alone."""
    small, keep, orders, __ = _compacted_owners(ColumnarCollection)
    for i, o in enumerate(orders):
        assert _owner_words(small, o)[0] == keep[i].ref.address()
        assert o.orderkey == i
        assert o.owner.name == keep[i].name
    small.close()


def test_direct_mode_self_reference(direct_manager):
    from tests.schemas import TNode

    nodes = Collection(TNode, manager=direct_manager)
    tail = nodes.add(value=2)
    head = nodes.add(value=1, next=tail)
    assert head.next.value == 2
    nodes.remove(tail)
    with pytest.raises(NullReferenceError):
        __ = head.next.value


def test_compiled_query_navigation_direct(direct_manager):
    from repro.query.expressions import param

    persons = Collection(TPerson, manager=direct_manager)
    orders = Collection(TOrder, manager=direct_manager)
    people = [persons.add(name=f"p{i}", age=i) for i in range(50)]
    for i, p in enumerate(people):
        orders.add(orderkey=i, owner=p)
    q = orders.query().where(TOrder.owner.ref("age") >= param("lo")).select(
        okey=TOrder.orderkey
    )
    got = sorted(q.run(lo=40).column("okey"))
    assert got == list(range(40, 50))
    # Matches the interpreter.
    assert sorted(q.run(engine="interpreted", lo=40).column("okey")) == got
