"""Data block layout, slot transitions and directory scans — one slot
protocol, bound over any buffer, in both layouts."""

from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.errors import ProtocolViolation
from repro.io.snapshot import load_collections, save_collections
from repro.memory.block import BLOCK_HEADER_SIZE, Block, ColumnarBlock
from repro.memory.manager import MemoryManager
from repro.memory.pager import TierStore
from repro.memory.slots import FREE, LIMBO, VALID
from repro.memory.stringheap import StringBlock

from tests.schemas import TEverything, TPerson

BLOCK_SHIFT = 12  # 4 KiB blocks keep tests small


@pytest.fixture
def manager():
    m = MemoryManager(block_shift=BLOCK_SHIFT)
    yield m
    m.close()


@pytest.fixture
def space(manager):
    return manager.space


@pytest.fixture(params=["row", "columnar"])
def block(request, manager):
    factory = Collection if request.param == "row" else ColumnarCollection
    context = factory(TPerson, manager=manager).context
    return context.block_class.create(manager.space, context)


def _advance_to(manager, epoch):
    """Move the global epoch so removal stamps are not from the future
    (the sanitizer checks slot transitions against the real epoch)."""
    while manager.epochs.global_epoch < epoch:
        assert manager.advance_epoch()


@pytest.fixture
def row_block(manager):
    context = manager.create_context(64, "T")
    return Block.create(manager.space, context)


def test_slot_size_must_be_aligned(manager):
    with pytest.raises(ValueError):
        Block.create(manager.space, manager.create_context(30, "T"))


def test_slot_size_must_fit_header(manager):
    with pytest.raises(ValueError):
        Block.create(manager.space, manager.create_context(8, "T"))


def test_oversized_slot_rejected(manager):
    with pytest.raises(ValueError):
        Block.create(manager.space, manager.create_context(1 << 13, "T"))


def test_slot_count_fits_block(block, space):
    per_slot = block.slot_size + 4 + 8
    assert block.slot_count >= (space.block_size - BLOCK_HEADER_SIZE) // per_slot - 1
    assert block.slot_count >= 1


def test_segments_do_not_overlap(row_block, space):
    block = row_block
    dir_start = BLOCK_HEADER_SIZE + block.slot_count * block.slot_size
    assert block.object_offset == BLOCK_HEADER_SIZE
    assert block.directory_offset == dir_start
    assert dir_start + block.slot_count * 4 <= space.block_size
    # back-pointer view is 8-byte aligned inside the buffer
    assert block.backptrs.dtype == np.int64


def test_slot_address_roundtrip(block, space):
    for slot in (0, 1, block.slot_count - 1):
        addr = block.slot_address(slot)
        assert block.slot_of_address(addr) == slot
        assert block.slot_of_offset(space.offset_of(addr)) == slot
    slots = np.arange(block.slot_count)
    offsets = block.slot_address(slots) & (space.block_size - 1)
    assert np.array_equal(block.slot_of_offset(offsets), slots)


def test_block_alignment_trick(block, space):
    addr = block.slot_address(3)
    assert space.block_at(addr) is block


def test_fresh_block_all_free(block):
    assert block.valid_count == 0
    assert all(block.state_of(s) == FREE for s in range(block.slot_count))
    assert len(block.valid_slots()) == 0
    assert (block.backptrs == -1).all()


def test_mark_valid_and_limbo(block, manager):
    block.mark_valid(0)
    assert block.state_of(0) == VALID
    assert block.valid_count == 1
    _advance_to(manager, 5)
    block.mark_limbo(0, epoch=5)
    assert block.state_of(0) == LIMBO
    assert block.removal_epoch_of(0) == 5
    assert block.valid_count == 0
    assert block.limbo_count == 1


def test_mark_limbo_requires_valid(block, _protocol_sanitizer):
    # Whichever guard is active: under --sanitize the protocol sanitizer
    # sees the transition first, otherwise the block's own check raises.
    with pytest.raises((ValueError, ProtocolViolation)):
        block.mark_limbo(0, epoch=0)
    if _protocol_sanitizer is not None:
        # The violation was the point; keep teardown from re-raising it.
        assert len(_protocol_sanitizer.violations) == 1
        _protocol_sanitizer.violations.clear()


def test_valid_slots_vectorised(block):
    for slot in (1, 3, 5):
        block.mark_valid(slot)
    assert block.valid_slots().tolist() == [1, 3, 5]


def test_find_allocatable_prefers_first_free(block):
    assert block.find_allocatable(0, global_epoch=0) == 0
    block.mark_valid(0)
    assert block.find_allocatable(0, global_epoch=0) == 1


def test_find_allocatable_skips_young_limbo(block, manager):
    block.mark_valid(0)
    _advance_to(manager, 10)
    block.mark_limbo(0, epoch=10)
    for s in range(1, block.slot_count):
        block.mark_valid(s)
    assert block.find_allocatable(0, global_epoch=11) is None
    assert block.find_allocatable(0, global_epoch=12) == 0


def test_find_allocatable_respects_start(block):
    assert block.find_allocatable(5, global_epoch=0) == 5


def test_limbo_fraction_and_occupancy(block):
    n = block.slot_count
    for s in range(n):
        block.mark_valid(s)
    assert block.occupancy == 1.0
    block.mark_limbo(0, 0)
    assert block.limbo_fraction == pytest.approx(1 / n)
    assert block.occupancy == pytest.approx((n - 1) / n)


def test_reset_clears_everything(row_block, manager):
    block = row_block
    block.mark_valid(0)
    block.backptrs[0] = 77
    block.slot_incs[0] = 9
    _advance_to(manager, 3)
    block.mark_limbo(0, 3)
    block.alloc_cursor = 5
    other = manager.create_context(64, "U")
    block.reset(other)
    assert block.type_id == other.type_id
    assert block.context_id == other.context_id
    assert block.state_of(0) == FREE
    assert block.backptrs[0] == -1
    assert int(block.slot_incs[0]) == 0
    assert block.alloc_cursor == 0
    assert block.limbo_count == 0


def test_reset_refuses_live_objects(row_block):
    row_block.mark_valid(0)
    with pytest.raises(ValueError):
        row_block.reset(row_block.context)


def test_reset_drops_cached_column_views(manager):
    people = Collection(TPerson, manager=manager)
    block = people.context.block_class.create(manager.space, people.context)
    assert block.column("age") is block.column("age")  # cached
    everything = manager.create_context(block.slot_size, "TOther")
    everything.layout = people.layout
    stale = block.column("age")
    block.reset(everything)
    assert block.column("age") is not stale


def test_slot_incs_view_is_strided_into_buffer(row_block):
    block = row_block
    block.slot_incs[2] = 12345
    off = block.object_offset + 2 * block.slot_size
    assert int.from_bytes(block.buf[off : off + 4], "little") == 12345


def test_release_returns_address_range(block, space):
    addr = block.slot_address(0)
    block.release()
    assert space.try_block_at(addr) is None


# ----------------------------------------------------------------------
# One class in every container
# ----------------------------------------------------------------------


def _store(layout: str, shm: bool):
    """A manager holding a few TEverything rows; returns it, the
    collection and the block under test (a data block, or for the
    ``string`` layout the string-heap block behind the memo texts)."""
    manager = MemoryManager(block_shift=BLOCK_SHIFT, shm=shm)
    factory = ColumnarCollection if layout == "columnar" else Collection
    coll = factory(TEverything, manager=manager)
    for i in range(20):
        coll.add(i8=i, i32=i * 7, price=i, code=f"c{i}", memo=f"memo-{i}", day=i)
    if layout == "string":
        (block,) = manager.strings.blocks()
    else:
        (block,) = coll.context.blocks()
    return manager, coll, block


@pytest.mark.parametrize("container", ["heap", "shm", "tier", "snapshot"])
@pytest.mark.parametrize("layout", ["row", "columnar", "string"])
def test_one_class_in_every_container(layout, container, tmp_path):
    owner, coll, owned = _store(layout, shm=container == "shm")
    # A second manager with the same (empty) collection stands in for
    # another process: same contexts, its own address space and buffers.
    mirror = MemoryManager(block_shift=BLOCK_SHIFT, shm=container == "shm")
    store = None
    try:
        if container == "snapshot":
            path = str(tmp_path / "image.smcsnap")
            save_collections(path, {"everything": coll})
            loaded = load_collections(path)
            mirror.close()
            mirror = loaded["_manager"]
            if layout == "string":
                (block,) = mirror.strings.blocks()
            else:
                (block,) = loaded["everything"].context.blocks()
        else:
            factory = ColumnarCollection if layout == "columnar" else Collection
            factory(TEverything, manager=mirror)
            space = mirror.space
            if container == "heap":
                segment = space.buffers.create(space.block_size)
                segment.buf[:] = owned.buf
            elif container == "shm":
                segment = space.buffers.attach(owned.segment.name)
                assert segment is not owned.segment  # a second mapping, by name
                # Attachers untrack what they map; in ONE process that
                # also drops the owner's registration, so put it back.
                resource_tracker.register(segment._shm._name, "shared_memory")
            else:
                store = TierStore(space.block_size)
                offset = store.spill(owned.buf)
                segment = store.map_region(offset, space.block_size)
            before = bytes(segment.buf)
            if layout == "string":
                block = StringBlock(space, owned.block_id, segment, owned.bump)
            else:
                block = mirror.attach_block(owned.block_id, segment)
            assert bytes(segment.buf) == before  # binding never writes

        expected = {"row": Block, "columnar": ColumnarBlock, "string": StringBlock}
        assert type(block) is type(owned) is expected[layout]
        assert block.block_id == owned.block_id
        assert mirror.space.block_by_id(owned.block_id) is block
        if layout == "string":
            assert block.bump == owned.bump
            assert bytes(block.buf[: block.bump]) == bytes(owned.buf[: owned.bump])
        else:
            views = {"directory": block.directory, "backptrs": block.backptrs,
                     "slot_incs": block.slot_incs}
            for name, view in views.items():
                assert np.array_equal(view, getattr(owned, name)), name
            for name in coll.layout.columns:
                views[name] = block.column(name)
                assert views[name].dtype == owned.column(name).dtype, name
                assert np.array_equal(views[name], owned.column(name)), name
            assert block.valid_slots().tolist() == list(range(20))
            read_only = container == "tier"
            for name, view in views.items():
                assert view.flags.writeable is not read_only, name
        block = views = view = segment = None
    finally:
        mirror.close()
        if store is not None:
            store.close()
        owner.close()


@pytest.mark.parametrize("layout", ["row", "columnar"])
def test_attach_rejects_mismatching_header(layout):
    """A worker-side attach checks the header against the context it
    names: another kind or slot size raises, naming the block id."""
    owner, coll, owned = _store(layout, shm=False)
    mirror = MemoryManager(block_shift=BLOCK_SHIFT)
    try:
        # Same context position, other layout / other slot size.
        wrong_kind = Collection if layout == "columnar" else ColumnarCollection
        wrong_kind(TEverything, manager=mirror)
        segment = mirror.space.buffers.create(mirror.space.block_size)
        segment.buf[:] = owned.buf
        with pytest.raises(ValueError, match=f"block {owned.block_id}"):
            mirror.attach_block(owned.block_id, segment)
        assert mirror.space.try_block_at(owned.base_address) is None

        other = MemoryManager(block_shift=BLOCK_SHIFT)
        try:
            factory = ColumnarCollection if layout == "columnar" else Collection
            factory(TPerson, manager=other, name="everything")
            with pytest.raises(ValueError, match=f"block {owned.block_id}"):
                other.attach_block(owned.block_id, segment)
        finally:
            other.close()
    finally:
        mirror.close()
        owner.close()


def test_attach_rejects_unknown_context(manager):
    segment = manager.space.buffers.create(manager.space.block_size)
    with pytest.raises(ValueError, match="block 7"):
        manager.attach_block(7, segment)  # zeroed header: context 0 does not exist
