"""String heap: size classes, reuse, epoch-delayed reclamation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.addressing import NULL_ADDRESS, AddressSpace
from repro.memory.epoch import EpochManager
from repro.memory.stringheap import StringHeap


@pytest.fixture
def heap():
    space = AddressSpace(block_shift=12)
    return StringHeap(space, EpochManager())


def test_size_class_minimum():
    assert StringHeap.size_class(0) == 16
    assert StringHeap.size_class(12) == 16


def test_size_class_powers_of_two():
    assert StringHeap.size_class(13) == 32  # 13 + 4 > 16
    assert StringHeap.size_class(28) == 32
    assert StringHeap.size_class(29) == 64


def test_empty_string_is_null(heap):
    assert heap.alloc("") == NULL_ADDRESS
    assert heap.read(NULL_ADDRESS) == ""


def test_roundtrip(heap):
    addr = heap.alloc("hello world")
    assert heap.read(addr) == "hello world"


def test_unicode_roundtrip(heap):
    addr = heap.alloc("héllo – wörld ✓")
    assert heap.read(addr) == "héllo – wörld ✓"


def test_distinct_allocations(heap):
    a = heap.alloc("aaa")
    b = heap.alloc("bbb")
    assert a != b
    assert heap.read(a) == "aaa"
    assert heap.read(b) == "bbb"


def test_free_defers_reuse_by_two_epochs(heap):
    epochs = heap._epochs
    addr = heap.alloc("victim")
    heap.free(addr)
    # Not reusable yet: a fresh allocation must not land on the record.
    a2 = heap.alloc("newbie")
    assert a2 != addr
    epochs.try_advance()
    epochs.try_advance()
    a3 = heap.alloc("recycle")
    assert a3 == addr  # same size class, now safe


def test_reuse_respects_size_class(heap):
    epochs = heap._epochs
    small = heap.alloc("xy")
    heap.free(small)
    epochs.try_advance()
    epochs.try_advance()
    big = heap.alloc("z" * 100)
    assert big != small


def test_oversized_string_rejected(heap):
    with pytest.raises(ValueError):
        heap.alloc("x" * 5000)  # > 4 KiB block


def test_bytes_in_use_accounting(heap):
    assert heap.bytes_in_use == 0
    addr = heap.alloc("abcdef")
    assert heap.bytes_in_use == 16
    heap.free(addr)
    assert heap.bytes_in_use == 0


def test_spills_to_new_blocks(heap):
    for i in range(600):  # 600 * 16B > one 4 KiB block
        heap.alloc(f"s{i:04d}")
    assert heap.block_count >= 3


def test_close_releases_blocks(heap):
    heap.alloc("data")
    space = heap._space
    assert space.live_block_count == 1
    heap.close()
    assert space.live_block_count == 0


@settings(max_examples=50)
@given(st.lists(st.text(max_size=200), min_size=1, max_size=40))
def test_many_roundtrips_property(texts):
    space = AddressSpace(block_shift=12)
    heap = StringHeap(space, EpochManager())
    addrs = [heap.alloc(t) for t in texts]
    for t, a in zip(texts, addrs):
        assert heap.read(a) == t


def test_read_many_matches_read_at_the_edges():
    """``read_many`` against ``read``: the empty text, non-ASCII, NUL
    bytes inside a text, the largest size class (a record that is a whole
    block) and records at both ends of a block, in any order, repeated."""
    space = AddressSpace(block_shift=10)
    heap = StringHeap(space, EpochManager())
    largest = "y" * (space.block_size - 4)
    full_block = [f"r{i:02d}" for i in range(space.block_size // 16)]
    texts = ["", "ünïcödé ✓", "nul\x00in\x00side", largest, *full_block, "tail"]
    addrs = [heap.alloc(t) for t in texts]
    offsets = {space.offset_of(a) for a in addrs if a != NULL_ADDRESS}
    assert {0, space.block_size - 16} <= offsets
    assert heap.size_class(len(largest.encode())) == space.block_size
    probe = addrs[::-1] + addrs[::3] + [NULL_ADDRESS]
    assert heap.read_many(probe) == [heap.read(a) for a in probe]
    assert heap.read_many([]) == []
    assert heap.read_many([NULL_ADDRESS] * 3) == ["", "", ""]
    heap.close()


@settings(max_examples=50)
@given(st.lists(st.text(max_size=200), min_size=1, max_size=40), st.randoms())
def test_read_many_matches_read_property(texts, rnd):
    space = AddressSpace(block_shift=10)
    heap = StringHeap(space, EpochManager())
    addrs = [heap.alloc(t) for t in texts]
    rnd.shuffle(addrs)
    assert heap.read_many(addrs) == [heap.read(a) for a in addrs]
    heap.close()


def test_read_many_copies_only_the_touched_span():
    """Records over several blocks, read a few at a time: ``read_many``,
    ``hash_many`` and ``holds`` agree with ``read`` record by record, and
    each block is copied from its first touched record to the end of its
    last, not whole."""
    space = AddressSpace(block_shift=10)
    heap = StringHeap(space, EpochManager())
    long = "z" * 300
    texts = [f"ünïcödé {i} ✓" if i % 3 else f"plain-{i}" for i in range(120)]
    texts[40] = long
    addrs = [heap.alloc(t) for t in texts]
    assert heap.block_count >= 3
    picks = [addrs[90], NULL_ADDRESS, addrs[40], addrs[7], addrs[41], addrs[90]]
    expected = [heap.read(a) for a in picks]
    assert expected[2] == long and expected[1] == ""
    assert heap.read_many(picks) == expected
    hashes = heap.hash_many(picks).tolist()
    assert hashes == [hash(t.encode("utf-8")) for t in expected]
    for a, t in zip(picks, expected):
        assert heap.holds(a, t.encode("utf-8"))
        assert not heap.holds(a, (t + "x").encode("utf-8"))
    copied = 0
    for group, starts, lengths, raw in heap._records(picks):
        copied += len(raw)
        spans = [(s, s + n) for s, n in zip(starts, lengths)]
        assert min(s for s, __ in spans) == 4 and max(e for __, e in spans) == len(raw)
    assert copied < 2 * space.block_size
    heap.close()
