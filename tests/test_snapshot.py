"""Snapshot persistence: block-image roundtrips, integrity, and the
differential between a live store and its adopted image."""

import datetime
import os
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.io import (
    SnapshotError,
    describe_snapshot,
    load_collections,
    save_collections,
)
from repro.io import snapshot as snapmod
from repro.memory.manager import MemoryManager
from repro.memory.reference import Ref

from tests.schemas import TEverything, TNode, TNote, TOrder, TPerson


@pytest.fixture
def snap_path(tmp_path):
    return str(tmp_path / "data.smcsnap")


def test_roundtrip_scalars_and_strings(manager, snap_path):
    persons = Collection(TPerson, manager=manager)
    notes = Collection(TEverything, manager=manager)
    for i in range(50):
        persons.add(name=f"p{i}", age=i, balance=Decimal(i) / 4)
        notes.add(
            i32=i,
            price=Decimal(i),
            day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i),
            code=f"c{i}",
            memo=f"variable text {i}",
            flag=bool(i % 2),
        )
    written = save_collections(snap_path, {"persons": persons, "notes": notes})
    assert written == 100

    loaded = load_collections(snap_path)
    lp, ln = loaded["persons"], loaded["notes"]
    assert sorted((h.name, h.age, h.balance) for h in lp) == sorted(
        (h.name, h.age, h.balance) for h in persons
    )
    assert sorted((h.i32, h.price, h.day, h.code, h.memo, h.flag) for h in ln) == sorted(
        (h.i32, h.price, h.day, h.code, h.memo, h.flag) for h in notes
    )
    loaded["_manager"].close()

    # An older writer listed secondary indexes in the header: they were
    # derived data, so the load ignores them and a re-save drops them.
    header, frames = _frames(snap_path)
    for spec in header["collections"]:
        spec["indexes"] = [["age", "hash"], ["name", "sorted"]] * (
            spec["name"] == "persons"
        )
    legacy = snap_path + ".legacy"
    _rewrite(legacy, header, _payloads(snap_path, frames))
    old = load_collections(legacy)

    def young(coll):
        return coll.query().where(TPerson.age < 20).select(n=TPerson.name).run().rows

    assert len(old["persons"]) == len(persons) and len(old["notes"]) == len(notes)
    assert young(old["persons"]) == young(persons)
    resaved = snap_path + ".resaved"
    save_collections(resaved, old)
    assert open(resaved, "rb").read() == open(snap_path, "rb").read()
    old["_manager"].close()


def test_roundtrip_references(manager, snap_path):
    persons = Collection(TPerson, manager=manager)
    orders = Collection(TOrder, manager=manager)
    people = [persons.add(name=f"p{i}", age=i) for i in range(10)]
    for i, p in enumerate(people):
        orders.add(orderkey=i, owner=p, total=Decimal(i))
    orders.add(orderkey=99, owner=None)  # null reference round-trips too

    save_collections(snap_path, {"persons": persons, "orders": orders})
    loaded = load_collections(snap_path)
    lo = sorted(loaded["orders"], key=lambda h: h.orderkey)
    assert lo[-1].owner is None
    for h in lo[:-1]:
        assert h.owner.name == f"p{h.orderkey}"
    loaded["_manager"].close()


def test_roundtrip_self_references(manager, snap_path):
    nodes = Collection(TNode, manager=manager)
    a = nodes.add(value=1)
    b = nodes.add(value=2, next=a)
    a.next = b  # cycle
    save_collections(snap_path, {"nodes": nodes})
    loaded = load_collections(snap_path)
    ln = sorted(loaded["nodes"], key=lambda h: h.value)
    assert ln[0].next.value == 2
    assert ln[1].next.value == 1
    loaded["_manager"].close()


def test_reference_outside_snapshot_rejected(manager, snap_path):
    persons = Collection(TPerson, manager=manager)
    orders = Collection(TOrder, manager=manager)
    orders.add(orderkey=1, owner=persons.add(name="x", age=1))
    with pytest.raises(SnapshotError):
        save_collections(snap_path, {"orders": orders})  # persons missing


def test_bad_magic_rejected(snap_path):
    with open(snap_path, "wb") as fh:
        fh.write(b"NOTASNAP")
    with pytest.raises(SnapshotError):
        load_collections(snap_path)


def test_truncated_file_rejected(manager, snap_path):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    save_collections(snap_path, {"persons": persons})
    data = open(snap_path, "rb").read()
    with open(snap_path, "wb") as fh:
        fh.write(data[: len(data) - 5])
    with pytest.raises(SnapshotError):
        load_collections(snap_path)


def test_underscore_keys_skipped(manager, snap_path):
    persons = Collection(TPerson, manager=manager)
    persons.add(name="x", age=1)
    save_collections(snap_path, {"persons": persons, "_manager": manager})
    loaded = load_collections(snap_path)
    assert set(k for k in loaded if not k.startswith("_")) == {"persons"}
    loaded["_manager"].close()


def test_tpch_snapshot_roundtrip(tpch_tiny, tmp_path):
    """End-to-end: snapshot a loaded TPC-H database, reload, re-run Q5."""
    from repro.tpch.loader import load_smc
    from repro.tpch.queries import DEFAULT_PARAMS, QUERIES

    src = load_smc(tpch_tiny)
    path = str(tmp_path / "tpch.smcsnap")
    save_collections(path, src)
    loaded = load_collections(path)
    before = sorted(QUERIES["q5"](src).run(params=DEFAULT_PARAMS).rows)
    after = sorted(QUERIES["q5"](loaded).run(params=DEFAULT_PARAMS).rows)
    assert before == after
    loaded["_manager"].close()


def test_dict_varstring_roundtrip_after_compaction(snap_path):
    """Dict-encoded varstring columns survive save/load after compaction.

    Compaction relocates slots holding dictionary codes and the image
    carries the code table beside them; this pins the full pipeline:
    intern, churn (so codes enter and leave the dictionary), compact,
    save, reload (adopted).  Small blocks force the rows across several
    blocks so compaction really relocates.
    """
    manager = MemoryManager(block_shift=10, reclamation_threshold=0.99)
    notes = Collection(TNote, manager=manager)
    handles = []
    for i in range(400):
        handles.append(notes.add(text=f"tag-{i % 7}", stars=i % 5))
    # Remove most of a prefix so compaction has something to relocate and
    # several dictionary codes drop to zero refcount.
    for h in handles[:300]:
        notes.remove(h)
    for __ in range(4):
        manager.advance_epoch()
    moved = notes.compact(occupancy_threshold=0.9)
    assert moved > 0
    expected = sorted((h.text, h.stars) for h in notes)
    assert len(expected) == 100

    save_collections(snap_path, {"notes": notes})

    loaded = load_collections(snap_path)
    ln = loaded["notes"]
    assert sorted((h.text, h.stars) for h in ln) == expected
    # Distinct count reflects only surviving strings.
    assert ln.strdict.live_count == len({t for t, __ in expected})
    loaded["_manager"].close()
    manager.close()

# ----------------------------------------------------------------------
# Image identity: entry ids, incarnations, adoption
# ----------------------------------------------------------------------


def test_entry_ids_and_stale_refs_survive_reload(snap_path):
    """An image keeps entry ids and incarnation counters: live handles
    translate by id, a reference that was stale before the save is stale
    after the load, and no later add can bring it back."""
    manager = MemoryManager(block_shift=10)
    persons = Collection(TPerson, manager=manager)
    orders = Collection(TOrder, manager=manager)
    alice = persons.add(name="alice", age=1)
    orders.add(orderkey=1, owner=alice)
    persons.remove(alice)
    for __ in range(4):
        manager.advance_epoch()
    assert persons.add(name="mallory", age=2).ref.entry == alice.ref.entry
    notes = Collection(TNote, manager=manager)
    handles = [notes.add(text=f"n{i}", stars=i % 5) for i in range(60)]
    stale = [h.ref for h in handles[:20]]
    for h in handles[:20]:
        notes.remove(h)  # no epoch advance: limbo slots, limbo dict codes
    kept = {h.ref.entry: h.text for h in handles[20:]}
    save_collections(snap_path, {"persons": persons, "orders": orders, "notes": notes})

    loaded = load_collections(snap_path)
    lm, ln = loaded["_manager"], loaded["notes"]
    assert {h.ref.entry: h.text for h in ln} == kept
    assert lm.epochs.global_epoch == 0
    assert all(b.limbo_count == 0 for b in ln.context.blocks())
    ghosts = [Ref(lm, r.entry, r.inc) for r in stale]
    assert not any(g.is_alive for g in ghosts)
    # The freed entries and slots are reusable at once ...
    recycled = {ln.add(text=f"new{i}", stars=1).ref.entry for i in range(40)}
    assert recycled & {r.entry for r in stale}
    # ... and still cannot resurrect a reference to their past occupant.
    assert not any(g.is_alive or g.try_address() is not None for g in ghosts)
    (order,) = loaded["orders"]
    assert not order.owner.is_alive
    lm.close()
    manager.close()


@pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
def test_direct_pointer_image_roundtrip(direct_manager, snap_path, columnar):
    """Direct mode stores raw addresses in reference fields; block ids
    are part of an image, so the addresses stay true, and a stale
    pointer stays stale."""
    from repro.errors import NullReferenceError

    factory = ColumnarCollection if columnar else Collection
    persons = factory(TPerson, manager=direct_manager)
    orders = factory(TOrder, manager=direct_manager)
    people = [persons.add(name=f"p{i}", age=i) for i in range(10)]
    for i, p in enumerate(people):
        orders.add(orderkey=i, owner=p)
    persons.remove(people[4])  # its order now holds a stale direct pointer

    def owners(collection):
        out = {}
        for h in collection:
            try:
                out[h.orderkey] = h.owner and h.owner.name
            except NullReferenceError:
                out[h.orderkey] = "stale"
        return out

    save_collections(snap_path, {"persons": persons, "orders": orders})
    loaded = load_collections(snap_path)
    assert loaded["_manager"].direct_pointers
    assert isinstance(loaded["orders"], factory)
    expected = owners(orders)
    assert expected[4] == "stale" and expected[5] == "p5"
    assert owners(loaded["orders"]) == expected
    loaded["_manager"].close()


@pytest.mark.parametrize("where", ["heap", "shm", "budget"])
def test_every_image_is_adopted_holes_and_all(snap_path, where):
    """A load adopts the image whatever buffers it lands in: the
    header's block size, every block at its stored id, and the holes a
    removal left, in both layouts."""
    manager = MemoryManager(block_shift=10)
    notes = Collection(TNote, manager=manager)
    people = ColumnarCollection(TPerson, manager=manager)
    handles = [notes.add(text=f"t{i % 9}", stars=i % 5) for i in range(100)]
    for i in range(60):
        people.add(name=f"p{i}", age=i)
    for h in handles[:20:2]:
        notes.remove(h)
    expected = [(h.text, h.stars) for h in notes]
    blocks = {
        name: [b.block_id for b in coll.context.blocks()]
        for name, coll in (("notes", notes), ("people", people))
    }
    save_collections(snap_path, {"notes": notes, "people": people})
    manager.close()

    shape = {
        "heap": {},
        "shm": {"shm": True},
        "budget": {"memory_budget": 4 << 10},
    }[where]
    loaded = load_collections(snap_path, **shape)
    lm, ln = loaded["_manager"], loaded["notes"]
    assert lm.space.block_shift == 10
    assert (lm.pager is not None) == (where == "budget")
    assert isinstance(ln, Collection) and not isinstance(ln, ColumnarCollection)
    assert isinstance(loaded["people"], ColumnarCollection)
    assert {
        name: [b.block_id for b in loaded[name].context.blocks()] for name in blocks
    } == blocks
    assert [(h.text, h.stars) for h in ln] == expected
    assert sorted(h.age for h in loaded["people"]) == list(range(60))
    assert any(b.alloc_cursor != b.valid_count for b in ln.context.blocks())
    lm.close()


def test_describe_snapshot(manager, snap_path):
    persons = Collection(TPerson, manager=manager)
    notes = Collection(TNote, manager=manager)
    persons.add(name="x", age=1)
    notes.add(text="hello", stars=2)
    save_collections(snap_path, {"persons": persons, "notes": notes})
    info = describe_snapshot(snap_path)
    assert info["format"] == "SMCSNAP2"
    assert info["file_bytes"] == os.path.getsize(snap_path)
    assert [(c["name"], c["rows"], c["blocks"]) for c in info["collections"]] == [
        ("persons", 1, 1),
        ("notes", 1, 1),
    ]
    count, nbytes = info["sections"]["block"]
    assert (count, nbytes) == (2, 2 * manager.space.block_size)
    # The retired row format is refused by name, by both entry points.
    with open(snap_path, "wb") as fh:
        fh.write(b"SMCSNAP1" + bytes(64))
    for read in (describe_snapshot, load_collections):
        with pytest.raises(SnapshotError, match="SMCSNAP1 row snapshots are no longer read"):
            read(snap_path)


# ----------------------------------------------------------------------
# Integrity: every section is length + CRC32 framed
# ----------------------------------------------------------------------


def _frames(path):
    """``[(frame, frame offset, payload offset)]`` of an image file."""
    with open(path, "rb") as fh:
        fh.read(8)
        header = snapmod._read_header(fh)
        return header, [
            (frame, payload_at - snapmod._FRAME.size, payload_at)
            for frame, payload_at in snapmod._sections(fh, header)
        ]


def _rewrite(path, header, sections):
    """Re-emit an image from a header and ``(kind, id, payload)`` triples
    (frames and checksums recomputed: a *well-formed* file)."""
    header = {k: v for k, v in header.items() if k not in ("offset", "file_bytes")}
    with open(path, "wb") as fh:
        out = snapmod._SectionWriter(fh, header)
        for kind, ident, payload in sections:
            out.section(kind, ident, payload)
        out.section(snapmod.END, out.sections)


def _payloads(path, frames):
    data = open(path, "rb").read()
    return [
        (f.kind, f.ident, data[at : at + f.length])
        for f, __, at in frames
        if f.kind != snapmod.END
    ]


@pytest.fixture
def image(snap_path):
    """A small image holding every section kind, with non-empty payloads."""
    manager = MemoryManager(block_shift=10)
    persons = Collection(TPerson, manager=manager)
    orders = Collection(TOrder, manager=manager)
    notes = Collection(TNote, manager=manager)
    people = [persons.add(name=f"p{i}", age=i) for i in range(40)]  # 3 blocks
    for i, p in enumerate(people):
        orders.add(orderkey=i, owner=p, total=Decimal(i))
    texts = [notes.add(text=f"text number {i}", stars=i % 5) for i in range(12)]
    notes.remove(texts[3])  # a released string: the heap-free list is not empty
    collections = {"persons": persons, "orders": orders, "notes": notes}
    save_collections(snap_path, collections)
    expected = sorted((h.orderkey, h.owner.name) for h in orders)
    manager.close()
    return snap_path, expected


_SECTION_KINDS = ["heap-block", "heap-free", "table", "dict", "block"]


@pytest.mark.parametrize("kind", _SECTION_KINDS)
def test_flipped_byte_names_the_section(image, kind):
    path, __ = image
    __, frames = _frames(path)
    frame, __, at = next(
        f for f in frames if snapmod._KIND_NAMES[f[0].kind] == kind and f[0].length
    )
    with open(path, "r+b") as fh:
        fh.seek(at + frame.length // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x40]))
    with pytest.raises(SnapshotError, match=f"{kind} section {frame.ident}"):
        load_collections(path)


def test_heap_address_string_encoding_refused(image):
    """An image whose header says its varstrings are plain string-heap
    addresses (``string_dict: false``; frames and checksums recomputed,
    so the file is otherwise well formed) is refused, naming the string
    encoding: dictionary codes are the only one read."""
    path, __ = image
    header, frames = _frames(path)
    payloads = _payloads(path, frames)
    _rewrite(path, header, payloads)  # re-emitted as it was: still read
    load_collections(path)["_manager"].close()
    _rewrite(path, dict(header, string_dict=False), payloads)
    for read in (describe_snapshot, load_collections):
        with pytest.raises(SnapshotError, match="string encoding"):
            read(path)


def test_flipped_header_and_frame_bytes_rejected(image):
    path, __ = image
    pristine = open(path, "rb").read()
    __, frames = _frames(path)
    # One byte inside the JSON header, then one inside each field of a
    # frame (kind, id, length, crc): the CRC covers all of them.
    frame_at = frames[2][1]
    for offset in [40, frame_at + 4, frame_at + 8, frame_at + 16, frame_at + 24]:
        data = bytearray(pristine)
        data[offset] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(SnapshotError):
            load_collections(path)


def test_truncation_anywhere_rejected(image):
    path, expected = image
    pristine = open(path, "rb").read()
    __, frames = _frames(path)
    cuts = {4, 12, 100, len(pristine) - 1}
    for frame, frame_at, payload_at in frames:
        cuts.update({frame_at, frame_at + 10, payload_at, payload_at + frame.length // 2})
    for cut in sorted(c for c in cuts if c < len(pristine)):
        with open(path, "wb") as fh:
            fh.write(pristine[:cut])
        with pytest.raises(SnapshotError):
            load_collections(path)
    # Trailing bytes behind the end section are as wrong as missing ones.
    with open(path, "wb") as fh:
        fh.write(pristine + b"\x00")
    with pytest.raises(SnapshotError, match="end section"):
        load_collections(path)
    with open(path, "wb") as fh:
        fh.write(pristine)
    loaded = load_collections(path)
    assert sorted((h.orderkey, h.owner.name) for h in loaded["orders"]) == expected
    loaded["_manager"].close()


def test_unknown_section_kind_rejected(image):
    """Kind 6 (retired) is as unknown as a kind no writer ever used."""
    path, __ = image
    pristine = open(path, "rb").read()
    __, frames = _frames(path)
    for kind in (6, 99):
        with open(path, "wb") as fh:
            fh.write(pristine)
            fh.seek(frames[1][1] + 4)  # the u32 kind field of the second frame
            fh.write(kind.to_bytes(4, "little"))
        for read in (describe_snapshot, load_collections):
            with pytest.raises(SnapshotError, match=f"unknown section kind {kind} "):
                read(path)


def test_block_id_collision_rejected(image):
    """Two blocks claiming one id — a heap block and a data block, in a
    file whose every checksum is right — must not load."""
    path, __ = image
    header, frames = _frames(path)
    sections = _payloads(path, frames)
    moved = header["collections"][0]["blocks"][0]
    heap_id = header["heap"]["blocks"][0][0]
    header["collections"][0]["blocks"][0] = heap_id
    sections = [
        (kind, heap_id if (kind, ident) == (snapmod.BLOCK, moved) else ident, data)
        for kind, ident, data in sections
    ]
    _rewrite(path, header, sections)
    with pytest.raises(
        SnapshotError, match=f"block section {heap_id}: .*already mapped"
    ):
        load_collections(path)


def test_missing_and_misplaced_sections_rejected(image):
    path, __ = image
    header, frames = _frames(path)
    sections = _payloads(path, frames)
    first_block = next(i for i, s in enumerate(sections) if s[0] == snapmod.BLOCK)
    _rewrite(path, header, sections[:first_block] + sections[first_block + 1 :])
    with pytest.raises(SnapshotError, match="ends without its block section"):
        load_collections(path)
    table = next(i for i, s in enumerate(sections) if s[0] == snapmod.TABLE)
    moved = sections[:table] + sections[table + 1 :] + [sections[table]]
    _rewrite(path, header, moved)
    with pytest.raises(SnapshotError, match="ahead of the table"):
        load_collections(path)
    blocks = [i for i, s in enumerate(sections) if s[0] == snapmod.BLOCK]
    swapped = list(sections)
    multi = next(c for c in header["collections"] if len(c["blocks"]) > 1)
    i, j = (
        next(k for k in blocks if sections[k][1] == multi["blocks"][0]),
        next(k for k in blocks if sections[k][1] == multi["blocks"][1]),
    )
    swapped[i], swapped[j] = swapped[j], swapped[i]
    _rewrite(path, header, swapped)
    with pytest.raises(SnapshotError, match="out of order"):
        load_collections(path)


def test_schema_drift_rejected(image):
    path, __ = image
    header, frames = _frames(path)
    header["collections"][0]["fields"][1][2] = 7  # age: meta -1 -> 7
    _rewrite(path, header, _payloads(path, frames))
    with pytest.raises(SnapshotError, match="does not match the current tabular"):
        load_collections(path)


def test_snapshot_during_compaction_refused(snap_path):
    """Raw blocks are only the collection between compaction cycles."""
    from repro.core.compaction import CompactionGroup

    manager = MemoryManager(block_shift=10)
    notes = Collection(TNote, manager=manager)
    for i in range(100):
        notes.add(text="x", stars=1)
    group = CompactionGroup(notes.context, notes.context.blocks()[:1], None)
    with pytest.raises(SnapshotError, match="being compacted"):
        save_collections(snap_path, {"notes": notes})
    group.finished = True
    save_collections(snap_path, {"notes": notes})
    manager.close()


# ----------------------------------------------------------------------
# Differential: original == adopted image
# ----------------------------------------------------------------------


def _all_digests(collections):
    from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

    plain = {k: v for k, v in collections.items() if not k.startswith("_")}
    return {
        name: sorted(
            map(repr, build(plain).run(engine="compiled", params=DEFAULT_PARAMS).rows)
        )
        for name, build in {**QUERIES, **EXTRA_QUERIES}.items()
    }


@pytest.mark.parametrize("shm", [False, True], ids=["heap", "shm"])
@pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
def test_tpch_differential_after_churn(tpch_tiny, tmp_path, columnar, shm):
    """Removes, updates, a compaction and an un-advanced epoch, then all
    ten TPC-H queries and enumeration order must agree between the live
    store and its adopted image."""
    from repro.tpch.loader import load_smc

    src = load_smc(
        tpch_tiny,
        manager=MemoryManager(block_shift=14, shm=shm),
        columnar=columnar,
    )
    manager, line = src["_manager"], src["lineitem"]
    handles = list(line)
    for h in handles[:900:3]:
        line.remove(h)
    for __ in range(4):
        manager.advance_epoch()
    if not columnar:
        assert line.compact(occupancy_threshold=0.9) > 0
    for i, h in enumerate(handles[901:1100:2]):
        h.comment = f"patched comment {i % 13}"
        h.quantity = Decimal("7.00")
    for h in handles[1200:1300:2]:
        line.remove(h)  # epoch not advanced: limbo slots and codes at save
    assert any(b.limbo_count for b in line.context.blocks())

    image = str(tmp_path / "image.smcsnap")
    save_collections(image, src)
    stores = [src, load_collections(image, shm=shm)]
    assert describe_snapshot(image)["format"] == "SMCSNAP2"
    assert [b.block_id for b in stores[1]["lineitem"].context.blocks()] == [
        b.block_id for b in line.context.blocks()
    ]

    def observe(store):
        return {
            "digests": _all_digests(store),
            "order": [
                (h.orderkey, h.linenumber, h.quantity, h.comment)
                for h in store["lineitem"]
            ],
        }

    seen = [observe(store) for store in stores]
    assert seen[0]["digests"]["q1"]
    assert seen[1] == seen[0]
    # Image -> load -> image reproduces the file byte for byte.
    again = str(tmp_path / "again.smcsnap")
    save_collections(again, stores[1])
    assert open(again, "rb").read() == open(image, "rb").read()
    for store in stores:
        store["_manager"].close()


# ----------------------------------------------------------------------
# Property-based roundtrip (hypothesis)
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# CharField stores fixed-width bytes padded with NULs and the loader
# rstrips trailing NUL/space, so generated codes must be ASCII with no
# trailing whitespace.  VarStrings take arbitrary text (no surrogates).
_codes = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=10
)
_memos = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",), max_codepoint=0x2FFF
    ),
    max_size=24,
)
_decimals2 = st.decimals(
    min_value=-10**6, max_value=10**6, places=2, allow_nan=False
)
_decimals4 = st.decimals(
    min_value=-10**4, max_value=10**4, places=4, allow_nan=False
)
_dates = st.dates(
    min_value=datetime.date(1970, 1, 1), max_value=datetime.date(2200, 1, 1)
)

_everything_rows = st.lists(
    st.fixed_dictionaries(
        {
            "i8": st.integers(-128, 127),
            "i16": st.integers(-(2**15), 2**15 - 1),
            "i32": st.integers(-(2**31), 2**31 - 1),
            "i64": st.integers(-(2**63), 2**63 - 1),
            "flag": st.booleans(),
            "ratio": st.floats(allow_nan=False, allow_infinity=False, width=64),
            "price": _decimals2,
            "fine": _decimals4,
            "day": _dates,
            "code": _codes,
            "memo": _memos,
        }
    ),
    max_size=30,
)

_node_specs = st.lists(
    st.tuples(st.integers(-(2**31), 2**31 - 1), st.integers(0, 40)),
    max_size=20,
)


def _everything_view(collections):
    return [
        (
            h.i8, h.i16, h.i32, h.i64, h.flag, h.ratio, h.price,
            h.fine, h.day, h.code, h.memo,
            None if h.friend is None else h.friend.name,
        )
        for h in collections["every"]
    ]


def _nodes_view(collections):
    return [
        (h.value, None if h.next is None else h.next.value)
        for h in collections["nodes"]
    ]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=_everything_rows,
    node_specs=_node_specs,
    friend_of=st.lists(st.integers(0, 40), max_size=30),
    removes=st.lists(st.integers(0, 60), max_size=12),
    updates=st.lists(st.tuples(st.integers(0, 60), _memos), max_size=8),
    late_removes=st.lists(st.integers(0, 60), max_size=6),
    compact=st.booleans(),
    columnar=st.booleans(),
    shm=st.booleans(),
)
def test_snapshot_roundtrip_property(
    rows, node_specs, friend_of, removes, updates, late_removes,
    compact, columnar, shm,
):
    """Block images round-trip arbitrary stores.

    Every field kind, null and cyclic references, dict-encoded
    varstrings; then removes, updates, a compaction and removes whose
    epoch never advances (limbo slots and limbo dictionary codes in the
    saved blocks), for row and columnar layouts over heap and
    shared-memory buffers.  The original and its adopted image must
    agree on enumeration order; references stale before the save stay
    stale, even once their entries are recycled; image -> load -> image
    is byte-identical.
    """
    import tempfile

    factory = ColumnarCollection if columnar else Collection
    manager = MemoryManager(block_shift=11, shm=shm)
    tmp = tempfile.TemporaryDirectory(prefix="smcsnap-prop-")
    image = os.path.join(tmp.name, "image.smcsnap")
    adopted = None
    try:
        persons = factory(TPerson, manager=manager)
        every = factory(TEverything, manager=manager)
        nodes = factory(TNode, manager=manager)
        src = {"persons": persons, "every": every, "nodes": nodes}
        people = [
            persons.add(name=f"p{i}", age=i)
            for i in range(max(friend_of, default=-1) + 1)
        ]
        live = []
        for i, row in enumerate(rows):
            friend = None
            if i < len(friend_of) and people:
                friend = people[friend_of[i] % len(people)]
            live.append(every.add(friend=friend, **row))
        made = [nodes.add(value=value) for value, __ in node_specs]
        for handle, (__, nxt) in zip(made, node_specs):
            if made:
                handle.next = made[nxt % len(made)]  # cycles welcome

        stale = []

        def remove(index):
            if live:
                victim = live.pop(index % len(live))
                stale.append(victim.ref)
                every.remove(victim)

        for index in removes:
            remove(index)
        for __ in range(3):
            manager.advance_epoch()
        if compact and not columnar:
            every.compact(occupancy_threshold=0.9)
        for index, memo in updates:
            if live:
                live[index % len(live)].memo = memo
        for index in late_removes:
            remove(index)  # no epoch advance after these

        save_collections(image, src)
        adopted = load_collections(image, shm=shm)
        assert _everything_view(adopted) == _everything_view(src)
        assert _nodes_view(adopted) == _nodes_view(src)

        again = os.path.join(tmp.name, "again.smcsnap")
        save_collections(again, adopted)
        assert open(again, "rb").read() == open(image, "rb").read()

        ghosts = [Ref(adopted["_manager"], r.entry, r.inc) for r in stale]
        assert not any(g.is_alive for g in ghosts)
        for i in range(2 * len(stale)):
            adopted["every"].add(i32=i)
        assert not any(g.is_alive or g.try_address() is not None for g in ghosts)
    finally:
        if adopted is not None:
            adopted["_manager"].close()
        manager.close()
        tmp.cleanup()
