"""Dictionary-encoded string columns: differential and unit coverage.

Differential guarantees first: every TPC-H query, and a string
predicate of each kind over the TPC-H varstrings, must produce the
managed baseline's results (plain Python objects holding Python
strings) on both layouts, across worker counts and pruning settings,
and string predicates must keep matching the baseline across a
compaction cycle.  Then the :class:`~repro.memory.stringheap.StringDict`
unit contract: interning dedups heap records, refcounts track stored
occurrences, retired codes wait out the two-epoch grace period before
rebinding, and predicate match sets follow the dictionary version.
Last, the adopted-dictionary contract: a dictionary loaded from an image
is its two code arrays until a write or a string lookup needs more; it
reads like the dictionary that wrote the image at every step, and
loading, serving the read mixes and re-saving read no text.

All tests here are sanitizer-compatible (``pytest --sanitize``).
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.io.snapshot import load_collections, save_collections
from repro.managed.collections_ import ManagedList
from repro.memory import shm
from repro.memory.manager import MemoryManager
from repro.memory.stringheap import StringDict, StringHeap
from repro.query import columnar_exec, planner
from repro.query.builder import Count, Sum
from repro.tpch.datagen import generate
from repro.tpch.loader import load_managed, load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES
from repro.tpch.schema import Lineitem, Orders, Part
from tests.schemas import TNote, TPerson
from tests.seams import unpruned

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}

#: The ten TPC-H queries filter on CHAR columns only; these put every
#: code-space string predicate on the TPC-H varstrings: a prefix through
#: a reference, containment and grouping by the text, set membership.
STRING_QUERIES = {
    "s_prefix": lambda c: c["lineitem"]
    .query()
    .where(Lineitem.part.ref("name").startswith("part 1"))
    .group_by(flag=Lineitem.returnflag)
    .aggregate(n=Count(), qty=Sum(Lineitem.quantity)),
    "s_contains": lambda c: c["orders"]
    .query()
    .where(Orders.comment.contains("slyly regular"))
    .group_by(comment=Orders.comment)
    .aggregate(n=Count()),
    "s_inset": lambda c: c["part"]
    .query()
    .where(Part.name.isin(["part 7 brushed burnished", "part 11 burnished plated", "none"]))
    .group_by(name=Part.name)
    .aggregate(n=Count()),
}

#: prune settings each differenced against the managed baseline; False
#: prepares the scan under ``tests.seams.unpruned``.
CONFIGS = [False, True]


def _pruning(prune):
    return contextlib.nullcontext() if prune else unpruned()


def _canonical(result):
    """Order-insensitive comparison form of a query result: the managed
    baseline sums in another order, so numbers compare rounded."""

    def cell(value):
        if isinstance(value, (Decimal, float)):
            return round(float(value), 4)
        return value

    rows = [tuple(map(cell, row)) for row in result.rows]
    return (tuple(result.columns), sorted(rows, key=repr))


def _count(result):
    return result.rows[0][0] if result.rows else 0


# ----------------------------------------------------------------------
# Differential: TPC-H, dictionary codes vs. the managed baseline
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_managed(tpch_tiny):
    """The dataset as managed records: Python objects, Python strings."""
    return load_managed(tpch_tiny, "list")


@pytest.fixture(scope="module", params=["row", "columnar"])
def tpch_pair(request, tpch_tiny, tpch_managed):
    """The same dataset in dictionary-coded SMCs and as managed records."""
    coded = load_smc(tpch_tiny, columnar=request.param == "columnar")
    yield coded, tpch_managed
    coded["_manager"].close()


@pytest.mark.parametrize("name", sorted({**ALL_QUERIES, **STRING_QUERIES}))
def test_differential_dict_on_off(tpch_pair, name):
    """Code-space kernels return exactly the rows the managed baseline's
    compiled engine computes from Python strings."""
    coded, managed = tpch_pair
    build = ALL_QUERIES.get(name) or STRING_QUERIES[name]
    expected = _canonical(build(managed).run(params=DEFAULT_PARAMS))
    assert expected[1], f"{name} produced no rows at this scale"
    for prune in CONFIGS:
        with _pruning(prune):
            query = build(coded)
            got = query.run(params=DEFAULT_PARAMS)
        assert _canonical(got) == expected, (name, prune)


# ----------------------------------------------------------------------
# Differential: string predicates under churn and compaction
# ----------------------------------------------------------------------

_WORDS = ["alpha", "alphabet", "beta", "betamax", "gamma", "alpaca", ""]


def _worn_notes(notes):
    """A multi-block varstring population with most rows freed."""
    handles = [
        notes.add(text=_WORDS[i % len(_WORDS)] + str(i % 11), stars=i % 5)
        for i in range(3000)
    ]
    for i, h in enumerate(handles):
        if i % 3:
            notes.remove(h)
    return notes


def _note_queries(notes):
    return {
        "prefix": notes.query()
        .where(TNote.text.startswith("alpha"))
        .aggregate(n=Count()),
        "contains": notes.query()
        .where(TNote.text.contains("tam"))
        .aggregate(n=Count()),
        "inset": notes.query()
        .where(TNote.text.isin(["beta3", "gamma5", "nosuch"]))
        .aggregate(n=Count()),
        "eq": notes.query()
        .where(TNote.text == "alpaca5")
        .aggregate(n=Count()),
        "groupby": notes.query()
        .where(TNote.text.startswith("alpha"))
        .group_by(text=TNote.text)
        .aggregate(n=Count()),
    }


def test_string_predicates_survive_compaction():
    """Code-space string predicates over a worn population match the
    managed baseline before and after compaction relocates the rows."""
    m = MemoryManager(block_shift=14)
    on = _worn_notes(Collection(TNote, manager=m))
    expected = {
        k: _canonical(q.run())
        for k, q in _note_queries(_worn_notes(ManagedList(TNote))).items()
    }
    try:
        assert expected["prefix"][1][0][0] > 0 and expected["contains"][1][0][0] > 0
        assert expected["eq"][1][0][0] > 0 and len(expected["groupby"][1]) > 1

        for compacted in (False, True):
            if compacted:
                assert on.compact(occupancy_threshold=0.9) > 0
            for prune in CONFIGS:
                with _pruning(prune):
                    got = {
                        k: _canonical(q.run())
                        for k, q in _note_queries(on).items()
                    }
                assert got == expected, (compacted, prune)
    finally:
        m.close()


# ----------------------------------------------------------------------
# Satellite 2 regression: CHAR padding symmetry in InSet
# ----------------------------------------------------------------------


@pytest.mark.parametrize("columnar", [False, True])
def test_inset_char_trailing_space_symmetry(columnar):
    """SQL CHAR semantics: trailing spaces never decide set membership.

    A stored value carrying explicit trailing spaces must still match an
    unpadded probe (and vice versa) on every engine — the columnar kernel
    used to strip the probe side only.
    """
    m = MemoryManager()
    factory = ColumnarCollection if columnar else Collection
    people = factory(TPerson, manager=m)
    people.add(name="AIR  ", age=1, balance=0)
    people.add(name="MAIL", age=2, balance=0)
    people.add(name="RAIL", age=3, balance=0)
    query = (
        people.query()
        .where(TPerson.name.isin(["AIR", "MAIL  ", "TRUCK"]))
        .aggregate(n=Count())
    )
    with unpruned():
        assert _count(query.run(workers=1)) == 2
    m.close()


# ----------------------------------------------------------------------
# StringDict unit contract
# ----------------------------------------------------------------------


def test_intern_dedups_heap_records_and_refcounts():
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    assert sd is not None

    a = notes.add(text="hello", stars=1)
    bytes_after_first = m.strings.bytes_in_use
    b = notes.add(text="hello", stars=2)
    assert m.strings.bytes_in_use == bytes_after_first  # deduplicated
    code = sd.code_of("hello")
    assert code is not None and code > 0
    assert sd.refcount(code) == 2
    assert sd.live_count == 1
    assert sd.text_of(code) == "hello"

    notes.remove(a)
    assert sd.refcount(code) == 1
    notes.remove(b)
    assert sd.code_of("hello") is None
    assert sd.live_count == 0
    assert m.strings.bytes_in_use == 0
    m.close()


def test_update_rebinds_reference():
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    h = notes.add(text="before", stars=0)
    old = sd.code_of("before")
    h.text = "after"
    assert sd.code_of("before") is None  # last reference released
    assert sd.code_of("after") is not None
    assert h.text == "after"
    assert old is not None
    m.close()


def test_empty_string_is_pinned_code_zero():
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    h = notes.add(text="", stars=0)
    assert sd.code_of("") == 0
    assert sd.text_of(0) == ""
    assert h.text == ""
    notes.remove(h)
    assert sd.code_of("") == 0  # never retired
    m.close()


def _assert_retired_code_waits_two_epochs(manager, sd, code, text):
    # Inside the grace period: still decodable, never rebound.
    assert sd.text_of(code) == text
    assert sd.intern("early") != code
    assert manager.epochs.try_advance()
    assert sd.text_of(code) == text
    assert sd.intern("still early") != code
    assert manager.epochs.try_advance()
    # Past the grace period the retired code is recycled.
    assert sd.intern("late") == code
    assert sd.text_of(code) == "late"


def test_retired_code_waits_two_epochs_before_reuse():
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    h = notes.add(text="ephemeral", stars=0)
    code = sd.code_of("ephemeral")
    notes.remove(h)
    _assert_retired_code_waits_two_epochs(m, sd, code, "ephemeral")
    m.close()


def test_dictionary_holds_no_python_text_structure():
    """After interns and releases, fresh and adopted alike, a dictionary's
    state is int arrays: no str, no list and no dict but its (empty)
    match-set cache."""
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    codes = [sd.intern(f"text {i % 50}") for i in range(300)]
    for code in codes[::2]:
        sd.release(code)
    assert m.advance_epoch() and m.advance_epoch()
    codes += [sd.intern(f"later {i}") for i in range(40)]
    for name, value in vars(sd).items():
        if name == "_match_cache":
            assert value == {}
        else:
            assert not isinstance(value, (str, bytes, list, dict, tuple)), name
    m.close()


def test_record_reads_pin_the_epoch(monkeypatch):
    """``decode_array`` and the prefix / contains match sets read their
    records inside a critical section even when called outside one, so
    no record they read can be reused under them."""
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    codes = np.array([sd.intern(t) for t in ("alpha", "beta", "alpha")])
    pinned = []
    real = StringHeap.read_many

    def recording(heap, addrs):
        pinned.append(m.epochs.in_critical())
        return real(heap, addrs)

    monkeypatch.setattr(StringHeap, "read_many", recording)
    assert not m.epochs.in_critical()
    assert sd.decode_array(codes).tolist() == ["alpha", "beta", "alpha"]
    assert sd.match_codes("prefix", "al").tolist() == [codes[0]]
    assert sd.match_codes("contains", "et").tolist() == [codes[1]]
    assert pinned == [True, True, True]
    assert not m.epochs.in_critical()
    m.close()


@pytest.mark.parametrize("layout", [Collection, ColumnarCollection])
def test_vectorised_query_decodes_inside_its_epoch(monkeypatch, layout):
    """A vectorised query decodes its dictionary codes inside the
    critical section it scanned in.  A writer thread that runs between
    the scan and the decode, removes the last row naming a scanned text
    and tries to advance the epoch twice cannot get that code handed to
    a new text before the query has read it."""
    m = MemoryManager()
    notes = layout(TNote, manager=m)
    notes.add(text="alpha", stars=1)
    last = notes.add(text="zzz", stars=2)

    def writer():
        notes.remove(last)
        m.advance_epoch()
        m.advance_epoch()
        notes.add(text="NEW", stars=3)

    real = columnar_exec._Accumulator.finish

    def finish_after_writer(acc, manager):
        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return real(acc, manager)

    monkeypatch.setattr(columnar_exec._Accumulator, "finish", finish_after_writer)
    result = notes.query().select(text=TNote.text).run()
    assert sorted(result.rows) == [("alpha",), ("zzz",)]
    assert not m.epochs.in_critical()
    assert sorted(h.text for h in notes) == ["NEW", "alpha"]
    m.close()


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["intern", "release", "advance"]), st.integers(0, 80)),
        min_size=200,
        max_size=600,
    )
)
def test_lookup_index_matches_a_dict_model(steps):
    """Random interns, releases and epoch advances from a 16-slot start,
    so the index grows and deletes shift entries back: every lookup and
    refcount agrees with a plain dict, and every live code sits in the
    table once, with no empty slot between it and its home slot."""
    m = MemoryManager()
    sd = Collection(TNote, manager=m).strdict
    model = {}  # text -> [code, references]
    try:
        for op, k in steps:
            text = f"text {k}" * (1 + k % 3)
            if op == "intern":
                code = sd.intern(text)
                entry = model.setdefault(text, [code, 0])
                assert entry[0] == code
                entry[1] += 1
            elif op == "release" and text in model:
                entry = model[text]
                sd.release(entry[0])
                entry[1] -= 1
                if not entry[1]:
                    del model[text]
            elif op == "advance":
                m.epochs.try_advance()
        for k in range(81):
            text = f"text {k}" * (1 + k % 3)
            entry = model.get(text)
            assert sd.code_of(text) == (entry[0] if entry else None)
            if entry:
                assert sd.refcount(entry[0]) == entry[1]
                assert sd.text_of(entry[0]) == text
        table = np.frombuffer(sd._index, dtype=np.int64).reshape(-1, 2)
        slots = len(table)
        at = np.flatnonzero(table[:, 1])
        assert sorted(table[at, 1].tolist()) == sorted(e[0] for e in model.values())
        assert 2 * len(at) <= slots
        for pos in at.tolist():
            home = int(table[pos, 0]) % slots
            run = [(home + d) % slots for d in range((pos - home) % slots)]
            assert all(table[i, 1] for i in run)
    finally:
        m.close()


def test_match_sets_follow_dictionary_version():
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    sd = notes.strdict
    notes.add(text="prefixed-one", stars=0)
    assert len(sd.match_set("prefix", "prefixed")) == 1
    assert sd.match_set("contains", "fixed-o") == sd.match_set(
        "prefix", "prefixed"
    )

    notes.add(text="prefixed-two", stars=0)  # version bump invalidates cache
    assert len(sd.match_set("prefix", "prefixed")) == 2
    probe = frozenset({"prefixed-one", "absent"})
    codes = sd.match_codes("inset", probe)
    assert codes.tolist() == [sd.code_of("prefixed-one")]

    stale = notes.query().where(TNote.text.startswith("prefixed"))
    assert _count(stale.aggregate(n=Count()).run(workers=1)) == 2
    m.close()


def test_collections_of_same_schema_share_one_dictionary(tpch_tiny):
    """All varstring fields of a schema resolve through one intern table."""
    collections = load_smc(tpch_tiny)
    manager = collections["_manager"]
    try:
        part = collections["part"]
        assert part.strdict is not None
        # Every distinct stored string is interned exactly once.
        seen = {}
        for h in part:
            name = h.name
            code = part.strdict.code_of(name)
            assert code is not None
            prev = seen.setdefault(name, code)
            assert prev == code
        assert part.strdict.live_count >= len(seen)
    finally:
        manager.close()


# ----------------------------------------------------------------------
# Adopted dictionaries: the image's arrays until a write or lookup
# ----------------------------------------------------------------------


def _save(tmp_path, collections, name="image.smcsnap"):
    path = str(tmp_path / name)
    save_collections(path, collections)
    return path


def _dicts(collections):
    """The string dictionaries of a store, by collection name."""
    return {
        name: coll.strdict
        for name, coll in collections.items()
        if not name.startswith("_") and coll.strdict is not None
    }


def _count_heap_reads(monkeypatch):
    """Count calls of ``StringHeap.read`` and ``read_many`` from now on."""
    calls = [0]
    for name in ("read", "read_many"):
        real = getattr(StringHeap, name)

        def counting(heap, *args, _real=real):
            calls[0] += 1
            return _real(heap, *args)

        monkeypatch.setattr(StringHeap, name, counting)
    return calls


@pytest.fixture(scope="module")
def tpch_image(tpch_tiny, tmp_path_factory):
    collections = load_smc(tpch_tiny)
    path = _save(tmp_path_factory.mktemp("tpch"), collections, "tpch.smcsnap")
    collections["_manager"].close()
    return path


def test_adopted_first_mutation_releases_a_unique_text(tmp_path):
    """The first mutation after adoption removes the one row holding a
    text.  Its release builds the lookup index from the image's
    refcounts before it drops one, and the retired code still decodes to
    its text through the grace period."""
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    notes.add(text="shared", stars=0)
    notes.add(text="shared", stars=1)
    notes.add(text="unique", stars=2)
    path = _save(tmp_path, {"notes": notes})
    m.close()

    loaded = load_collections(path)
    lm, ln = loaded["_manager"], loaded["notes"]
    sd = ln.strdict
    try:
        refs = sd.export_codes()[1]
        [code] = [c for c in range(1, len(refs)) if sd.text_of(c) == "unique"]
        [victim] = [h for h in ln if h.text == "unique"]
        assert sd.live_count == 2 and sd.refcount(code) == 1
        assert not sd.indexed  # text_of, handle reads and counts need no index
        ln.remove(victim)
        assert sd.indexed
        assert sd.code_of("") == 0
        assert sd.code_of("unique") is None
        assert sd.refcount(sd.code_of("shared")) == 2
        assert sd.live_count == 1
        _assert_retired_code_waits_two_epochs(lm, sd, code, "unique")
    finally:
        lm.close()


def test_retired_code_waits_two_epochs_before_reuse_adopted(tmp_path):
    m = MemoryManager()
    notes = Collection(TNote, manager=m)
    notes.add(text="ephemeral", stars=0)
    notes.add(text="kept", stars=1)
    path = _save(tmp_path, {"notes": notes})
    m.close()

    loaded = load_collections(path)
    lm, ln = loaded["_manager"], loaded["notes"]
    sd = ln.strdict
    try:
        [h] = [h for h in ln if h.text == "ephemeral"]
        code = sd.code_of("ephemeral")
        ln.remove(h)
        _assert_retired_code_waits_two_epochs(lm, sd, code, "ephemeral")
    finally:
        lm.close()


_VOCAB = ["", "alpha", "alphabet", "beta", "gamma", "ünïcödé ✓", "nul\x00inside", "x" * 300]
_MATCHES = [
    ("prefix", "alpha"),
    ("contains", "a"),
    ("inset", frozenset({"beta", "ünïcödé ✓", "absent"})),
]


def _assert_reads_alike(writer, lazy, eager, probe):
    """The *lazy* adopted dictionary reads like the *writer*'s and like an
    *eager* twin indexed at adoption: always through the reads that need
    no lookup index, and with *probe* also through the lookups that
    build it.  Heap addresses and block counts are compared with the
    twin only: an adopted context places its next row in a new block, so
    every adopted store allocates at other addresses than its writer."""
    w, z, e = writer.strdict, lazy.strdict, eager.strdict
    arrays = [np.asarray(a).tolist() for a in e.export_codes()]
    assert [np.asarray(a).tolist() for a in z.export_codes()] == arrays
    assert planner.stats_stamp(lazy.manager) == planner.stats_stamp(eager.manager)
    every = range(len(arrays[1]))
    for sd in (z, e):
        assert [sd.text_of(c) for c in every] == [w.text_of(c) for c in every]
        assert [sd.refcount(c) for c in every] == [w.refcount(c) for c in every]
        assert sd.live_count == w.live_count
    if probe:
        for sd in (z, e):
            assert [sd.code_of(t) for t in _VOCAB] == [w.code_of(t) for t in _VOCAB]
            arange = np.arange(len(arrays[1]))
            assert sd.decode_array(arange).tolist() == w.decode_array(arange).tolist()
            for kind, arg in _MATCHES:
                got = sd.match_codes(kind, arg).tolist()
                assert got == w.match_codes(kind, arg).tolist()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    texts=st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "intern", "release", "advance"]),
            st.integers(0, 1000),
            st.booleans(),
        ),
        max_size=25,
    ),
)
def test_adopted_dictionary_reads_like_its_writer(tmp_path_factory, texts, steps):
    """Adopt an image twice — one dictionary left lazy, one built at
    once, as adoption used to — then apply the same random adds,
    removes, interns, releases and epoch advances to both and to the
    store that wrote the image.  At every step the three dictionaries
    agree, and the lazy one is built exactly when a step needed it."""
    writer_m = MemoryManager(block_shift=12)
    writer = Collection(TNote, manager=writer_m)
    for i, text in enumerate(texts):
        writer.add(text=text, stars=i % 5)
    path = _save(tmp_path_factory.mktemp("adopt"), {"notes": writer})
    stores = [writer, load_collections(path)["notes"], load_collections(path)["notes"]]
    lazy, eager = stores[1:]
    eager.strdict.code_of("")
    try:
        rows = [list(coll) for coll in stores]
        held = []  # codes interned outside any row, one reference each
        needed = False
        _assert_reads_alike(*stores, probe=False)
        for op, k, probe in steps:
            text = _VOCAB[k % len(_VOCAB)]
            if op == "add":
                for coll, handles in zip(stores, rows):
                    handles.append(coll.add(text=text, stars=k % 5))
                needed = True
            elif op == "remove" and rows[0]:
                i = k % len(rows[0])
                needed |= rows[1][i].text != ""  # code 0 is never released
                for coll, handles in zip(stores, rows):
                    coll.remove(handles.pop(i))
            elif op == "intern":
                codes = {coll.strdict.intern(text) for coll in stores}
                assert len(codes) == 1
                held.extend(codes)
                needed = True
            elif op == "release" and held:
                code = held.pop(k % len(held))
                for coll in stores:
                    coll.strdict.release(code)
            elif op == "advance":
                assert len({coll.manager.epochs.try_advance() for coll in stores}) == 1
            assert lazy.strdict.indexed == needed
            _assert_reads_alike(*stores, probe)
            needed |= probe
        for handles in rows[1:]:
            assert [h.text for h in handles] == [h.text for h in rows[0]]
    finally:
        for coll in stores:
            coll.manager.close()


def test_unbuilt_store_saves_its_source_image(tpch_image, tmp_path):
    loaded = load_collections(tpch_image)
    try:
        again = _save(tmp_path, loaded, "again.smcsnap")
        assert not any(sd.indexed for sd in _dicts(loaded).values())
    finally:
        loaded["_manager"].close()
    with open(tpch_image, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


# -- count gates -------------------------------------------------------


def test_load_reads_no_string_record(tpch_image, monkeypatch):
    reads = _count_heap_reads(monkeypatch)
    loaded = load_collections(tpch_image)
    try:
        assert reads == [0]
        dicts = _dicts(loaded)
        assert dicts and not any(sd.indexed for sd in dicts.values())
        # Reading a value reads its one record, and builds nothing.
        [h] = [h for h in loaded["region"] if h.regionkey == 0]
        assert h.comment and reads == [1]
        assert not dicts["region"].indexed
    finally:
        loaded["_manager"].close()


def test_durable_open_adopts_without_reading_a_string(tpch_image, tmp_path, monkeypatch):
    """Recovery reads no text while it adopts the checkpoint, and its
    replayed tail builds only the one dictionary it writes; the store
    then indexes every dictionary before it takes a request."""
    from repro.durability import DurableStore, recovery

    data_dir = str(tmp_path / "data")
    store = DurableStore.create(data_dir, snapshot=tpch_image)
    assert all(sd.indexed for sd in _dicts(store.collections).values())
    store.apply(
        [
            {
                "op": "add",
                "collection": "region",
                "values": {"regionkey": 99, "name": "ATLANTIS", "comment": "sunken"},
            }
        ]
    )
    store.close()  # no checkpoint: the add stays in the log tail

    reads = _count_heap_reads(monkeypatch)
    at_replay = []
    built = set()
    replay = recovery.apply_batch

    def counting_replay(collections, *args, **kwargs):
        at_replay.append(reads[0])
        replayed = replay(collections, *args, **kwargs)
        built.update(name for name, sd in _dicts(collections).items() if sd.indexed)
        return replayed

    monkeypatch.setattr(recovery, "apply_batch", counting_replay)
    store = DurableStore.open(data_dir)
    try:
        assert at_replay == [0]
        assert built == {"region"}
        assert all(sd.indexed for sd in _dicts(store.collections).values())
        assert store.collections["region"].strdict.code_of("sunken") is not None
    finally:
        store.close()


@pytest.mark.parametrize("how", ["create", "open"])
def test_durable_store_indexes_before_its_first_batch(tpch_image, tmp_path, monkeypatch, how):
    """A store seeded from an image, or recovered, has built every
    dictionary's lookup index when it is handed out: its first write
    batch builds none, so it does not wait for them under their locks."""
    from repro.durability import DurableStore

    data_dir = str(tmp_path / "data")
    store = DurableStore.create(data_dir, snapshot=tpch_image)
    if how == "open":
        store.close()
        store = DurableStore.open(data_dir)
    builds = [0]
    real = StringDict._build_index

    def counting(sd):
        builds[0] += 1
        real(sd)

    monkeypatch.setattr(StringDict, "_build_index", counting)
    try:
        dicts = _dicts(store.collections)
        assert len(dicts) == 8 and all(sd.indexed for sd in dicts.values())
        store.apply(
            [
                {"op": "add", "collection": "region",
                 "values": {"regionkey": 99, "name": "ATLANTIS", "comment": "sunken"}},
                {"op": "add", "collection": "part",
                 "values": {"partkey": 10**6, "name": "new part", "comment": "x"}},
            ]
        )
        assert builds == [0]
        assert dicts["part"].code_of("new part") is not None
    finally:
        store.close()


def _suite_workloads():
    """The served benchmark's workload definitions (no ``src`` imports)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_suite_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tiered", [False, True], ids=["hot", "tiered"])
def test_read_mixes_build_no_dictionary(tpch_image, tiered):
    """Every grid point of ``scan_mix`` and ``short_mix`` through the
    in-process service, all hot and under a pager holding a quarter of
    the pool: no dictionary is built."""
    from repro.service.server import QueryService

    wl = _suite_workloads()
    budget = None
    if tiered:
        probe = load_collections(tpch_image)
        budget = probe["_manager"].total_bytes() // 4
        probe["_manager"].close()
    collections = load_collections(tpch_image, memory_budget=budget)
    service = QueryService(collections)
    try:
        for name in ("scan_mix", "short_mix"):
            for grid, i in wl.every_point(wl.WORKLOADS[name]["mix"]):
                reply = service.handle(
                    {
                        "op": "query",
                        "query": wl.query_of(grid),
                        "engine": "compiled",
                        "workers": 1,
                        "prune": True,
                        "params": wl.GRIDS[grid][i],
                    }
                )
                assert reply["ok"], (grid, i, reply)
        assert not any(sd.indexed for sd in _dicts(collections).values())
    finally:
        service.close()
        collections["_manager"].close()


def _footprint(path):
    """What a load, then one intern into every dictionary, leave behind.

    Returns ``(load, write, n)``: the ``(Python-object bytes, array
    bytes)`` the load left allocated and those the load and the interns
    did, and the codes plus indirection entries loaded.  tracemalloc's
    own domain, block buffers excluded, is what the Python heap holds;
    NumPy array buffers (their own domain) are counted apart: like block
    buffers they are raw bytes that hold no object.
    """
    before = tracemalloc.take_snapshot()
    loaded = load_collections(path)
    after_load = tracemalloc.take_snapshot()
    for sd in _dicts(loaded).values():
        sd.intern("written after the load")
    after_write = tracemalloc.take_snapshot()
    grown = []
    for after in (after_load, after_write):
        sizes = [0, 0]
        for snap, sign in ((after, 1), (before, -1)):
            for trace in snap.filter_traces([tracemalloc.Filter(False, shm.__file__)]).traces:
                sizes[trace.domain != 0] += sign * trace.size
        grown.append(sizes)
    codes = sum(len(sd.export_codes()[1]) for sd in _dicts(loaded).values())
    entries = loaded["_manager"].table.size
    loaded["_manager"].close()
    return grown[0], grown[1], codes + entries


def _objects_added(path):
    """gc-tracked objects a load and one intern into every dictionary
    leave behind."""
    gc.collect()
    before = len(gc.get_objects())
    loaded = load_collections(path)
    for sd in _dicts(loaded).values():
        sd.intern("written after the load")
    gc.collect()
    added = len(gc.get_objects()) - before
    loaded["_manager"].close()
    return added


def test_load_python_heap_does_not_grow_with_strings(tmp_path):
    """SF 0.001 vs SF 0.004: four times the rows and distinct strings,
    the same Python heap after a load, and after one intern into every
    dictionary, which builds its lookup index; the load's arrays grow by
    their bytes per indirection entry and dictionary code only, and the
    gc-tracked objects by a few per block."""
    paths = []
    for sf in (0.001, 0.004):
        collections = load_smc(generate(sf, seed=42))
        paths.append(_save(tmp_path, collections, f"sf{sf}.smcsnap"))
        collections["_manager"].close()
    tracemalloc.start()
    try:
        (small_load, small_write, small_n), (large_load, large_write, large_n) = map(
            _footprint, paths
        )
    finally:
        tracemalloc.stop()
    assert large_n > 3 * small_n
    assert large_load[0] - small_load[0] < 256 * 1024
    assert large_load[1] - small_load[1] < 16 * (large_n - small_n)
    assert large_write[0] - small_write[0] < 256 * 1024
    small_objects, large_objects = map(_objects_added, paths)
    assert large_objects - small_objects < 64
