"""Zone-map pruning, and scans racing compaction.

Differential guarantees first: every TPC-H query must produce identical
results with pruning on or swapped out (``tests.seams.unpruned``), on
both layouts, and concurrent scans must stay exact while a compaction
cycle runs underneath.  Then the zone-map lifecycle: lazy build,
conservative staleness after frees, invalidation on in-place updates,
exact rebuild on compaction.  Multi-worker scans on the process pool
have their own differential in ``test_process_exec.py``.

All tests here are sanitizer-compatible (``pytest --sanitize``).
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.core.collection import Collection
from repro.memory.manager import MemoryManager
from repro.query.builder import Count, Sum
from repro.tpch.loader import load_smc
from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES
from tests.schemas import TPerson
from tests.seams import unpruned

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}

def _canonical(result):
    """Order-insensitive comparison form of a query result."""
    return (tuple(result.columns), sorted(map(tuple, result.rows)))


@pytest.fixture(scope="module", params=["row", "columnar"])
def tpch_smc(request, tpch_tiny):
    collections = load_smc(tpch_tiny, columnar=request.param == "columnar")
    yield collections
    collections["_manager"].close()


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_differential_workers_and_pruning(tpch_smc, name):
    """Pruned scans return exactly the unpruned rows, in the same order,
    down to each ``Decimal``'s exponent."""
    def run(prune):
        with contextlib.nullcontext() if prune else unpruned():
            query = ALL_QUERIES[name](tpch_smc)
            return query.run(params=DEFAULT_PARAMS)

    assert repr(run(True).rows) == repr(run(False).rows), name


def _worn_people(n=3000, keep_mod=3):
    """A multi-block population with most rows freed (compaction bait)."""
    m = MemoryManager(block_shift=14)  # 16 KiB blocks: several per 1k rows
    people = Collection(TPerson, manager=m)
    handles = [people.add(name="p", age=i, balance=i) for i in range(n)]
    for i, h in enumerate(handles):
        if i % keep_mod:
            people.remove(h)
    return m, people


def test_parallel_scan_during_compaction():
    """Scanners racing a compaction cycle still see every survivor once."""
    m, people = _worn_people()

    def build():
        return (
            people.query()
            .where(TPerson.age >= 0)
            .aggregate(n=Count(), total=Sum(TPerson.age))
        )

    with unpruned():
        expected = _canonical(build().run(workers=1))
    query = build()

    results = []
    errors = []
    stop = threading.Event()

    def scanner():
        try:
            while not stop.is_set():
                results.append(_canonical(query.run()))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=scanner) for __ in range(2)]
    for t in threads:
        t.start()
    try:
        for __ in range(3):
            people.compact(occupancy_threshold=0.9)
    finally:
        stop.set()
        for t in threads:
            t.join()
    m.close()
    assert not errors, errors
    assert results and all(r == expected for r in results)


def _count(result):
    """Scalar Count() value (an empty selection aggregates to no rows)."""
    return result.rows[0][0] if result.rows else 0


def _lineitem_block(people):
    blocks = people.context.blocks()
    assert len(blocks) >= 1
    return blocks[0]


def test_zone_map_built_lazily_by_pruning_scan():
    m = MemoryManager()
    people = Collection(TPerson, manager=m)
    for i in range(100):
        people.add(name="p", age=i)
    block = _lineitem_block(people)
    assert block.zones is None  # writers never build statistics

    probe = people.query().where(TPerson.age == 5_000).aggregate(n=Count())
    assert _count(probe.run(workers=1)) == 0
    zones = block.zones
    assert zones is not None and zones.version == block.zone_version
    assert (zones.lo["age"], zones.hi["age"]) == (0, 99)
    m.close()


def test_zone_staleness_free_keeps_bounds_conservative():
    """Freeing the extremum leaves bounds wide: missed pruning, never a
    missed match."""
    m = MemoryManager()
    people = Collection(TPerson, manager=m)
    handles = [people.add(name="p", age=i) for i in range(100)]
    probe = people.query().where(TPerson.age >= 99).aggregate(n=Count())
    assert _count(probe.run(workers=1)) == 1

    block = _lineitem_block(people)
    people.remove(handles[99])  # drop the max
    zones = block.zones
    assert zones.hi["age"] == 99  # stale-wide, by design
    before = dict(m.stats.extra)
    assert _count(probe.run(workers=1)) == 0
    # The conservative map admits the block even though it can no longer match.
    assert m.stats.extra.get("zone_pruned_blocks", 0) == before.get(
        "zone_pruned_blocks", 0
    )
    m.close()


def test_zone_invalidated_by_inplace_update():
    """An update past the recorded bounds must defeat pruning immediately."""
    m = MemoryManager()
    people = Collection(TPerson, manager=m)
    handles = [people.add(name="p", age=i) for i in range(100)]
    probe = people.query().where(TPerson.age >= 5_000).aggregate(n=Count())
    assert _count(probe.run(workers=1)) == 0
    handles[0].age = 10_000
    assert _count(probe.run(workers=1)) == 1
    block = _lineitem_block(people)
    assert block.zones.hi["age"] == 10_000  # rebuilt after invalidation
    m.close()


def test_zone_rebuilt_exactly_on_compaction():
    """Compaction squeezes out freed extrema: the rebuilt map prunes what
    the stale one could not."""
    m, people = _worn_people(n=3000, keep_mod=3)
    survivors_max = max(h.age for h in people)
    probe = (
        people.query()
        .where(TPerson.age > survivors_max)
        .aggregate(n=Count())
    )
    assert _count(probe.run(workers=1)) == 0
    moved = people.compact(occupancy_threshold=0.9)
    assert moved > 0
    for block in people.context.blocks():
        zones = block.zones
        if zones is None or zones.version != block.zone_version:
            continue
        assert zones.hi["age"] <= survivors_max
    before = m.stats.extra.get("zone_pruned_blocks", 0)
    assert _count(probe.run(workers=1)) == 0
    # Rebuilt (or lazily re-derived) bounds now exclude the probe range.
    assert m.stats.extra.get("zone_pruned_blocks", 0) > before
    m.close()


def test_selective_band_prunes_most_blocks():
    """A narrow band over an insertion-ordered key skips >=50% of blocks."""
    m = MemoryManager(block_shift=14)
    people = Collection(TPerson, manager=m)
    for i in range(5_000):
        people.add(name="p", age=i)
    nblocks = people.context.block_count()
    assert nblocks >= 4
    probe = (
        people.query()
        .where(TPerson.age.between(100, 200))
        .aggregate(n=Count())
    )
    before_p = m.stats.extra.get("zone_pruned_blocks", 0)
    before_s = m.stats.extra.get("zone_scanned_blocks", 0)
    assert _count(probe.run(workers=1)) == 101
    pruned = m.stats.extra.get("zone_pruned_blocks", 0) - before_p
    scanned = m.stats.extra.get("zone_scanned_blocks", 0) - before_s
    assert pruned + scanned == nblocks
    assert pruned / nblocks >= 0.5
    m.close()
