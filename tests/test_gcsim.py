"""GC cost model (Figure 9 substrate) and the real CPython GC probe."""

import pytest

from repro.managed.gcsim import (
    GcParams,
    SimulatedHeap,
    longest_timeout,
    real_gc_probe,
)


def test_mode_validation():
    with pytest.raises(ValueError):
        SimulatedHeap(mode="turbo")


def test_minor_collection_triggers_on_nursery_budget():
    heap = SimulatedHeap("batch", GcParams(nursery_bytes=1000))
    for __ in range(9):
        heap.allocate(100)
    assert heap.stats.minor_collections == 0
    heap.allocate(100)
    assert heap.stats.minor_collections == 1


def test_short_lived_objects_do_not_promote():
    heap = SimulatedHeap("batch", GcParams(nursery_bytes=1000))
    for __ in range(20):
        heap.allocate(100, long_lived=False)
    assert heap.old_live_objects == 0


def test_long_lived_objects_promote():
    heap = SimulatedHeap("batch", GcParams(nursery_bytes=1000))
    for __ in range(20):
        heap.allocate(100, long_lived=True)
    assert heap.old_live_objects > 0


def test_major_pause_scales_with_pinned_population():
    params = GcParams()
    small = SimulatedHeap("batch", params)
    small.pin_old_generation(10_000, 160)
    big = SimulatedHeap("batch", params)
    big.pin_old_generation(10_000_000, 160)
    assert big.force_major() > small.force_major() * 100


def test_interactive_mode_bounds_pauses():
    params = GcParams()
    batch = SimulatedHeap("batch", params)
    batch.pin_old_generation(5_000_000, 160)
    inter = SimulatedHeap("interactive", params)
    inter.pin_old_generation(5_000_000, 160)
    assert inter.force_major() < batch.force_major() / 5
    assert inter.stats.background_cpu > 0


def test_clock_accumulates_pauses_and_compute():
    heap = SimulatedHeap("batch", GcParams(nursery_bytes=1000))
    heap.advance(1.0)
    for __ in range(10):
        heap.allocate(100)
    assert heap.clock > 1.0
    assert heap.stats.total_pause > 0


def test_longest_timeout_shapes_figure9():
    """Managed pauses grow ~linearly; interactive pauses stay bounded."""
    sizes = [1_000_000, 5_000_000, 10_000_000]
    batch = [longest_timeout(n, "batch", churn_objects=20_000) for n in sizes]
    inter = [
        longest_timeout(n, "interactive", churn_objects=20_000) for n in sizes
    ]
    assert batch[0] < batch[1] < batch[2]
    ratio = batch[2] / batch[0]
    assert 5 < ratio < 15  # ~linear in population
    assert all(i < b for i, b in zip(inter, batch))
    assert inter[2] < batch[2] / 5


def test_smc_population_keeps_pauses_flat():
    """An SMC keeps its objects out of the collector's reach: pinning
    nothing (the blocks are a handful of buffers) keeps the max pause flat
    regardless of how much data the collection holds."""
    small = longest_timeout(0, "batch", churn_objects=20_000)
    big = longest_timeout(0, "batch", churn_objects=20_000)
    assert small == pytest.approx(big)


def test_real_gc_probe_managed_vs_offheap():
    """CPython's cycle collector visits managed records but not SMC rows:
    the objects it tracks grow by one per managed record and by a few
    for a whole SMC, and collecting the managed population costs more."""
    import gc
    import statistics

    from repro.core.collection import Collection
    from repro.memory.manager import MemoryManager
    from tests.schemas import TPerson

    n = 50_000

    def managed_population():
        record = TPerson.managed_class()
        return [record(name="x", age=i) for i in range(n)]

    def smc_population():
        m = MemoryManager()
        persons = Collection(TPerson, manager=m)
        for i in range(n):
            persons.add(name="x", age=i)
        return (m, persons)

    def tracked_growth(make_population):
        gc.collect()
        before = len(gc.get_objects())
        population = make_population()
        grown = len(gc.get_objects()) - before
        del population
        return grown

    # Interleaved, so a process sharing the host slows both sides alike;
    # exact factors vary with the machine.
    managed_costs, smc_costs = [], []
    for __ in range(5):
        managed_costs.append(real_gc_probe(managed_population))
        smc_costs.append(real_gc_probe(smc_population))
    assert statistics.median(managed_costs) > statistics.median(smc_costs)
    assert tracked_growth(managed_population) >= n
    assert tracked_growth(smc_population) < 1_000
