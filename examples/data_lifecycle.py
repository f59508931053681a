"""Data lifecycle: snapshots, bulk mutation, auto-compaction, repair.

A day in the life of a long-running SMC application:

1. generate business data and persist it to a binary snapshot,
2. restart (the snapshot's blocks are adopted by a fresh memory manager),
3. age out old records in bulk (``remove_where``) with the
   auto-compaction policy keeping the footprint tight,
4. bulk-correct records (``update_where``),
5. run the reference-repair scan and print the memory-system report.
"""

import datetime
import os
import tempfile

from repro.core.collection import Collection
from repro.core.repair import repair_references
from repro.io import load_collections, save_collections
from repro.memory.manager import MemoryManager
from repro.schema import (
    CharField,
    DateField,
    DecimalField,
    Int32Field,
    RefField,
    Tabular,
)


class Device(Tabular):
    device_id = Int32Field()
    model = CharField(16)


class Reading(Tabular):
    device = RefField(Device)
    device_id = Int32Field()
    taken = DateField()
    value = DecimalField(2)
    status = CharField(8)


def build_day_one(manager: MemoryManager):
    devices = Collection(Device, manager=manager)
    readings = Collection(
        Reading, manager=manager, auto_compact_occupancy=0.55
    )
    base = datetime.date(2026, 1, 1)
    dev_handles = [
        devices.add(device_id=i, model=f"sensor-{i % 4}") for i in range(20)
    ]
    for day in range(60):
        for d in dev_handles:
            readings.add(
                device=d,
                device_id=d.device_id,
                taken=base + datetime.timedelta(days=day),
                value=(day * 7 + d.device_id) % 100,
                status="ok" if day % 9 else "suspect",
            )
    return devices, readings


def main() -> None:
    snap = os.path.join(tempfile.gettempdir(), "lifecycle.smcsnap")

    # Day one: build and persist (small blocks so the shrinkage policy
    # has something visible to compact in this demo; a reload keeps them).
    manager = MemoryManager(block_shift=12)
    devices, readings = build_day_one(manager)
    rows = save_collections(snap, {"devices": devices, "readings": readings})
    print(f"day 1: persisted {rows} rows to {snap}")
    manager.close()

    # Day two: restart from the snapshot.
    loaded = load_collections(snap)
    manager = loaded["_manager"]
    readings = loaded["readings"]
    # Re-enable the shrinkage policy on the reloaded collection.
    readings.auto_compact_occupancy = 0.55
    print(
        f"day 2: reloaded {len(readings)} readings in "
        f"{readings.context.block_count()} blocks"
    )

    # Age out the first month of data in one pass.
    cutoff = datetime.date(2026, 2, 1)
    blocks_before = readings.context.block_count()
    removed = readings.remove_where(Reading.taken < cutoff)
    print(
        f"retention: removed {removed} readings; blocks "
        f"{blocks_before} -> {readings.context.block_count()} "
        f"(auto-compaction ran {manager.stats.compactions}x)"
    )

    # Bulk-correct the suspect rows.
    fixed = readings.update_where(Reading.status == "suspect", status="ok")
    print(f"quality: corrected {fixed} suspect readings")

    # Reference hygiene + final report.
    stats = repair_references(manager)
    print(f"repair scan: {stats}")
    print()
    print(manager.describe())
    manager.close()
    os.unlink(snap)


if __name__ == "__main__":
    main()
