"""Benchmark workloads shared by the figure benches.

* :func:`allocation_throughput` — Figure 7's batch-allocation workload;
* :class:`RefreshStreams` — Figure 8's TPC-H refresh streams: one stream
  type inserts 0.1% of the initial lineitem population, the other
  enumerates the collection removing the 0.1% whose ``orderkey`` is in a
  pre-built hash set;
* :func:`wear` — the fresh→worn transition of Figure 10: repeated random
  removals and re-insertions that scatter managed objects over the heap
  and punch limbo holes into SMC blocks.
"""

from __future__ import annotations

import datetime as _dt
import random
import threading
import time
from decimal import Decimal
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.tpch.datagen import TpchData


def lineitem_values(rnd: random.Random, orderkey: int) -> Dict[str, Any]:
    """Synthesise one lineitem row (no references), for churn workloads."""
    ship = _dt.date(1994, 1, 1) + _dt.timedelta(days=rnd.randrange(0, 1500))
    return {
        "orderkey": orderkey,
        "partkey": rnd.randrange(1, 1000),
        "suppkey": rnd.randrange(1, 100),
        "linenumber": rnd.randrange(1, 8),
        "quantity": Decimal(rnd.randrange(1, 51)),
        "extendedprice": Decimal(rnd.randrange(100, 100000)).scaleb(-2),
        "discount": Decimal(rnd.randrange(0, 11)).scaleb(-2),
        "tax": Decimal(rnd.randrange(0, 9)).scaleb(-2),
        "returnflag": rnd.choice("RAN"),
        "linestatus": rnd.choice("OF"),
        "shipdate": ship,
        "commitdate": ship + _dt.timedelta(days=10),
        "receiptdate": ship + _dt.timedelta(days=20),
        "shipinstruct": "NONE",
        "shipmode": "RAIL",
        "comment": "quick refresh line",
    }


def allocation_throughput(
    add_one: Callable[[int], Any],
    count: int,
    threads: int = 1,
) -> float:
    """Objects allocated per second by *threads* workers adding *count* total."""
    per_thread = count // threads
    barrier = threading.Barrier(threads + 1)

    def worker(base: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            add_one(base + i)

    workers = [
        threading.Thread(target=worker, args=(t * per_thread,))
        for t in range(threads)
    ]
    for w in workers:
        w.start()
    barrier.wait()
    start = time.perf_counter()
    for w in workers:
        w.join()
    elapsed = time.perf_counter() - start
    return (per_thread * threads) / elapsed if elapsed > 0 else float("inf")


class RefreshStreams:
    """Figure 8's refresh streams against any collection adapter.

    The adapter supplies three callables so the same driver measures SMCs,
    managed dictionaries and managed lists:

    ``insert(values)``
        add one lineitem-shaped object (or, when ``insert_many`` is
        given, ``insert_many(rows)`` adds a stream's rows in one call);
    ``keys()``
        orderkeys currently present (sampled to pick removal victims);
    ``remove_by_orderkeys(keyset)``
        enumerate the collection once, removing objects whose orderkey is
        in the hash set (the paper's single-enumeration predicate removal).
    """

    def __init__(
        self,
        insert: Callable[[Dict[str, Any]], Any],
        keys: Callable[[], List[int]],
        remove_by_orderkeys: Callable[[set], int],
        initial_population: int,
        seed: int = 99,
        insert_many: Optional[Callable[[List[Dict[str, Any]]], Any]] = None,
    ) -> None:
        self.insert = insert
        self.insert_many = insert_many
        self.keys = keys
        self.remove_by_orderkeys = remove_by_orderkeys
        self.batch = max(1, initial_population // 1000)  # 0.1%
        self.rnd = random.Random(seed)
        self._next_orderkey = 10_000_000

    def run_insert_stream(self) -> int:
        rows = []
        for __ in range(self.batch):
            self._next_orderkey += 1
            rows.append(lineitem_values(self.rnd, self._next_orderkey))
        if self.insert_many is not None:
            self.insert_many(rows)
        else:
            for values in rows:
                self.insert(values)
        return self.batch

    def run_delete_stream(self) -> int:
        keys = self.keys()
        if not keys:
            return 0
        victims = set(self.rnd.sample(keys, min(self.batch, len(keys))))
        return self.remove_by_orderkeys(victims)

    def throughput(self, seconds: float, threads: int = 1) -> float:
        """Streams per minute sustained for *seconds* with *threads* workers.

        Even workers run insert streams, odd workers delete streams (the
        paper alternates the two stream kinds with equal frequency).
        """
        stop = time.monotonic() + seconds
        counts = [0] * threads
        lock = threading.Lock()

        def worker(idx: int) -> None:
            while time.monotonic() < stop:
                if idx % 2 == 0:
                    self.run_insert_stream()
                else:
                    with lock:
                        # Delete streams enumerate-and-remove; serialise
                        # victim selection so two streams do not race on
                        # the same keys.
                        self.run_delete_stream()
                counts[idx] += 1

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        start = time.monotonic()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.monotonic() - start
        return sum(counts) / elapsed * 60.0


def wear(
    handles_or_records: List[Any],
    remove: Callable[[Any], None],
    insert: Callable[[Dict[str, Any]], Any],
    fraction: float = 0.5,
    rounds: int = 2,
    seed: int = 7,
) -> List[Any]:
    """Age a collection: remove a fraction and re-insert, *rounds* times.

    Returns the surviving+new population.  On managed collections this
    scatters objects across the Python heap (new objects interleave with
    unrelated allocations); on SMCs it punches limbo holes that later
    allocations partially refill — the paper's *worn* state (Figure 10).
    """
    rnd = random.Random(seed)
    population = list(handles_or_records)
    for __ in range(rounds):
        rnd.shuffle(population)
        cut = int(len(population) * fraction)
        victims, population = population[:cut], population[cut:]
        for v in victims:
            remove(v)
        for i in range(cut):
            population.append(insert(lineitem_values(rnd, 20_000_000 + i)))
    return population
