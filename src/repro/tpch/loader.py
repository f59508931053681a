"""Loaders: one generated dataset → every storage engine under test.

Given one :class:`~repro.tpch.datagen.TpchData`, these helpers build

* ``load_smc`` — self-managed collections (row layout by default,
  columnar with ``columnar=True``), wiring every foreign key as a
  reference between collections;
* ``load_managed`` — the managed baselines (``ManagedList`` /
  ``ManagedDictionary`` / ``ManagedBag``) holding plain record objects
  that reference each other directly, like C# objects on the managed
  heap;
* ``load_rdbms`` — the column-store comparator with clustered indexes on
  ``lineitem.shipdate`` and ``orders.orderdate`` (as the paper configures
  SQL Server).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.collection import Collection, bulk_add
from repro.core.columnar import ColumnarCollection
from repro.managed.collections_ import ManagedBag, ManagedDictionary, ManagedList
from repro.memory.manager import MemoryManager
from repro.rdbms.table import ColumnTable
from repro.tpch import schema as tpch_schema
from repro.tpch.datagen import TpchData


def load_smc(
    data: TpchData,
    manager: Optional[MemoryManager] = None,
    columnar: bool = False,
    shm: bool = False,
    memory_budget: Optional[int] = None,
) -> Dict[str, Any]:
    """Load the dataset into SMCs; returns name → collection.

    The returned dict also carries the manager under ``"_manager"``.
    ``shm=True`` backs the blocks with named shared-memory segments so a
    process pool can attach them;
    ``memory_budget`` attaches a pager that keeps the block pool under
    the given byte budget (cold blocks spill to a tier file).  All are
    ignored when an explicit *manager* is supplied.
    """
    manager = manager or MemoryManager(shm=shm, memory_budget=memory_budget)
    factory = ColumnarCollection if columnar else Collection
    collections: Dict[str, Any] = {
        name: factory(tpch_schema.SCHEMAS[name], manager=manager)
        for name in tpch_schema.TABLES
    }

    def load(name, rows, key=None, **refs):
        """Add one table's rows; ``refs`` maps a reference field to
        ``(foreign key column, handles by key)``.  Returns the handles
        by *key* column, when given."""
        added = bulk_add(
            collections[name],
            (
                dict(row, **{f: by_key[row[col]] for f, (col, by_key) in refs.items()})
                for row in rows
            ),
        )
        if key is not None:
            return {row[key]: handle for row, handle in zip(rows, added)}
        return None

    regions = load("region", data.region, "regionkey")
    nations = load("nation", data.nation, "nationkey", region=("regionkey", regions))
    suppliers = load(
        "supplier", data.supplier, "suppkey", nation=("nationkey", nations)
    )
    customers = load(
        "customer", data.customer, "custkey", nation=("nationkey", nations)
    )
    parts = load("part", data.part, "partkey")
    load(
        "partsupp",
        data.partsupp,
        part=("partkey", parts),
        supplier=("suppkey", suppliers),
    )
    orders = load("orders", data.orders, "orderkey", customer=("custkey", customers))
    load(
        "lineitem",
        data.lineitem,
        order=("orderkey", orders),
        part=("partkey", parts),
        supplier=("suppkey", suppliers),
    )

    collections["_manager"] = manager
    return collections


def load_managed(data: TpchData, kind: str = "list") -> Dict[str, Any]:
    """Load the dataset into managed baseline collections.

    ``kind`` selects the collection type for every table: ``"list"``
    (List<T>), ``"dict"`` (ConcurrentDictionary) or ``"bag"``
    (ConcurrentBag).  Records hold direct Python references to their
    foreign-key targets, exactly like managed objects in the paper.
    """
    factories = {
        "list": lambda s, key: ManagedList(s),
        "dict": lambda s, key: ManagedDictionary(s, key=key),
        "bag": lambda s, key: ManagedBag(s),
    }
    if kind not in factories:
        raise ValueError(f"unknown managed collection kind {kind!r}")
    keys = {
        "region": "regionkey",
        "nation": "nationkey",
        "supplier": "suppkey",
        "customer": "custkey",
        "part": "partkey",
        "partsupp": None,
        "orders": "orderkey",
        "lineitem": None,
    }
    collections: Dict[str, Any] = {
        name: factories[kind](tpch_schema.SCHEMAS[name], keys[name])
        for name in tpch_schema.TABLES
    }

    regions = {
        row["regionkey"]: collections["region"].add(**row) for row in data.region
    }
    nations = {}
    for row in data.nation:
        nations[row["nationkey"]] = collections["nation"].add(
            region=regions[row["regionkey"]], **row
        )
    suppliers = {}
    for row in data.supplier:
        suppliers[row["suppkey"]] = collections["supplier"].add(
            nation=nations[row["nationkey"]], **row
        )
    customers = {}
    for row in data.customer:
        customers[row["custkey"]] = collections["customer"].add(
            nation=nations[row["nationkey"]], **row
        )
    parts = {row["partkey"]: collections["part"].add(**row) for row in data.part}
    for row in data.partsupp:
        collections["partsupp"].add(
            part=parts[row["partkey"]],
            supplier=suppliers[row["suppkey"]],
            **row,
        )
    orders = {}
    for row in data.orders:
        orders[row["orderkey"]] = collections["orders"].add(
            customer=customers[row["custkey"]], **row
        )
    for row in data.lineitem:
        collections["lineitem"].add(
            order=orders[row["orderkey"]],
            part=parts[row["partkey"]],
            supplier=suppliers[row["suppkey"]],
            **row,
        )
    return collections


#: Columns loaded into the relational comparator per table (keys retained,
#: object references dropped — the RDBMS joins by value).
_RDBMS_COLUMNS = {
    "region": ("regionkey", "name"),
    "nation": ("nationkey", "name", "regionkey"),
    "supplier": ("suppkey", "name", "nationkey", "acctbal"),
    "customer": ("custkey", "name", "nationkey", "acctbal", "mktsegment"),
    "part": ("partkey", "mfgr", "brand", "type", "size", "retailprice"),
    "partsupp": ("partkey", "suppkey", "availqty", "supplycost"),
    "orders": (
        "orderkey",
        "custkey",
        "orderstatus",
        "totalprice",
        "orderdate",
        "orderpriority",
        "shippriority",
    ),
    "lineitem": (
        "orderkey",
        "partkey",
        "suppkey",
        "quantity",
        "extendedprice",
        "discount",
        "tax",
        "returnflag",
        "linestatus",
        "shipdate",
        "commitdate",
        "receiptdate",
        "shipmode",
    ),
}


def load_rdbms(data: TpchData) -> Dict[str, ColumnTable]:
    """Load the dataset into the column-store comparator."""
    db = {
        name: ColumnTable.from_rows(name, data.table(name), cols)
        for name, cols in _RDBMS_COLUMNS.items()
    }
    # The paper's SQL Server setup uses clustered indexes on shipdate and
    # orderdate (section 7, "Comparison to RDBMS").
    db["lineitem"].create_clustered_index("shipdate")
    db["orders"].create_clustered_index("orderdate")
    return db
