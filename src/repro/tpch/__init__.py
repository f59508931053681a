"""TPC-H workload: schema, generator, loaders, queries.

The generator and the loaders are imported on first use (PEP 562): a
server answering queries over a snapshot needs only the schema and the
queries.
"""

import importlib

from repro.tpch.queries import DEFAULT_PARAMS, QUERIES

_LAZY = {
    "TpchData": "repro.tpch.datagen",
    "generate": "repro.tpch.datagen",
    "load_managed": "repro.tpch.loader",
    "load_rdbms": "repro.tpch.loader",
    "load_smc": "repro.tpch.loader",
}

__all__ = [
    "TpchData",
    "generate",
    "load_managed",
    "load_rdbms",
    "load_smc",
    "DEFAULT_PARAMS",
    "QUERIES",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
