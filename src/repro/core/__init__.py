"""Core SMC layer: collections, handles, compaction, columnar storage."""

from repro.core.collection import Collection, default_manager, reset_default_manager
from repro.core.columnar import ColumnarCollection
from repro.core.compaction import Compactor
from repro.core.handle import Handle
from repro.core.repair import repair_in_thread, repair_references

__all__ = [
    "Collection",
    "ColumnarCollection",
    "Compactor",
    "Handle",
    "default_manager",
    "repair_in_thread",
    "repair_references",
    "reset_default_manager",
]
