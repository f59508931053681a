"""Persistence: block-image snapshots of self-managed collections."""

from repro.io.snapshot import (
    SnapshotError,
    describe_snapshot,
    export_collections,
    load_collections,
    save_collections,
)

__all__ = [
    "SnapshotError",
    "describe_snapshot",
    "export_collections",
    "load_collections",
    "save_collections",
]
