"""Crash recovery: checkpoint reload + log-tail replay.

``recover(data_dir)`` rebuilds the collections a durable store held at
the moment of the crash:

1. read the MANIFEST (the atomically-replaced commit point) and adopt
   the checkpoint's block images into a fresh manager — every row comes
   back under the indirection-entry id it had, so the entry ids log
   records carry address the reloaded rows as they are;
2. replay the committed prefix of the active log segment through the
   normal ``add``/``remove``/``setattr`` paths (so secondary indexes and
   string dictionaries are maintained as they were live).  A replayed
   ``add`` takes whatever entry the allocator hands out; the
   :class:`EntryMap` remembers the rows whose id so diverged from the
   logged one.

A torn final record (or a trailing batch whose COMMIT never reached
disk) is dropped: the crash interrupted an append that was never
acknowledged.  Interior corruption — a CRC mismatch or LSN gap with
valid records behind it — raises :class:`RecoveryError` naming the LSN,
because skipping it would silently lose acknowledged mutations.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.durability.checkpoint import DataDir
from repro.durability.wal import (
    ADD,
    BEGIN,
    COMMIT,
    INTERN,
    REMOVE,
    UPDATE,
    RecoveryError,
    WalRecord,
    scan_wal,
)


class EntryMap:
    """Logged entry id → local entry id.

    The identity for every row a checkpoint image holds — images keep
    entry ids, so nothing is stored per checkpointed row.  Only rows
    added by replaying log records diverge (the local allocator picks
    their entry); those are remembered until removed.  A read replica
    persists its divergent pairs in its own checkpoint image, because
    its log lineage stays in the primary's id space.
    """

    def __init__(self, pairs: Optional[np.ndarray] = None) -> None:
        self._local: Dict[int, int] = (
            {} if pairs is None else {int(a): int(b) for a, b in pairs}
        )

    def local(self, logged: int) -> int:
        return self._local.get(logged, logged)

    def bind(self, logged: int, local: int) -> None:
        if logged == local:
            self._local.pop(logged, None)
        else:
            self._local[logged] = local

    def drop(self, logged: int) -> None:
        self._local.pop(logged, None)

    def pairs(self) -> np.ndarray:
        """The divergent ``(logged, local)`` pairs, for a replica's image."""
        return np.array(list(self._local.items()), dtype=np.int64).reshape(-1, 2)


@dataclass
class RecoveryReport:
    """What recovery did (surfaced by ``repro recover`` and metrics)."""

    data_dir: str
    checkpoint: str
    cut_lsn: int
    checkpoint_rows: int
    wal_path: str
    records_scanned: int
    replayed: int
    interned: int
    dropped_tail_bytes: int
    dropped_open_batch: int
    committed_offset: int
    next_lsn: int
    #: Seconds spent adopting the checkpoint image / replaying the tail.
    load_seconds: float
    replay_seconds: float
    #: Logged → local entry ids as of the end of replay.  Replication
    #: keeps applying shipped records through it.
    entry_map: EntryMap = field(default_factory=EntryMap, repr=False)
    #: Log-local string-id table as of the end of replay.
    strings: Dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def duration(self) -> float:
        return self.load_seconds + self.replay_seconds

    def summary(self) -> str:
        return (
            f"recovered {self.data_dir}: checkpoint {self.checkpoint} "
            f"({self.checkpoint_rows} rows, cut LSN {self.cut_lsn}) loaded "
            f"in {self.load_seconds * 1000:.1f} ms, "
            f"replayed {self.replayed} of {self.records_scanned} log "
            f"records ({self.interned} interned strings, "
            f"{self.dropped_open_batch} dropped from an open batch, "
            f"{self.dropped_tail_bytes} torn tail bytes) "
            f"in {self.replay_seconds * 1000:.1f} ms"
        )


def recover(
    data_dir: str,
    *,
    manager=None,
    columnar: Optional[bool] = None,
    string_dict: Optional[bool] = None,
):
    """Rebuild the collections stored in *data_dir*.

    Returns ``(collections, report)`` where ``collections`` includes the
    ``"_manager"`` key, exactly like ``load_collections``.  Layout and
    encoding default to what the manifest recorded.
    """
    from repro.io.snapshot import load_collections

    start = time.perf_counter()
    dd = DataDir(data_dir)
    manifest = dd.read_manifest()
    if manifest is None:
        raise RecoveryError(
            f"{data_dir} is not an initialized data directory (no MANIFEST)"
        )
    if columnar is None:
        columnar = bool(manifest.get("columnar", False))
    if string_dict is None:
        string_dict = bool(manifest.get("string_dict", True))

    checkpoint_path = os.path.join(dd.root, manifest["checkpoint"])
    try:
        collections = load_collections(
            checkpoint_path,
            manager=manager,
            columnar=columnar,
            string_dict=string_dict,
        )
    except OSError as exc:
        raise RecoveryError(
            f"cannot read checkpoint {checkpoint_path}: {exc}"
        ) from None
    mgr = collections["_manager"]
    entry_map = EntryMap(collections.pop("_entry_ids", None))
    loaded = time.perf_counter()

    wal_path = os.path.join(dd.root, manifest["wal"])
    try:
        scan = scan_wal(wal_path)
    except FileNotFoundError:
        raise RecoveryError(
            f"manifest points at missing log segment {wal_path}"
        ) from None
    if scan.start_lsn != manifest["cut_lsn"] + 1:
        raise RecoveryError(
            f"{wal_path} starts at LSN {scan.start_lsn} but the "
            f"checkpoint was cut at LSN {manifest['cut_lsn']}"
        )

    replayed = interned = 0
    strings: Dict[int, str] = {}
    for rec in scan.committed_records():
        if rec.kind in (BEGIN, COMMIT):
            continue  # batch atomicity is enforced by the committed cut
        if rec.kind == INTERN:
            strings[int(rec.payload["i"])] = rec.payload["t"]
            interned += 1
            continue
        if "entries" in manifest:
            # A pre-image checkpoint stored rows, not entry ids: its log
            # tail addresses rows through a table this version dropped.
            raise RecoveryError(
                f"{data_dir} was checkpointed by an older version and has "
                f"an unreplayed log tail; open it once with that version "
                f"(a clean shutdown folds the tail into the checkpoint)"
            )
        apply_record(collections, mgr, entry_map, strings, rec)
        replayed += 1

    report = RecoveryReport(
        data_dir=dd.root,
        checkpoint=manifest["checkpoint"],
        cut_lsn=int(manifest["cut_lsn"]),
        checkpoint_rows=int(manifest.get("rows", 0)),
        wal_path=wal_path,
        records_scanned=len(scan.records),
        replayed=replayed,
        interned=interned,
        dropped_tail_bytes=scan.torn_bytes,
        dropped_open_batch=scan.open_batch_records,
        committed_offset=scan.committed_offset,
        next_lsn=scan.next_lsn,
        load_seconds=loaded - start,
        replay_seconds=time.perf_counter() - loaded,
        entry_map=entry_map,
        strings=strings,
    )
    return collections, report


def apply_record(collections, mgr, entry_map: EntryMap, strings, rec: WalRecord) -> None:
    """Re-execute one mutation record against the reloaded collections.

    This is the single apply path shared by crash recovery and live
    replication: a read replica feeds every shipped record through here
    so its in-memory state is rebuilt exactly the way a restart would.
    """
    payload = rec.payload
    name = payload["c"]
    coll = collections.get(name)
    logged = int(payload["e"])
    if rec.kind == ADD:
        if coll is None:
            coll = _create_collection(collections, mgr, name, payload["s"])
        values = {
            key: _decode_value(mgr, entry_map, strings, rec, value)
            for key, value in payload["v"].items()
        }
        entry_map.bind(logged, coll.add(**values).ref.entry)
        return
    if coll is None:
        raise RecoveryError(
            f"LSN {rec.lsn}: {rec.kind_name} targets unknown "
            f"collection {name!r}"
        )
    ref = mgr.live_ref(entry_map.local(logged), coll.context)
    if ref is None:
        raise RecoveryError(
            f"LSN {rec.lsn}: {rec.kind_name} targets entry {logged} which "
            f"is not a live row of {name!r} at this point of the log"
        )
    if rec.kind == REMOVE:
        coll.remove(ref)
        entry_map.drop(logged)
        return
    if rec.kind == UPDATE:
        setattr(
            coll._handle(ref),
            payload["f"],
            _decode_value(mgr, entry_map, strings, rec, payload["v"]),
        )
        return
    raise RecoveryError(
        f"LSN {rec.lsn}: unknown record kind {rec.kind}"
    )


def _create_collection(collections, mgr, name: str, schema_name: str):
    """A collection first seen in the log tail (created post-checkpoint)."""
    from repro.core.collection import Collection
    from repro.core.columnar import ColumnarCollection
    from repro.schema.tabular import resolve_tabular

    factory = Collection
    for existing_name, existing in collections.items():
        if not existing_name.startswith("_"):
            if isinstance(existing, ColumnarCollection):
                factory = ColumnarCollection
            break
    coll = factory(resolve_tabular(schema_name), manager=mgr, name=name)
    collections[name] = coll
    return coll


def _decode_value(mgr, entry_map: EntryMap, strings, rec: WalRecord, value):
    """Decode one logged field value back into add/setattr input."""
    from repro.service.protocol import decode_value

    if isinstance(value, dict):
        if "$r" in value:
            target = mgr.live_ref(entry_map.local(int(value["$r"])))
            if target is None:
                raise RecoveryError(
                    f"LSN {rec.lsn}: reference to entry {value['$r']} "
                    f"which is not live at this point of the log"
                )
            return target
        if "$s" in value:
            sid = int(value["$s"])
            if sid not in strings:
                raise RecoveryError(
                    f"LSN {rec.lsn}: string id {sid} was never interned "
                    f"in this log segment"
                )
            return strings[sid]
    return decode_value(value)
