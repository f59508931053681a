"""Crash recovery: checkpoint reload + log-tail replay.

``recover(data_dir)`` rebuilds the collections a durable store held at
the moment of the crash:

1. read the MANIFEST (the atomically-replaced commit point) and adopt
   the checkpoint's block images into a fresh manager — every row comes
   back under the indirection-entry id it had, so the entry ids log
   records carry address the reloaded rows as they are;
2. read the active log segment once: the framing pass
   (:func:`~repro.durability.wal.scan_wal`) checks every frame and finds
   the committed boundary, then the committed payloads are decoded, each
   once;
3. replay the committed prefix through :func:`apply_batch`, i.e. the
   normal ``add_many``/``remove_many``/``setattr`` paths (so string
   dictionaries and zone-map versions are maintained as they were live).
   A replayed ``add`` takes whatever entry the allocator hands out; the
   :class:`EntryMap` remembers the rows whose id so diverged from the
   logged one.

The report carries the boundary (``committed_offset``, ``next_lsn``),
which ``DurableStore.open`` hands to the appender instead of reading the
segment a second time.

A torn final record (or a trailing batch whose COMMIT never reached
disk) is dropped: the crash interrupted an append that was never
acknowledged.  Interior corruption — a CRC mismatch or LSN gap with
valid records behind it — raises :class:`RecoveryError` naming the LSN,
because skipping it would silently lose acknowledged mutations.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

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
    their entry); those are remembered until removed.  A load that
    converts the image (another layout or block size) can hand out other
    ids too; its ``(logged, local)`` pairs seed the map.
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
    #: Seconds spent adopting the checkpoint image, reading the log
    #: segment (framing, CRC, decoding the committed payloads) and
    #: applying the committed records.
    load_seconds: float
    scan_seconds: float
    replay_seconds: float

    @property
    def duration(self) -> float:
        return self.load_seconds + self.scan_seconds + self.replay_seconds

    def summary(self) -> str:
        return (
            f"recovered {self.data_dir}: checkpoint {self.checkpoint} "
            f"({self.checkpoint_rows} rows, cut LSN {self.cut_lsn}) loaded "
            f"in {self.load_seconds * 1000:.1f} ms, log read "
            f"in {self.scan_seconds * 1000:.1f} ms, "
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
    shm: bool = False,
    memory_budget: Optional[int] = None,
):
    """Rebuild the collections stored in *data_dir*.

    Returns ``(collections, report)`` where ``collections`` includes the
    ``"_manager"`` key, exactly like ``load_collections``.  The layout
    defaults to what the manifest recorded; ``shm`` and
    ``memory_budget`` shape the fresh manager the checkpoint is adopted
    into, as they do for a snapshot load, and the log tail replays onto
    it.
    """
    from repro.io.snapshot import load_collections

    start = time.perf_counter()
    dd = DataDir(data_dir)
    manifest = dd.read_manifest()
    if manifest is None:
        raise RecoveryError(
            f"{data_dir} is not an initialized data directory (no MANIFEST)"
        )
    if manifest.get("string_dict", True) is not True:
        raise RecoveryError(
            f"{data_dir} stores varstrings as plain string-heap addresses "
            f"(MANIFEST string_dict: false); only dictionary-coded string "
            f"encoding is recovered"
        )
    if columnar is None:
        columnar = bool(manifest.get("columnar", False))

    checkpoint_path = os.path.join(dd.root, manifest["checkpoint"])
    try:
        collections = load_collections(
            checkpoint_path,
            manager=manager,
            columnar=columnar,
            shm=shm,
            memory_budget=memory_budget,
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

    records = scan.committed_records()
    scanned = time.perf_counter()
    interned = sum(1 for rec in records if rec.kind == INTERN)
    strings: Dict[int, str] = {}
    # Batch atomicity is enforced by the committed cut: everything in
    # it is committed, so the tail replays as one batch.
    replayed = apply_batch(collections, mgr, entry_map, strings, records)
    if mgr.pager is not None:
        # Replay wrote through the pager's write faults; the end of
        # recovery is an operation boundary, so serving starts under
        # the budget.
        mgr.pager.maintain()

    report = RecoveryReport(
        data_dir=dd.root,
        checkpoint=manifest["checkpoint"],
        cut_lsn=int(manifest["cut_lsn"]),
        checkpoint_rows=int(manifest.get("rows", 0)),
        wal_path=wal_path,
        records_scanned=len(scan.frames),
        replayed=replayed,
        interned=interned,
        dropped_tail_bytes=scan.torn_bytes,
        dropped_open_batch=scan.open_batch_records,
        committed_offset=scan.committed_offset,
        next_lsn=scan.next_lsn,
        load_seconds=loaded - start,
        scan_seconds=scanned - loaded,
        replay_seconds=time.perf_counter() - scanned,
    )
    return collections, report


def apply_batch(
    collections, mgr, entry_map: EntryMap, strings: Dict[int, str],
    records: Sequence[WalRecord],
) -> int:
    """Re-execute committed log records against the reloaded collections;
    returns how many mutations (ADD / REMOVE / UPDATE) it applied.

    INTERN records bind their sid in *strings*; BEGIN / COMMIT are
    skipped.
    Each run of ADD records for one collection is one ``add_many``, each
    run of REMOVE records one ``remove_many`` — the calls the writer
    made — so a replayed row takes the slot and entry the same sequence
    of single adds would.
    """
    replay = _Replay(collections, mgr, entry_map, strings)
    for rec in records:
        kind = rec.kind
        if kind == ADD:
            replay.add(rec)
        elif kind == REMOVE:
            replay.remove(rec)
        elif kind == UPDATE:
            replay.update(rec)
        elif kind == INTERN:
            strings[int(rec.payload["i"])] = rec.payload["t"]
        elif kind not in (BEGIN, COMMIT):
            raise RecoveryError(f"LSN {rec.lsn}: unknown record kind {kind}")
    replay.flush()
    return replay.applied


class _Flush(Exception):
    """A row references a row still pending in the same ADD run."""


class _Replay:
    """Groups consecutive ADD / REMOVE records into batch calls."""

    def __init__(self, collections, mgr, entry_map: EntryMap, strings) -> None:
        self.collections = collections
        self.mgr = mgr
        self.entry_map = entry_map
        self.strings = strings
        self.applied = 0
        self.lsn = 0
        #: The open run: kind, collection, logged entries, items.
        self._kind: Optional[int] = None
        self._coll = None
        self._logged: List[int] = []
        self._items: List[Any] = []
        self._pending: set = set()
        #: Logged entry -> live Ref, for ``$r`` values; entries a flushed
        #: REMOVE run ended are dropped.
        self._refs: Dict[int, Any] = {}

    def _collection(self, rec: WalRecord):
        name = rec.payload["c"]
        coll = self.collections.get(name)
        if coll is None:
            if rec.kind != ADD:
                raise RecoveryError(
                    f"LSN {rec.lsn}: {rec.kind_name} targets unknown "
                    f"collection {name!r}"
                )
            coll = _create_collection(
                self.collections, self.mgr, name, rec.payload["s"]
            )
        return coll

    def _join(self, kind: int, coll) -> None:
        if self._kind != kind or self._coll is not coll:
            self.flush()
            self._kind, self._coll = kind, coll

    def add(self, rec: WalRecord) -> None:
        coll = self._collection(rec)
        self._join(ADD, coll)
        self.lsn = rec.lsn
        try:
            row = self._encode(coll, rec.payload["v"])
        except _Flush:
            # A reference to a row this run has yet to add: add the run
            # so far first, as the writer had when it logged this row.
            self.flush()
            self._kind, self._coll = ADD, coll
            row = self._encode(coll, rec.payload["v"])
        logged = int(rec.payload["e"])
        self._logged.append(logged)
        self._items.append(row)
        self._pending.add(logged)

    def remove(self, rec: WalRecord) -> None:
        coll = self._collection(rec)
        self._join(REMOVE, coll)
        logged = int(rec.payload["e"])
        if logged in self._pending:
            self.flush()  # named twice in one run: fail on the second
            self._kind, self._coll = REMOVE, coll
        self._items.append(self._live(rec, coll, logged))
        self._logged.append(logged)
        self._pending.add(logged)

    def update(self, rec: WalRecord) -> None:
        self.flush()
        coll = self._collection(rec)
        self.lsn = rec.lsn
        ref = self._live(rec, coll, int(rec.payload["e"]))
        name, value = rec.payload["f"], rec.payload["v"]
        with self._malformed():
            value = coll.layout.codec.field_value(
                name, value, self._ref_of, self.strings
            )
        setattr(coll._handle(ref), name, value)
        self.applied += 1

    def flush(self) -> None:
        kind, coll, logged, items = self._kind, self._coll, self._logged, self._items
        self._kind = self._coll = None
        self._logged, self._items, self._pending = [], [], set()
        if not items:
            return
        if kind == ADD:
            for entry, handle in zip(logged, coll.add_many(items)):
                self.entry_map.bind(entry, handle.ref.entry)
        else:
            coll.remove_many(items)
            for entry in logged:
                self.entry_map.drop(entry)
                self._refs.pop(entry, None)
        self.applied += len(items)

    def _encode(self, coll, values):
        with self._malformed():
            return coll.layout.codec.encode(values, self._ref_of, self.strings)

    @contextlib.contextmanager
    def _malformed(self):
        """A value the codec refuses, as a RecoveryError naming the LSN."""
        try:
            yield
        except KeyError as exc:  # the codec's only lookup: a log sid
            raise RecoveryError(
                f"LSN {self.lsn}: string id {exc} was never interned in "
                f"this log segment"
            ) from None
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise RecoveryError(f"LSN {self.lsn}: {exc}") from None

    def _live(self, rec: WalRecord, coll, logged: int):
        ref = self.mgr.live_ref(self.entry_map.local(logged), coll.context)
        if ref is None:
            raise RecoveryError(
                f"LSN {rec.lsn}: {rec.kind_name} targets entry {logged} which "
                f"is not a live row of {rec.payload['c']!r} at this point of "
                f"the log"
            )
        return ref

    def _ref_of(self, field, value):
        """The codec's ``ref_of`` for logged ``{"$r": entry}`` values."""
        if value is None:
            return None
        if type(value) is not dict or "$r" not in value:
            raise RecoveryError(
                f"LSN {self.lsn}: field {field.name!r} holds {value!r}, "
                f"not a logged reference"
            )
        logged = int(value["$r"])
        if self._kind == ADD and logged in self._pending:
            raise _Flush
        ref = self._refs.get(logged)
        if ref is None:
            ref = self.mgr.live_ref(self.entry_map.local(logged))
            if ref is None:
                raise RecoveryError(
                    f"LSN {self.lsn}: reference to entry {logged} which "
                    f"is not live at this point of the log"
                )
            self._refs[logged] = ref
        return ref


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

