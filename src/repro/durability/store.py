"""DurableStore: the façade tying collections, WAL and checkpoints together.

A store owns a data directory, the manager + collections living in it,
the active :class:`~repro.durability.wal.WriteAheadLog` segment and a
:class:`~repro.durability.checkpoint.CheckpointManager`.  It installs
itself as every durable collection's ``mutation_log``, so the normal
``add`` / ``remove`` / handle-``setattr`` paths log transparently::

    store = DurableStore.create("state/", snapshot="tpch.smcsnap")
    orders = store.collections["orders"]
    orders.add(orderkey=1, ...)        # applied + logged + fsynced
    store.checkpoint()                 # snapshot, truncate the log
    store.close()

    store = DurableStore.open("state/")   # recover after a crash

Mutation/logging atomicity: durable collections hold the WAL lock
across *apply + append* (see ``Collection.add_many``), and the
checkpointer holds the same lock for the whole checkpoint, so the
snapshot cut is exact — no mutation can be half in the checkpoint and
half in the next log segment.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.checkpoint import CheckpointManager, DataDir, DataDirError
from repro.durability.recovery import RecoveryReport, recover
from repro.durability.wal import ADD, INTERN, REMOVE, UPDATE, WriteAheadLog
from repro.errors import SmcError
from repro.memory.reference import Ref
from repro.schema.fields import RefField
from repro.schema.layout import EncodedRow

#: Default log size that triggers ``maybe_checkpoint`` (bytes).
DEFAULT_CHECKPOINT_BYTES = 16 * 1024 * 1024


class MutationError(SmcError):
    """A malformed or inapplicable mutation op (service: BAD_REQUEST)."""


class _RequestRefs:
    """The entry ids one ``mutate`` request names, resolved once each.

    Entries resolve against the rows live before the request; one the
    request removes is gone for its later ops.  Called as the codec's
    ``ref_of`` for ``{"$r": entry}`` wire values.
    """

    def __init__(self, manager) -> None:
        self.manager = manager
        self._live: Dict[Tuple[int, int], Ref] = {}
        self._removed: set = set()
        self._targets: Dict[RefField, Any] = {}

    def live(self, coll, entry: Any) -> Ref:
        try:
            entry = int(entry)
        except (TypeError, ValueError):
            raise MutationError(f"invalid entry id {entry!r}") from None
        if entry in self._removed:
            raise MutationError(
                f"entry {entry} is removed by an earlier op of this request"
            )
        key = (coll.context.context_id, entry)
        ref = self._live.get(key)
        if ref is None:
            ref = self.manager.live_ref(entry, coll.context)
            if ref is None:
                raise MutationError(
                    f"entry {entry} is not a live object of collection "
                    f"{coll.name!r}"
                )
            self._live[key] = ref
        return ref

    def take(self, coll, entry: Any) -> Ref:
        """Resolve a ``remove`` target; later ops no longer see it."""
        ref = self.live(coll, entry)
        self._removed.add(ref.entry)
        return ref

    def __call__(self, field: RefField, value: Any) -> Optional[Ref]:
        if value is None:
            return None
        if type(value) is not dict or "$r" not in value:
            raise MutationError(
                f"field {field.name!r} takes {{\"$r\": entry}} or null"
            )
        target = self._targets.get(field)
        if target is None:
            owner = self.manager.collections[field.owner.__name__]
            target = self._targets[field] = owner.target_collection(field)
        return self.live(target, value["$r"])


class DurableStore:
    """A set of collections persisted to a data directory."""

    def __init__(
        self,
        datadir: DataDir,
        collections: Dict[str, Any],
        wal: WriteAheadLog,
        *,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        owns_manager: bool = False,
        report: Optional[RecoveryReport] = None,
    ) -> None:
        self.datadir = datadir
        self.collections = {
            k: v for k, v in collections.items() if not k.startswith("_")
        }
        self.manager = collections["_manager"]
        self._wal = wal
        self.checkpoint_bytes = checkpoint_bytes
        self.report = report
        self._owns_manager = owns_manager
        self._closed = False
        self._ckpt = CheckpointManager(
            self.datadir, self.manager, dict(collections)
        )
        self._ckpt.last_bytes = os.path.getsize(
            self.datadir.checkpoint_path(self.cut_lsn)
        )
        # Log-local string-id table, reset at every checkpoint (replay
        # interns strings in its own order, so a logged dictionary code
        # would name another string — see the wal module docstring).
        self._sids: Dict[str, int] = {}
        # Counters carried across segment rollovers.
        self._closed_records = 0
        self._closed_bytes = 0
        self._closed_fsyncs = 0
        self._closed_batches = 0
        self._attach()

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        data_dir: str,
        collections: Optional[Dict[str, Any]] = None,
        *,
        snapshot: Optional[str] = None,
        shm: bool = False,
        memory_budget: Optional[int] = None,
        fsync_policy: str = "commit",
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
    ) -> "DurableStore":
        """Initialize a fresh data directory.

        Seed it from a snapshot file, an existing ``{name: collection}``
        dict (which must include ``"_manager"``), or nothing (an empty
        store; collections then appear via :meth:`apply` ADD records or
        by registering them up front).  A snapshot is adopted in the
        shape it was saved in.  ``shm`` and ``memory_budget`` shape the
        manager the store creates; a caller's collections keep theirs.
        """
        from repro.io.snapshot import load_collections
        from repro.memory.manager import MemoryManager

        if collections is not None and snapshot is not None:
            raise DataDirError("pass either collections or snapshot, not both")
        owns = collections is None
        if snapshot is not None:
            collections = load_collections(
                snapshot, shm=shm, memory_budget=memory_budget
            )
        elif collections is None:
            collections = {
                "_manager": MemoryManager(shm=shm, memory_budget=memory_budget)
            }
        if "_manager" not in collections:
            raise DataDirError("collections must include '_manager'")
        datadir = DataDir(data_dir)
        ckpt = CheckpointManager(
            datadir, collections["_manager"], dict(collections)
        )
        __, wal = ckpt.bootstrap(fsync_policy=fsync_policy)
        return cls(
            datadir,
            collections,
            wal,
            checkpoint_bytes=checkpoint_bytes,
            owns_manager=owns,
        )

    @classmethod
    def open(
        cls,
        data_dir: str,
        *,
        fsync_policy: str = "commit",
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        shm: bool = False,
        memory_budget: Optional[int] = None,
    ) -> "DurableStore":
        """Recover *data_dir* and resume appending to its log segment.

        ``shm`` and ``memory_budget`` shape the recovered manager (see
        :func:`~repro.durability.recovery.recover`).  Appends resume at
        the committed boundary recovery's read of the segment found.
        When the tail held a mutation the store cuts a checkpoint before
        it is handed out, so the next restart does not replay it again.
        """
        collections, report = recover(
            data_dir, shm=shm, memory_budget=memory_budget
        )
        wal = WriteAheadLog.resume(
            report.wal_path,
            start_lsn=report.cut_lsn + 1,
            next_lsn=report.next_lsn,
            committed_offset=report.committed_offset,
            fsync_policy=fsync_policy,
        )
        store = cls(
            DataDir(data_dir),
            collections,
            wal,
            checkpoint_bytes=checkpoint_bytes,
            owns_manager=True,
            report=report,
        )
        if report.replayed + report.skipped:
            try:
                store.checkpoint()
            except BaseException:
                store.close()
                raise
        return store

    def _attach(self) -> None:
        # Log records carry the *store key* of a collection (what the
        # checkpoint and manifest are keyed by), which may differ from
        # collection.name when the caller's dict uses its own names.
        self._names: Dict[int, str] = {
            id(coll): name for name, coll in self.collections.items()
        }
        for coll in self.collections.values():
            coll.mutation_log = self
            if coll.strdict is not None:
                coll.strdict.on_bind = self._on_strdict_bind
                # An adopted dictionary indexes itself at its first write
                # or lookup, under its lock; the store builds the index
                # before it accepts a request, so no batch waits for it.
                coll.strdict.build_index()

    def detach_mutation_hooks(self) -> None:
        """Stop logging mutations: ``add``/``remove``/``setattr`` on the
        collections no longer append records (``close`` calls this)."""
        for coll in self.collections.values():
            if getattr(coll, "mutation_log", None) is self:
                coll.mutation_log = None
            strdict = coll.strdict
            if strdict is not None and strdict.on_bind == self._on_strdict_bind:
                strdict.on_bind = None

    def _name_of(self, collection) -> str:
        return self._names.get(id(collection), collection.name)

    # -- the mutation-hook interface (called by Collection/Handle) ------

    def hold(self):
        """The lock durable mutations hold across apply + append."""
        return self._wal.hold()

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def cut_lsn(self) -> int:
        """LSN of the latest checkpoint cut (active segment start - 1)."""
        return self._wal.start_lsn - 1

    @property
    def committed_lsn(self) -> int:
        """Last committed LSN of the active segment."""
        return self._wal.committed_lsn

    def log_add(self, collection, entry: int, row: EncodedRow) -> int:
        """Append the ADD record of a row just placed at *entry*, written
        from the row's raws by the codec's field emitters."""
        head = '{"c":%s,"s":%s,"e":' % (
            encode_basestring(self._name_of(collection)),
            encode_basestring(collection.schema.__name__),
        )
        codec = collection.layout.codec
        return self._wal.append(ADD, codec.add_payload(head, entry, row, self._sid_for))

    def log_remove(self, collection, entry: int) -> int:
        name = encode_basestring(self._name_of(collection))
        return self._wal.append(REMOVE, b'{"c":%s,"e":%d}' % (name.encode(), entry))

    def log_update(
        self, collection, entry: int, field_name: str, value: Any
    ) -> int:
        """Append the UPDATE record of one field just written.

        References are logged as ``{"$r": entry}``, non-empty varstrings
        as ``{"$s": sid}`` against the segment's INTERN table, scalars
        through the field codec so replay writes bit-identical raw values
        (e.g. Decimals pick up their declared scale).
        """
        text = collection.layout.codec.log_text(field_name, value, self._sid_for)
        body = '{"c":%s,"e":%d,"f":%s,"v":%s}' % (
            encode_basestring(self._name_of(collection)),
            entry,
            encode_basestring(field_name),
            text,
        )
        return self._wal.append(UPDATE, body.encode())

    def batch(self):
        """Group-commit scope: one BEGIN/COMMIT pair, one fsync."""
        return self._wal.batch()

    def _sid_for(self, text: str) -> int:
        with self._wal.hold():
            sid = self._sids.get(text)
            if sid is None:
                sid = len(self._sids) + 1
                body = '{"i":%d,"t":%s}' % (sid, encode_basestring(text))
                self._wal.append(INTERN, body.encode())
                self._sids[text] = sid
            return sid

    def _on_strdict_bind(self, code: int, text: str) -> None:
        """String-heap hook: a dictionary bound a new string.

        Pre-registers the text in the segment's INTERN table so the ADD
        or UPDATE record about to reference it reuses the sid.  (The
        dictionary *code* is deliberately ignored — replaying the log
        does not reproduce it.)
        """
        del code
        self._sid_for(text)

    # -- service-facing mutation batches --------------------------------

    def apply(self, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Apply one ``mutate`` request: check all of it, then apply it.

        Each op is ``{"op": "add"|"remove"|"update", "collection": name,
        ...}``; ``add`` takes ``values`` (tagged wire values, references
        as ``{"$r": entry}``), ``remove`` takes ``entry``, ``update``
        takes ``entry`` and ``values``.  Returns one result dict per op.

        The whole request is checked and converted before its first
        mutation, under the WAL lock: every field, value and entry id,
        with entries resolved against the rows live before the request
        (so a row removed by an earlier op cannot be named again, by a
        later ``remove``, ``update`` or ``$r``).  A request rejected with
        :class:`MutationError` at any op leaves the collections and the
        WAL exactly as they were.  An accepted one runs as one
        BEGIN/COMMIT unit — a crash mid-batch recovers to the state
        before it — with each run of adds (or removes) on one collection
        as one ``add_many`` (or ``remove_many``).
        """
        if not isinstance(ops, list) or not ops:
            raise MutationError("ops must be a non-empty list")
        with self._wal.hold():
            runs = self._check(ops)
            results: List[Dict[str, Any]] = []
            with self.batch():
                for kind, coll, items in runs:
                    if kind == "add":
                        results.extend(
                            {"entry": h.ref.entry} for h in coll.add_many(items)
                        )
                    elif kind == "remove":
                        coll.remove_many(items)
                        results.extend({"removed": True} for __ in items)
                    else:
                        for ref, values in items:
                            handle = coll._handle(ref)
                            for name, value in values:
                                setattr(handle, name, value)
                            results.append({"updated": len(values)})
        return results

    def _check(self, ops: List[Any]) -> List[Tuple[str, Any, List[Any]]]:
        """Check and convert every op; ``(kind, collection, items)`` runs
        of consecutive ops of one kind on one collection."""
        refs = _RequestRefs(self.manager)
        runs: List[Tuple[str, Any, List[Any]]] = []
        for index, op in enumerate(ops):
            try:
                kind, coll, item = self._check_op(op, refs)
            except (MutationError, TypeError, ValueError, ArithmeticError) as exc:
                raise MutationError(f"op {index}: {exc}") from None
            if runs and runs[-1][0] == kind and runs[-1][1] is coll:
                runs[-1][2].append(item)
            else:
                runs.append((kind, coll, [item]))
        return runs

    def _check_op(self, op: Any, refs: "_RequestRefs") -> Tuple[str, Any, Any]:
        if not isinstance(op, dict):
            raise MutationError("each op must be an object")
        kind = op.get("op")
        coll = self.collections.get(str(op.get("collection")))
        if coll is None:
            raise MutationError(
                f"unknown collection {op.get('collection')!r}; "
                f"known: {sorted(self.collections)}"
            )
        if kind not in ("add", "remove", "update"):
            raise MutationError(f"unknown mutation op {kind!r}")
        if kind == "remove":
            return kind, coll, refs.take(coll, op.get("entry"))
        values = op.get("values") or {}
        if not isinstance(values, dict):
            raise MutationError("values must be an object")
        codec = coll.layout.codec
        if kind == "add":
            return kind, coll, codec.encode(values, refs)
        ref = refs.live(coll, op.get("entry"))
        return kind, coll, (
            ref,
            [(name, codec.field_value(name, v, refs)) for name, v in values.items()],
        )

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Write a checkpoint, roll the log, sweep superseded files."""
        with self._wal.hold():
            old = self._wal
            manifest, new_wal = self._ckpt.checkpoint(old)
            self._closed_records += old.records
            self._closed_bytes += old.bytes_written
            self._closed_fsyncs += old.fsyncs
            self._closed_batches += old.batches
            self._wal = new_wal
            self._sids.clear()
        return manifest

    def maybe_checkpoint(self) -> bool:
        """Checkpoint when the active segment outgrew the threshold."""
        if self._wal.payload_bytes < self.checkpoint_bytes:
            return False
        self.checkpoint()
        return True

    # -- stats / lifecycle ----------------------------------------------

    def stats(self) -> Dict[str, Any]:
        wal = self._wal
        return {
            "data_dir": self.datadir.root,
            "wal_size_bytes": wal.size,
            "wal_last_lsn": wal.last_lsn,
            "wal_records_total": self._closed_records + wal.records,
            "wal_bytes_total": self._closed_bytes + wal.bytes_written,
            "wal_fsyncs_total": self._closed_fsyncs + wal.fsyncs,
            "wal_batches_total": self._closed_batches + wal.batches,
            "fsync_policy": wal.fsync_policy,
            "checkpoints_total": self._ckpt.count,
            "checkpoint_last_duration": self._ckpt.last_duration,
            "checkpoint_last_rows": self._ckpt.last_rows,
            "checkpoint_last_bytes": self._ckpt.last_bytes,
            "snapshot_load_seconds": (
                self.report.load_seconds if self.report else 0.0
            ),
            "recovery_replayed_total": (
                self.report.replayed if self.report else 0
            ),
            "recovery_dropped_tail_bytes": (
                self.report.dropped_tail_bytes if self.report else 0
            ),
        }

    def close(self, checkpoint: bool = False) -> None:
        """Detach hooks, sync and close the log (optionally checkpoint).

        Idempotent: the serving layer may close the store both from the
        shutdown op's teardown thread and from its own cleanup path.
        """
        if self._closed:
            return
        self._closed = True
        if checkpoint:
            self.checkpoint()
        self.detach_mutation_hooks()
        self._wal.close()
        if self._owns_manager:
            self.manager.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DurableStore {self.datadir.root}: "
            f"{len(self.collections)} collections, "
            f"wal at LSN {self._wal.last_lsn}>"
        )
