"""WAL shipping: a primary streams its committed tail to read replicas.

The replication unit is the write-ahead log itself.  The CRC-framed,
LSN-stamped records the durability layer already writes are a complete,
wire-ready serialization of every mutation, so a follower that appends
the shipped frames verbatim into its own segment (``append_shipped``
keeps the primary's LSNs) and hands each committed batch to the same
``recovery.apply_batch`` a restart uses ends up with a data
directory *byte-identical* to the primary's — every single-process
crash guarantee extends to the fleet for free.

Protocol (all over the existing length-prefixed service protocol)::

    follower                          primary
    --------                          -------
    {"op":"replicate",
     "after_lsn": L, "wait": w}  -->  read_tail(L): committed records
                                 <--  {"records":[[lsn,kind,payload]..],
                                       "committed_lsn": C,
                                       "cut_lsn": K, "segment_lsn": S}
    ... apply, advance watermark, poll again from the new watermark ...

A follower whose position predates the active segment (the primary
checkpointed and swept the records away) gets ``resync_required`` and
re-bootstraps from ``{"op":"replicate","resync":true,"offset":o}``,
which returns the current manifest and the checkpoint file one bounded
slice per request; catch-up is then checkpoint reload + tail streaming —
exactly a restart, but over the wire.

LSN watermarks:

* ``applied_lsn`` — last LSN the follower has durably appended *and*
  applied to its in-memory collections; advances only at batch
  boundaries so readers never observe half a batch.
* ``source_committed_lsn`` — the primary's committed LSN as of the
  last successful poll; ``source_committed_lsn - applied_lsn`` is the
  replica's lag in records.

Checkpoint alignment: INTERN string ids are scoped to one log segment,
so a replica cuts its own checkpoint exactly when the shipped
``cut_lsn`` catches up to its applied watermark — segment boundaries
stay aligned across the fleet.  A cloned checkpoint brings the
primary's entry ids along, so shipped records address those rows as
they are; rows the replica adds while applying get local ids of its own
choosing, and the replica's checkpoint image carries that (primary id,
local id) list so shipped records keep resolving after it restarts from
its own checkpoint.

Promotion: ``promote(min_lsn)`` refuses (``StalePromotionError``) when
the replica's watermark is behind ``min_lsn`` — the failover driver
passes the freshest applied LSN in the fleet, so a lagging replica can
never seize the primary role past a fresher peer.  Promotion stops the
stream, re-attaches the mutation hooks and cuts a *local-id* checkpoint
(the promotion barrier): from that point the node's own indirection
entries are authoritative and no mixed-id log segment can exist.
"""

from __future__ import annotations

import base64
import contextlib
import os
import random
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.durability.checkpoint import DataDir
from repro.durability.recovery import EntryMap, apply_batch
from repro.durability.store import DEFAULT_CHECKPOINT_BYTES, DurableStore
from repro.durability.wal import (
    BEGIN,
    COMMIT,
    WalRecord,
    WriteAheadLog,
    encode_payload,
    fsync_dir,
)
from repro.errors import InjectedFaultError, ReplicationError, StalePromotionError
from repro.sanitizer import hooks as _san

#: Epoch-advance cadence while applying (mirrors the primary's churn).
EPOCH_EVERY_BATCHES = 32


def bootstrap_from_resync(
    data_dir: str, fetch: Callable[..., Dict[str, Any]], fsync_policy: str = "commit"
) -> Dict[str, Any]:
    """Materialize a primary's current checkpoint as a local data directory.

    ``fetch(offset, checkpoint)`` returns one resync slice
    (``DurableStore.resync_chunk``).  Writes the shipped checkpoint and
    manifest and creates an empty active segment with the same name (and
    start LSN) as the primary's, so ``DurableStore.open`` recovers it
    like any local directory.  Any previous generation of files is
    cleared first; a checkpoint the primary supersedes mid-transfer is
    fetched again from the start.
    """
    from repro.durability.checkpoint import MANIFEST_NAME

    dd = DataDir(data_dir)
    dd.ensure()
    for name in os.listdir(dd.root):
        if name == MANIFEST_NAME or name.endswith(".tmp") or name.startswith(
            ("wal-", "checkpoint-")
        ):
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(dd.root, name))
    complete = False
    while not complete:
        chunk = fetch(0, None)
        manifest = dict(chunk["manifest"])
        ckpt_path = os.path.join(dd.root, manifest["checkpoint"])
        tmp = ckpt_path + ".tmp"
        with open(tmp, "wb") as fh:
            while not chunk.get("superseded"):
                data = base64.b64decode(chunk["data_b64"])
                fh.write(data)
                complete = fh.tell() >= chunk["size"]
                if complete:
                    fh.flush()
                    os.fsync(fh.fileno())
                    break
                if not data:
                    raise ReplicationError(
                        f"resync of {manifest['checkpoint']} stalled at "
                        f"byte {fh.tell()} of {chunk['size']}"
                    )
                chunk = fetch(fh.tell(), manifest["checkpoint"])
        if not complete:
            os.unlink(tmp)
    os.replace(tmp, ckpt_path)
    wal = WriteAheadLog.create(
        os.path.join(dd.root, manifest["wal"]),
        start_lsn=int(manifest["cut_lsn"]) + 1,
        fsync_policy=fsync_policy,
    )
    wal.close()
    dd.write_manifest(manifest)
    fsync_dir(dd.root)
    return manifest


class ReplicationClient:
    """Follower half of WAL shipping: join, stream, apply, promote.

    Owns the replica's :class:`DurableStore` (mutation hooks detached —
    the shipped frames *are* the log) and a background thread that
    long-polls the primary's ``replicate`` op, appends each shipped
    record to the local segment and applies it through the recovery
    path, advancing the ``applied_lsn`` watermark at batch boundaries.
    """

    def __init__(
        self,
        host: str,
        port: int,
        data_dir: str,
        *,
        fsync_policy: str = "commit",
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        poll_wait: float = 0.5,
        max_bytes: int = 2 * 1024 * 1024,
        down_after: int = 3,
        retry_backoff: float = 0.05,
        name: str = "replica",
        transport_factory: Optional[Callable[[str, int], Any]] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.data_dir = str(data_dir)
        self.name = name
        self.fsync_policy = fsync_policy
        self.checkpoint_bytes = checkpoint_bytes
        self.poll_wait = poll_wait
        self.max_bytes = max_bytes
        self.down_after = down_after
        self.retry_backoff = retry_backoff
        self.transport_factory = transport_factory
        self.store: Optional[DurableStore] = None
        self._transport: Any = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._parked = threading.Event()
        self._cond = threading.Condition()
        self._rng = random.Random(0xC0FFEE ^ (self.port or 1))
        # Watermarks and fleet-visible state (guarded by _cond).
        self.applied_lsn = 0
        self.source_committed_lsn = 0
        self.primary_down = False
        self.needs_resync = False
        self.promoted = False
        self.failure: Optional[BaseException] = None
        # Lifetime counters (the metrics bridge scrapes these).
        self.applied_records = 0
        self.applied_batches = 0
        self.polls = 0
        self.reconnects = 0
        self.resyncs = 0
        self.local_checkpoints = 0
        self.promotions = 0
        # Apply state: shipped entry id -> local entry id, sid -> text.
        self._entry_map = EntryMap()
        self._strings: Dict[int, str] = {}
        self._collections: Dict[str, Any] = {}
        self._batch_buf: Optional[List[WalRecord]] = None
        self._local_cut = 0

    # -- join ------------------------------------------------------------

    def sync(self) -> DurableStore:
        """Join the primary and catch up: checkpoint + tail.

        Opens the local data directory when one exists (replica
        restart), otherwise clones the primary's current checkpoint;
        either way the committed tail is then streamed until the
        watermark reaches the primary's committed LSN.  Returns the live
        store, ready to be served.
        """
        dd = DataDir(self.data_dir)
        if dd.is_initialized():
            self._open_local()
        else:
            self._clone()
        while self._poll_once(join=True):
            pass
        return self.store

    def _open_local(self) -> None:
        store = DurableStore.open(
            self.data_dir,
            fsync_policy=self.fsync_policy,
            checkpoint_bytes=self.checkpoint_bytes,
        )
        # While following, the shipped frames are the log: local
        # mutation hooks would double-log every applied record.
        store.detach_mutation_hooks()
        self.store = store
        self._collections = dict(store.collections)
        self._collections["_manager"] = store.manager
        self._entry_map = store.report.entry_map
        self._strings = dict(store.report.strings)
        self._local_cut = store.cut_lsn
        self._batch_buf = None
        with self._cond:
            self.applied_lsn = store.wal.last_lsn
            self._cond.notify_all()

    def _clone(self) -> None:
        if self.store is not None:
            self.store.close(checkpoint=False)
            self.store = None

        def fetch(offset: int, checkpoint: Optional[str]) -> Dict[str, Any]:
            return self._call(
                {
                    "op": "replicate",
                    "resync": True,
                    "offset": offset,
                    "checkpoint": checkpoint,
                }
            )["resync"]

        bootstrap_from_resync(self.data_dir, fetch, fsync_policy=self.fsync_policy)
        self.resyncs += 1
        self._open_local()

    # -- the streaming loop ----------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name=f"repl-{self.name}", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        failures = 0
        delay = self.retry_backoff
        while not self._stop.is_set():
            if self._paused.is_set():
                self._parked.set()
                self._stop.wait(0.02)
                continue
            self._parked.clear()
            if self.needs_resync:
                # Terminal until the operator restarts the replica: the
                # serving layer holds live references into the current
                # collections, so they cannot be swapped underneath it.
                break
            try:
                self._poll_once()
            except InjectedFaultError as exc:
                # Injected-crash model: this replica process died here.
                self.failure = exc
                break
            except ReplicationError as exc:
                self.failure = exc
                with self._cond:
                    self.needs_resync = True
                    self._cond.notify_all()
                break
            except Exception as exc:  # noqa: BLE001 - transport errors
                failures += 1
                self.reconnects += 1
                self._drop_transport()
                if failures >= self.down_after and not self.primary_down:
                    with self._cond:
                        self.primary_down = True
                        self._cond.notify_all()
                self._stop.wait(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2, 2.0)
                del exc
                continue
            if failures or self.primary_down:
                failures = 0
                delay = self.retry_backoff
                with self._cond:
                    self.primary_down = False
                    self._cond.notify_all()

    def _poll_once(self, join: bool = False) -> bool:
        """One replicate round-trip; returns True when records arrived."""
        reply = self._call(
            {
                "op": "replicate",
                "after_lsn": self.applied_lsn,
                "wait": 0.0 if join else self.poll_wait,
                "max_bytes": self.max_bytes,
            }
        )
        self.polls += 1
        if reply.get("resync_required"):
            if join:
                self._clone()
                return True
            with self._cond:
                self.needs_resync = True
                self._cond.notify_all()
            return False
        # The primary checkpointed: cut our own checkpoint at the same
        # LSN *before* applying records from its new segment, keeping
        # segment boundaries (and INTERN sid scopes) fleet-aligned.
        cut = int(reply.get("cut_lsn", self._local_cut))
        if cut > self._local_cut and self.applied_lsn == cut:
            self._checkpoint_local(cut)
        records = reply.get("records") or []
        if records:
            self._apply_records(records)
        with self._cond:
            committed = int(reply.get("committed_lsn", self.applied_lsn))
            if committed > self.source_committed_lsn:
                self.source_committed_lsn = committed
            self._cond.notify_all()
        return bool(records)

    def _apply_records(self, records: List[Any]) -> None:
        wal = self.store.wal
        mgr = self.store.manager
        for item in records:
            lsn, kind, payload = int(item[0]), int(item[1]), item[2]
            if lsn != wal.next_lsn:
                raise ReplicationError(
                    f"shipped LSN {lsn} does not follow local segment "
                    f"(next is {wal.next_lsn}); resync required"
                )
            if _san.SANITIZER is not None:
                _san.SANITIZER.event("repl.apply", wal=wal, lsn=lsn, kind=kind)
            wal.append_shipped(lsn, kind, encode_payload(payload), sync=False)
            if kind == BEGIN:
                self._batch_buf = []
                continue
            if kind == COMMIT:
                batch, self._batch_buf = self._batch_buf or [], None
                self.applied_batches += 1
            elif self._batch_buf is not None:
                self._batch_buf.append(WalRecord(lsn, kind, payload, 0, 0))
                continue
            else:
                batch = [WalRecord(lsn, kind, payload, 0, 0)]
            self.applied_records += apply_batch(
                self._collections, mgr, self._entry_map, self._strings, batch
            )
            self._advance(lsn)
        if self.fsync_policy != "none":
            wal.sync()
        self._register_new_collections()
        if self.applied_batches and self.applied_batches % EPOCH_EVERY_BATCHES == 0:
            mgr.advance_epoch()

    def _register_new_collections(self) -> None:
        """Adopt collections first created by the shipped tail."""
        if len(self._collections) - 1 == len(self.store.collections):
            return
        for name, coll in self._collections.items():
            if name.startswith("_") or name in self.store.collections:
                continue
            self.store.collections[name] = coll
            self.store._ckpt.collections[name] = coll
            self.store._names[id(coll)] = name

    def _advance(self, lsn: int) -> None:
        with self._cond:
            if lsn > self.applied_lsn:
                self.applied_lsn = lsn
            self._cond.notify_all()

    def _checkpoint_local(self, cut: int) -> None:
        self.store.checkpoint(entry_ids=self._entry_map.pairs())
        # INTERN sids are segment-scoped; the primary's next segment
        # re-interns everything it references.
        self._strings.clear()
        self._local_cut = cut
        self.local_checkpoints += 1

    # -- staleness / status ----------------------------------------------

    def wait_for(self, lsn: int, timeout: float = 2.0) -> bool:
        """Block until the watermark reaches *lsn* (bounded-staleness)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.applied_lsn >= lsn, timeout=timeout
            )

    @property
    def lag_records(self) -> int:
        return max(0, self.source_committed_lsn - self.applied_lsn)

    def status(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "applied_lsn": self.applied_lsn,
                "source_committed_lsn": self.source_committed_lsn,
                "lag_records": self.lag_records,
                "primary_down": self.primary_down,
                "needs_resync": self.needs_resync,
                "promoted": self.promoted,
                "crashed": self.failure is not None,
                "source": f"{self.host}:{self.port}",
                "polls": self.polls,
                "reconnects": self.reconnects,
                "resyncs": self.resyncs,
                "applied_records": self.applied_records,
                "applied_batches": self.applied_batches,
                "local_checkpoints": self.local_checkpoints,
            }

    # -- failover --------------------------------------------------------

    def promote(self, min_lsn: Optional[int] = None) -> int:
        """Become the primary; refuse when behind *min_lsn*.

        The failover driver passes the freshest applied LSN it observed
        across the fleet, so only that freshest replica can win.
        Idempotent once promoted.
        """
        with self._cond:
            if self.promoted:
                return self.applied_lsn
            if min_lsn is not None and self.applied_lsn < int(min_lsn):
                raise StalePromotionError(self.applied_lsn, int(min_lsn))
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=self.poll_wait + 5.0)
        self._drop_transport()
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "repl.promote", wal=self.store.wal, applied_lsn=self.applied_lsn
            )
        self.store.attach_mutation_hooks()
        # Promotion barrier: cut a checkpoint without the shipped-id
        # map.  The shipped-id lineage ends at the cut, so the segment
        # the new primary now writes (in its own entry ids) can never
        # mix shipped and local id spaces.
        self.store.checkpoint()
        self._local_cut = self.store.cut_lsn
        with self._cond:
            self.promoted = True
            self._cond.notify_all()
        self.promotions += 1
        return self.applied_lsn

    def retarget(self, host: str, port: int) -> None:
        """Follow a different primary (post-failover re-pointing)."""
        self.host, self.port = host, int(port)
        self._drop_transport()
        with self._cond:
            self.primary_down = False
            self._cond.notify_all()

    # -- test hooks ------------------------------------------------------

    def pause(self, wait: float = 5.0) -> None:
        """Stop polling (keeps the watermark frozen; drills use this).

        Blocks up to *wait* seconds until the streaming loop is parked,
        so an in-flight poll cannot apply records after pause returns.
        """
        self._paused.set()
        if (
            self._thread is not None
            and self._thread.is_alive()
            and self._thread is not threading.current_thread()
        ):
            self._parked.wait(wait)

    def resume(self) -> None:
        self._paused.clear()

    # -- transport / lifecycle -------------------------------------------

    def _make_transport(self) -> Any:
        if self.transport_factory is not None:
            return self.transport_factory(self.host, self.port)
        from repro.service.client import ServiceClient

        return ServiceClient(
            self.host, self.port, timeout=30.0, open_session=False
        )

    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._transport is None:
            self._transport = self._make_transport()
        return self._transport.call(message)

    def _drop_transport(self) -> None:
        transport, self._transport = self._transport, None
        if transport is not None:
            with contextlib.suppress(Exception):
                transport.close()

    def stop(self) -> None:
        """Stop the streaming loop and drop the connection (store stays)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=self.poll_wait + 5.0)
        self._drop_transport()

    def close(self, close_store: bool = True) -> None:
        self.stop()
        if close_store and self.store is not None and not self.promoted:
            self.store.close(checkpoint=False)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ReplicationClient {self.name} of {self.host}:{self.port} "
            f"at LSN {self.applied_lsn}>"
        )
