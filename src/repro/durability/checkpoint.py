"""Epoch-consistent checkpoints and the data-directory manifest.

A data directory is a self-describing on-disk store::

    MANIFEST                      JSON, atomically replaced (tmp + fsync
                                  + rename + directory fsync)
    checkpoint-<lsn>.smcsnap      SMCSNAP2 block images cut at <lsn>
    wal-<lsn>.log                 the active segment, first LSN <lsn>

The MANIFEST is the commit point: a crash anywhere during a checkpoint
leaves either the old manifest (old checkpoint + old log remain
authoritative; half-written new files are orphans swept later) or the
new one (the new checkpoint + empty new segment are authoritative).

Checkpoints are *epoch-consistent*: the images are written inside an
epoch critical section (``save_collections`` takes it), which pins the
global epoch so no compaction relocation phase can start mid-snapshot,
and under the WAL's mutation lock, so no mutation straddles the cut —
the checkpoint is exactly the state after LSN ``cut_lsn``.  Block images
keep every object's indirection-entry id, so the entry ids log records
carry address the reloaded rows as they are; the manifest records no
per-row state.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.durability.wal import RecoveryError, WriteAheadLog, fsync_dir
from repro.errors import SmcError
from repro.sanitizer import hooks as _san

MANIFEST_NAME = "MANIFEST"
MANIFEST_FORMAT = "SMCDUR1"


class DataDirError(SmcError):
    """Raised for an unusable or already-initialized data directory."""


class DataDir:
    """Path arithmetic and atomic manifest I/O for one data directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def ensure(self) -> None:
        os.makedirs(self.root, exist_ok=True)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def wal_path(self, start_lsn: int) -> str:
        return os.path.join(self.root, f"wal-{start_lsn:016d}.log")

    def checkpoint_path(self, cut_lsn: int) -> str:
        return os.path.join(self.root, f"checkpoint-{cut_lsn:016d}.smcsnap")

    def is_initialized(self) -> bool:
        return os.path.exists(self.manifest_path)

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The current manifest, or ``None`` for an uninitialized dir."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise RecoveryError(
                f"unreadable manifest {self.manifest_path}: {exc}"
            ) from None
        if manifest.get("format") != MANIFEST_FORMAT:
            raise RecoveryError(
                f"{self.manifest_path} is not a {MANIFEST_FORMAT} manifest "
                f"(format={manifest.get('format')!r})"
            )
        for key in ("checkpoint", "wal", "cut_lsn"):
            if key not in manifest:
                raise RecoveryError(
                    f"{self.manifest_path} is missing the {key!r} field"
                )
        return manifest

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Atomically replace the manifest (the checkpoint commit point)."""
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("checkpoint.manifest_rename", path=tmp)
        os.replace(tmp, self.manifest_path)
        fsync_dir(self.root)

    def sweep_orphans(self, keep: List[str]) -> int:
        """Delete files a superseded or crashed checkpoint left behind."""
        keep_names = {MANIFEST_NAME} | {os.path.basename(p) for p in keep}
        removed = 0
        for name in os.listdir(self.root):
            if name in keep_names:
                continue
            if (
                name.startswith(("wal-", "checkpoint-"))
                or name.endswith(".tmp")
            ):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:  # pragma: no cover - concurrent sweep
                    pass
        return removed


class CheckpointManager:
    """Writes checkpoints and rolls the log over at each one."""

    def __init__(self, datadir: DataDir, manager, collections: Dict[str, Any]) -> None:
        self.datadir = datadir
        self.manager = manager
        self.collections = collections
        self.count = 0
        self.last_duration = 0.0
        self.last_rows = 0
        self.last_bytes = 0

    def checkpoint(self, wal: WriteAheadLog):
        """Write the block images and start a fresh segment.

        Must be called with ``wal.hold()`` held.  Returns
        ``(manifest, new_wal)``; the caller swaps its active log.  On any
        failure before the manifest rename the old manifest/log pair
        stays fully authoritative.
        """
        start = time.perf_counter()
        cut_lsn = wal.last_lsn
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("checkpoint.begin", cut_lsn=cut_lsn)
        manifest, new_wal = self._cut(cut_lsn, wal.fsync_policy)
        wal.close()
        self.datadir.sweep_orphans(
            keep=[manifest["checkpoint"], manifest["wal"]]
        )
        self.last_duration = time.perf_counter() - start
        return manifest, new_wal

    def bootstrap(self, fsync_policy: str = "commit"):
        """First checkpoint of a brand-new store (cut at LSN 0)."""
        self.datadir.ensure()
        if self.datadir.is_initialized():
            raise DataDirError(
                f"{self.datadir.root} is already an initialized data "
                f"directory; use open()/recover() instead"
            )
        start = time.perf_counter()
        manifest, wal = self._cut(0, fsync_policy)
        self.last_duration = time.perf_counter() - start
        return manifest, wal

    def _cut(self, cut_lsn: int, fsync_policy: str):
        """Checkpoint file, empty segment behind it, manifest naming both."""
        from repro.io.snapshot import save_collections

        final = self.datadir.checkpoint_path(cut_lsn)
        tmp = final + ".tmp"
        self.last_rows = save_collections(tmp, self.collections, fsync=True)
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("checkpoint.snapshot_rename", path=tmp)
        os.replace(tmp, final)
        fsync_dir(self.datadir.root)
        self.last_bytes = os.path.getsize(final)
        wal = WriteAheadLog.create(
            self.datadir.wal_path(cut_lsn + 1),
            start_lsn=cut_lsn + 1,
            fsync_policy=fsync_policy,
        )
        manifest = {
            "format": MANIFEST_FORMAT,
            "checkpoint": os.path.basename(final),
            "cut_lsn": cut_lsn,
            "wal": os.path.basename(wal.path),
            "rows": self.last_rows,
            # Varstrings are always dictionary codes; recovery refuses
            # any other value.
            "string_dict": True,
        }
        self.datadir.write_manifest(manifest)
        self.count += 1
        return manifest, wal
