"""Durability: write-ahead log, epoch-consistent checkpoints, recovery.

The paper's motivating deployment loads "a company's most recent
business data" into collections at startup (section 1); this package
makes that state survive crashes instead of depending on a manually
saved snapshot.  Three layers:

* :mod:`repro.durability.wal` — LSN-stamped, CRC32-framed mutation
  records with group commit and a torn-tail/interior-corruption
  classification contract;
* :mod:`repro.durability.checkpoint` — data-directory layout, the
  atomically-replaced MANIFEST, and epoch-consistent block-image
  checkpoints that truncate the log;
* :mod:`repro.durability.recovery` — checkpoint reload + committed
  log-tail replay through the normal mutation paths.

:class:`~repro.durability.store.DurableStore` is the façade most code
uses (and what ``repro serve --data-dir`` runs on).  See
``docs/durability.md`` for the on-disk formats and the crash matrix.
"""

from repro.durability.checkpoint import (
    CheckpointManager,
    DataDir,
    DataDirError,
    MANIFEST_NAME,
)
from repro.durability.recovery import RecoveryReport, apply_batch, recover
from repro.durability.store import DurableStore, MutationError
from repro.durability.wal import (
    RecoveryError,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "CheckpointManager",
    "DataDir",
    "DataDirError",
    "DurableStore",
    "MANIFEST_NAME",
    "MutationError",
    "RecoveryError",
    "RecoveryReport",
    "WalCorruptionError",
    "WalRecord",
    "WriteAheadLog",
    "apply_batch",
    "recover",
    "scan_wal",
]
