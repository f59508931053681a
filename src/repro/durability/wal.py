"""Write-ahead log: LSN-stamped, CRC32-framed mutation records.

The log is the durability subsystem's source of truth between
checkpoints.  Every mutation of a durable collection appends one record
*before the mutating call returns*; the record carries the collection
name, the object's indirection-table entry (stable for the row's
lifetime, see ``docs/memory_protocol.md``) and the field values, so
:func:`repro.durability.recovery.recover` can re-apply it against a
reloaded checkpoint.

File format (little-endian)::

    header   b"SMCWAL1\\n" | u64 start_lsn
    record   u32 crc32 | u32 payload_len | u64 lsn | u8 kind | payload

The CRC covers ``lsn | kind | payload`` — one contiguous run of the
file, from the header's ``lsn`` field to the frame's end.  Payloads are
compact JSON (the service protocol's tagged encoding, so ``Decimal``
and ``date`` values round-trip exactly), handed to
:meth:`WriteAheadLog.append` as bytes: the durability store writes each
record's text from fixed templates and, for ADD, from the row's raws
(``RowCodec.add_payload``); a payload held as a dict goes through
:func:`encode_payload`.  Record kinds:

======  =======  ====================================================
value   name     payload
======  =======  ====================================================
1       BEGIN    ``{"n": batch_seq}`` — opens a group-commit batch
2       COMMIT   ``{"n": batch_seq}`` — closes it; torn batches are
                 dropped whole at recovery (all-or-nothing)
3       ADD      ``{"c", "s", "e", "v"}`` — collection, schema, entry,
                 field values
4       REMOVE   ``{"c", "e"}``
5       UPDATE   ``{"c", "e", "f", "v"}``
6       INTERN   ``{"i": sid, "t": text}`` — binds a log-local string
                 id; later values reference it as ``{"$s": sid}``
======  =======  ====================================================

String values are *not* logged as string-dictionary codes: dictionary
codes are reassigned densely when a checkpoint reloads, so a code
written before a checkpoint would dangle after it.  INTERN records bind
log-local string ids instead, scoped to one log segment (the table
resets at every checkpoint), which still deduplicates repeated values.

Torn-tail contract (see ``docs/durability.md`` for the crash matrix):

* a final record whose frame runs past EOF, or whose CRC fails *and*
  whose frame ends exactly at EOF, is a torn tail — dropped silently
  (the crash happened mid-append, the mutation was never acknowledged);
* a CRC mismatch or LSN discontinuity with further bytes behind it is
  interior corruption — :class:`WalCorruptionError` naming the LSN;
* a trailing BEGIN without its COMMIT is an unacknowledged batch —
  its records are dropped whole and the file is truncated back to the
  last committed boundary before appends resume.  They are dropped
  after framing and CRC alone: their payloads are never decoded;
* a payload inside the committed prefix whose CRC holds but which is
  not one JSON document is interior corruption, named by its LSN.

Reading a segment is two steps.  :func:`scan_wal` is the framing pass:
it checks every header, the length bound, the CRC and LSN continuity,
applies the rules above and finds the committed boundary, decoding no
payload.  :meth:`WalScan.committed_records` then decodes the committed
payloads, each one once.  A restart runs both on one read of the file
(:func:`repro.durability.recovery.recover`) and hands the boundary it
found to :meth:`WriteAheadLog.resume`, which never reads the file.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SmcError
from repro.sanitizer import hooks as _san
from repro.tagged import log_json

FILE_MAGIC = b"SMCWAL1\n"
_FILE_HEADER = struct.Struct("<Q")  # start_lsn
FILE_HEADER_SIZE = len(FILE_MAGIC) + _FILE_HEADER.size  # 16

_RECORD_HEADER = struct.Struct("<IIQB")  # crc32, payload_len, lsn, kind
RECORD_HEADER_SIZE = _RECORD_HEADER.size  # 17
_CRC_BODY = struct.Struct("<QB")  # lsn, kind (the CRC'd prefix)
#: Where the CRC'd run starts inside a frame: after ``crc32 | payload_len``.
_CRC_FROM = RECORD_HEADER_SIZE - _CRC_BODY.size  # 8

#: Sanity bound on one record's payload (matches the wire protocol's cap).
MAX_RECORD = 64 * 1024 * 1024

#: Decodes one payload; ``decode`` refuses anything after the document.
_DECODER = json.JSONDecoder()

#: One framed record, payload not decoded: ``(lsn, kind, offset, end_offset)``.
Frame = Tuple[int, int, int, int]

BEGIN = 1
COMMIT = 2
ADD = 3
REMOVE = 4
UPDATE = 5
INTERN = 6

KIND_NAMES = {
    BEGIN: "BEGIN",
    COMMIT: "COMMIT",
    ADD: "ADD",
    REMOVE: "REMOVE",
    UPDATE: "UPDATE",
    INTERN: "INTERN",
}

#: fsync policies: every record / every commit boundary / never.
FSYNC_POLICIES = ("always", "commit", "none")

#: Default group-commit buffer capacity: batched frames accumulate in
#: memory up to this many bytes before being pushed to the file in one
#: write.
DEFAULT_BUFFER_CAPACITY = 256 * 1024


def encode_payload(payload: Dict[str, Any]) -> bytes:
    """A record payload given as a dict (a shipped record, a test's), as
    the bytes :meth:`WriteAheadLog.append` takes."""
    return log_json(payload).encode("utf-8")


class RecoveryError(SmcError):
    """Raised when a data directory cannot be recovered."""


class WalCorruptionError(RecoveryError):
    """Interior log corruption (CRC/LSN) that recovery must not skip."""

    def __init__(self, message: str, lsn: int, offset: int) -> None:
        super().__init__(message)
        self.lsn = lsn
        self.offset = offset


@dataclass
class WalRecord:
    """One decoded log record."""

    lsn: int
    kind: int
    payload: Dict[str, Any]
    offset: int
    end_offset: int

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"KIND{self.kind}")


@dataclass
class WalScan:
    """The framing pass over one log segment: frames and boundaries.

    Keeps the bytes it read, so the payloads decode from that one read.
    """

    path: str
    start_lsn: int
    data: bytes = field(repr=False)
    #: Every structurally valid record, in LSN order, payload not decoded.
    frames: List[Frame] = field(default_factory=list)
    #: End offset of the last structurally valid record.
    good_offset: int = FILE_HEADER_SIZE
    #: End offset of the durable prefix — excludes a trailing open batch.
    committed_offset: int = FILE_HEADER_SIZE
    #: Number of leading records inside the committed prefix.
    committed_count: int = 0
    #: Torn bytes discarded past ``good_offset``.
    torn_bytes: int = 0
    #: Records discarded because they sit in a trailing open batch.
    open_batch_records: int = 0

    @property
    def next_lsn(self) -> int:
        """First LSN to append after truncating to the committed prefix."""
        if self.committed_count:
            return self.frames[self.committed_count - 1][0] + 1
        return self.start_lsn

    def committed_records(self) -> List[WalRecord]:
        """The committed prefix, decoded: what recovery replays."""
        return _decode(self.data, self.frames[: self.committed_count], self.path)

    @cached_property
    def records(self) -> List[WalRecord]:
        """Every structurally valid record, decoded, a trailing open batch
        included (``repro log-dump``)."""
        return _decode(self.data, self.frames, self.path)


def scan_wal(path: str) -> WalScan:
    """The framing pass: read a segment once, classify torn tails against
    interior corruption and find the committed boundary.  No payload is
    decoded here (see :meth:`WalScan.committed_records`)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < FILE_HEADER_SIZE or data[: len(FILE_MAGIC)] != FILE_MAGIC:
        raise WalCorruptionError(
            f"{path} is not an SMC write-ahead log", lsn=0, offset=0
        )
    (start_lsn,) = _FILE_HEADER.unpack_from(data, len(FILE_MAGIC))
    frames = list(
        _frames(memoryview(data), FILE_HEADER_SIZE, len(data), start_lsn, path)
    )
    scan = WalScan(path=path, start_lsn=start_lsn, data=data, frames=frames)
    if frames:
        scan.good_offset = frames[-1][3]
    scan.torn_bytes = len(data) - scan.good_offset

    # Committed prefix: everything up to (and including) the last record
    # that is not part of a trailing open batch.
    in_batch = False
    for i, (lsn, kind, offset, end) in enumerate(frames):
        if kind == BEGIN:
            if in_batch:
                raise WalCorruptionError(
                    f"{path}: nested BEGIN at LSN {lsn}", lsn=lsn, offset=offset
                )
            in_batch = True
        elif kind == COMMIT:
            if not in_batch:
                raise WalCorruptionError(
                    f"{path}: COMMIT without BEGIN at LSN {lsn}",
                    lsn=lsn,
                    offset=offset,
                )
            in_batch = False
            scan.committed_count = i + 1
            scan.committed_offset = end
        elif not in_batch:
            scan.committed_count = i + 1
            scan.committed_offset = end
    scan.open_batch_records = len(frames) - scan.committed_count
    return scan


def _frames(view, pos: int, end: int, lsn: int, path: str) -> Iterator[Frame]:
    """Walk the frames of ``view[pos:end]``, the first of which carries *lsn*.

    Yields every frame whose header, length bound, CRC and LSN hold, and
    decodes nothing.  Stops at a torn tail (a frame *end* cuts short, or
    one whose CRC fails and that ends exactly at *end*); raises
    :class:`WalCorruptionError` on interior corruption.  Offsets are
    indexes into *view*.
    """
    unpack, crc32 = _RECORD_HEADER.unpack_from, zlib.crc32
    while pos < end:
        if end - pos < RECORD_HEADER_SIZE:
            return  # torn header at the tail
        crc, length, found, kind = unpack(view, pos)
        stop = pos + RECORD_HEADER_SIZE + length
        if length > MAX_RECORD:
            if stop >= end:
                return  # garbage length in a torn tail write
            raise WalCorruptionError(
                f"{path}: record at offset {pos} (LSN {lsn}) claims "
                f"an impossible payload of {length} bytes",
                lsn=lsn,
                offset=pos,
            )
        if stop > end:
            return  # torn final record: frame runs past EOF
        if crc32(view[pos + _CRC_FROM : stop]) != crc:
            if stop == end:
                return  # torn final record: partially overwritten tail
            raise WalCorruptionError(
                f"{path}: CRC mismatch at LSN {lsn} "
                f"(offset {pos}) with valid records behind it — "
                f"refusing to recover past interior corruption",
                lsn=lsn,
                offset=pos,
            )
        if found != lsn:
            raise WalCorruptionError(
                f"{path}: LSN discontinuity at offset {pos}: "
                f"expected LSN {lsn}, found {found}",
                lsn=lsn,
                offset=pos,
            )
        yield lsn, kind, pos, stop
        pos = stop
        lsn += 1


def _decode(
    data, frames: Sequence[Frame], path: str, base: int = 0
) -> List[WalRecord]:
    """Decode the payloads of *frames* (offsets into *data*), each once.

    A payload that is not exactly one UTF-8 JSON document raises
    :class:`WalCorruptionError` naming its LSN.  *base* is the file
    offset of ``data[0]``.
    """
    view = memoryview(data)
    decode = _DECODER.decode
    records = []
    for lsn, kind, offset, end in frames:
        try:
            payload = decode(str(view[offset + RECORD_HEADER_SIZE : end], "utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise WalCorruptionError(
                f"{path}: undecodable payload at LSN {lsn}: {exc}",
                lsn=lsn,
                offset=base + offset,
            ) from None
        records.append(WalRecord(lsn, kind, payload, base + offset, base + end))
    return records


class WriteAheadLog:
    """Appender over one log segment, with group commit and fsync policy."""

    def __init__(
        self,
        path: str,
        fh,
        *,
        next_lsn: int,
        offset: int,
        start_lsn: int,
        fsync_policy: str = "commit",
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync_policy!r}; "
                f"choose from {FSYNC_POLICIES}"
            )
        self.path = path
        self._fh = fh
        self._lock = threading.RLock()
        self._next_lsn = next_lsn
        self._offset = offset
        self._synced_offset = offset
        self.start_lsn = start_lsn
        # Committed boundary: the last LSN (and its end offset) that is
        # not inside an open batch.  Replication ships only up to here.
        self._committed_lsn = next_lsn - 1
        self._committed_offset = offset
        # Tail-read cursors: lsn -> file offset of that record, one per
        # follower position, so sequential polls avoid head rescans.
        self._cursors: Dict[int, int] = {}
        self.fsync_policy = fsync_policy
        self._batch_depth = 0
        self._batch_seq = 0
        self._dead = False
        self._crashed = False
        # Group-commit buffer: frames appended inside an open batch park
        # here and reach the file in one write at the commit boundary
        # (or when the buffer hits capacity).  ``_offset`` is the logical
        # end including buffered bytes; ``_committed_offset`` only ever
        # advances after a flush, so ``read_tail`` (which reads the file)
        # never chases bytes that are still in memory.  Disabled under
        # the sanitizer, whose crash points need every byte on disk.
        self._buffer = bytearray()
        self.buffer_capacity = DEFAULT_BUFFER_CAPACITY
        # Lifetime counters (the metrics bridge scrapes these).
        self.records = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.batches = 0
        self.buffer_flushes = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, path: str, start_lsn: int = 1, fsync_policy: str = "commit"
    ) -> "WriteAheadLog":
        """Create a fresh segment whose first record will carry *start_lsn*."""
        fh = open(path, "xb", buffering=0)
        try:
            fh.write(FILE_MAGIC + _FILE_HEADER.pack(start_lsn))
            os.fsync(fh.fileno())
        except BaseException:
            fh.close()
            with contextlib.suppress(OSError):
                os.unlink(path)
            raise
        fsync_dir(os.path.dirname(path) or ".")
        return cls(
            path,
            fh,
            next_lsn=start_lsn,
            offset=FILE_HEADER_SIZE,
            start_lsn=start_lsn,
            fsync_policy=fsync_policy,
        )

    @classmethod
    def open(cls, path: str, fsync_policy: str = "commit") -> "WriteAheadLog":
        """Reopen a segment for appending: the framing pass
        (:func:`scan_wal`), then :meth:`resume` at the boundary it found."""
        scan = scan_wal(path)
        return cls.resume(
            path,
            start_lsn=scan.start_lsn,
            next_lsn=scan.next_lsn,
            committed_offset=scan.committed_offset,
            fsync_policy=fsync_policy,
        )

    @classmethod
    def resume(
        cls,
        path: str,
        *,
        start_lsn: int,
        next_lsn: int,
        committed_offset: int,
        fsync_policy: str = "commit",
    ) -> "WriteAheadLog":
        """Append to a segment whose committed boundary is already known.

        A torn tail and any trailing uncommitted batch past
        *committed_offset* are truncated away, so new appends continue
        from the last committed boundary with a contiguous LSN run.  The
        file is not read: *next_lsn* is the LSN after the last committed
        record, as the framing pass that found *committed_offset* saw it.
        """
        fh = open(path, "r+b", buffering=0)
        try:
            if committed_offset < os.fstat(fh.fileno()).st_size:
                fh.truncate(committed_offset)
                os.fsync(fh.fileno())
            fh.seek(committed_offset)
        except BaseException:
            fh.close()
            raise
        return cls(
            path,
            fh,
            next_lsn=next_lsn,
            offset=committed_offset,
            start_lsn=start_lsn,
            fsync_policy=fsync_policy,
        )

    # -- introspection --------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def committed_lsn(self) -> int:
        """Last LSN outside any open batch (the shippable boundary)."""
        return self._committed_lsn

    @property
    def size(self) -> int:
        return self._offset

    @property
    def payload_bytes(self) -> int:
        """Record bytes appended to this segment (excludes the header)."""
        return self._offset - FILE_HEADER_SIZE

    def hold(self):
        """The log's mutation lock (reentrant).

        Durable collections hold it across *apply memory mutation + append
        record* so no mutation can straddle a checkpoint cut; the
        checkpointer holds it for the duration of a checkpoint.
        """
        return self._lock

    # -- appending ------------------------------------------------------

    def append(self, kind: int, body: bytes, sync: Optional[bool] = None) -> int:
        """Append one record whose payload is *body*; returns its LSN.

        *body* is the payload's UTF-8 JSON, written by the caller (a
        dict goes through :func:`encode_payload`).  ``sync`` overrides
        the fsync policy for this record; by default ``always`` syncs
        here, ``commit`` syncs unless a batch is open (the batch's COMMIT
        syncs instead), ``none`` never does.
        """
        with self._lock:
            if self._crashed:
                # Injected-crash model: the process is dead; cleanup
                # paths unwinding through here must not reach the disk.
                return self._next_lsn - 1
            if self._dead:
                raise SmcError(f"write-ahead log {self.path} is closed")
            lsn = self._next_lsn
            size = len(body)
            crc = zlib.crc32(body, zlib.crc32(_CRC_BODY.pack(lsn, kind)))
            header = _RECORD_HEADER.pack(crc, size, lsn, kind)
            if _san.SANITIZER is not None:
                # Split the write so an injected crash between the halves
                # leaves a genuinely torn record on disk.  Buffering is
                # off under the sanitizer, whose crash points must find
                # every previously appended byte already in the file.
                half = size // 2
                self._fh.write(header + body[:half])
                self._offset += RECORD_HEADER_SIZE + half
                _san.SANITIZER.event(
                    "wal.append.mid", wal=self, lsn=lsn, kind=kind
                )
                self._fh.write(body[half:])
                self._offset += size - half
            else:
                buffer = self._buffer
                buffer += header
                buffer += body
                self._offset += RECORD_HEADER_SIZE + size
                if (
                    self._batch_depth > 0
                    and len(buffer) >= self.buffer_capacity
                ):
                    self._flush_buffer()
            self._next_lsn = lsn + 1
            self.records += 1
            self.bytes_written += RECORD_HEADER_SIZE + size
            # COMMIT is appended after batch() drops the depth to zero,
            # so "depth == 0 here" marks exactly the committed boundary.
            # The flush before the boundary advances keeps the invariant
            # that the file always holds every byte below
            # ``_committed_offset`` (read_tail reads the file, not us).
            if self._batch_depth == 0:
                self._flush_buffer()
                self._committed_lsn = lsn
                self._committed_offset = self._offset
            if sync is None:
                sync = self.fsync_policy == "always" or (
                    self.fsync_policy == "commit" and self._batch_depth == 0
                )
            if sync:
                self.sync()
            return lsn

    def _flush_buffer(self) -> None:
        """Push buffered frames to the file in one write (lock held)."""
        if self._buffer:
            self._fh.write(self._buffer)
            self._buffer.clear()
            self.buffer_flushes += 1

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    @contextlib.contextmanager
    def batch(self):
        """Group-commit scope: BEGIN ... records ... COMMIT, one fsync.

        The log's lock is held for the whole batch, so records from other
        threads cannot interleave into it.  BEGIN/COMMIT bound the crash
        atomicity unit: recovery drops a batch whose COMMIT never made it
        to disk.  A Python exception inside the scope still commits the
        records already appended — the in-memory mutations they describe
        have already been applied and cannot be rolled back.
        """
        self._lock.acquire()
        try:
            if self._batch_depth == 0:
                self._batch_seq += 1
                self.batches += 1
                # Open the batch before appending BEGIN, so BEGIN itself
                # defers its fsync to the COMMIT like every batched record.
                self._batch_depth = 1
                self.append(BEGIN, b'{"n":%d}' % self._batch_seq)
            else:
                self._batch_depth += 1
            try:
                yield self
            finally:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    self.append(
                        COMMIT,
                        b'{"n":%d}' % self._batch_seq,
                        sync=self.fsync_policy in ("always", "commit"),
                    )
        finally:
            self._lock.release()

    def append_shipped(
        self, lsn: int, kind: int, body: bytes, sync: bool = False
    ) -> int:
        """Append a record shipped from a primary, keeping its LSN.

        Replication is physical log shipping: a follower re-appends the
        primary's committed records verbatim into its own segment, so
        the two logs stay byte-identical (the shipped payload dict
        re-encodes, through :func:`encode_payload`, to the primary's
        bytes).  The shipped LSN must be the exact next LSN of this
        segment — a gap means the follower lost its position and must
        resync.
        """
        with self._lock:
            if not self._crashed and not self._dead and lsn != self._next_lsn:
                raise SmcError(
                    f"shipped record LSN {lsn} does not follow "
                    f"{self.path} (next LSN is {self._next_lsn})"
                )
            return self.append(kind, body, sync=sync)

    def read_tail(
        self, after_lsn: int, max_bytes: int = 4 * 1024 * 1024
    ) -> Optional[List[WalRecord]]:
        """Committed records with LSN > *after_lsn*, for shipping.

        Returns ``None`` when *after_lsn* predates this segment (the
        records live in a swept-away older segment — the follower must
        resync from the checkpoint).  The result always ends at a batch
        boundary: ``max_bytes`` is a soft cap that only cuts between
        batches, and at least one batch is returned when any is pending,
        so a batch larger than the cap cannot stall a follower.
        """
        with self._lock:
            if self._dead or self._crashed:
                raise SmcError(f"write-ahead log {self.path} is not readable")
            if after_lsn < self.start_lsn - 1:
                return None
            committed = self._committed_lsn
            if after_lsn >= committed:
                return []
            first = after_lsn + 1
            start = self._cursors.get(first)
            if start is None:
                start, first = FILE_HEADER_SIZE, self.start_lsn
            end_offset = self._committed_offset
            with open(self.path, "rb") as fh:
                fh.seek(start)
                data = fh.read(end_offset - start)
        # A cursor sits on a batch boundary; from the segment start, the
        # frames walked up to *after_lsn* tell whether it is inside a batch.
        frames: List[Frame] = []
        depth = 0
        for frame in _frames(memoryview(data), 0, len(data), first, self.path):
            lsn, kind, __, end = frame
            if kind == BEGIN:
                depth = 1
            elif kind == COMMIT:
                depth = 0
            if lsn <= after_lsn:
                continue
            frames.append(frame)
            if depth == 0 and end - frames[0][2] >= max_bytes:
                break
        records = _decode(data, frames, self.path, base=start)
        if records:
            with self._lock:
                self._cursors[records[-1].lsn + 1] = records[-1].end_offset
                self._cursors.pop(after_lsn + 1, None)
                while len(self._cursors) > 16:
                    self._cursors.pop(min(self._cursors))
        return records

    def sync(self) -> None:
        """fsync the segment (fires the ``wal.fsync`` crash point first)."""
        with self._lock:
            if self._crashed:
                return
            self._flush_buffer()
            if _san.SANITIZER is not None:
                _san.SANITIZER.event("wal.fsync", wal=self)
            os.fsync(self._fh.fileno())
            self._synced_offset = self._offset
            self.fsyncs += 1

    def mark_crashed(self) -> None:
        """Injected-crash model: the process died at this instant.

        Every later append/sync/close becomes a silent no-op — a dead
        process writes nothing more, and the exception injected at the
        crash point unwinds through cleanup paths (batch COMMIT, close)
        that must not touch the file behind a torn record.
        """
        with self._lock:
            self._crashed = True

    def simulate_power_loss(self) -> None:
        """Drop unsynced bytes, as a power cut would (fault injection).

        Truncates the file back to the last fsynced offset — everything
        since then only ever reached the page cache — then marks the log
        crashed so the dead store cannot keep appending.
        """
        with self._lock:
            # Buffered frames never reached the page cache at all — a
            # power cut loses them before any unsynced file bytes.
            self._buffer.clear()
            self._fh.truncate(self._synced_offset)
            os.fsync(self._fh.fileno())
            self._crashed = True

    def close(self, sync: bool = True) -> None:
        with self._lock:
            if self._fh.closed:
                return
            if not self._dead and not self._crashed:
                self._flush_buffer()
                if sync:
                    os.fsync(self._fh.fileno())
                    self._synced_offset = self._offset
                    self.fsyncs += 1
            self._fh.close()
            self._dead = True


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
