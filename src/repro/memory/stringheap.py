"""Object-owned variable-length string storage.

Tabular objects have a fixed size and layout, so variable-length strings
cannot live inside object slots.  The paper (section 2) makes strings part
of the object: their lifetime matches the object's, and the collection
reclaims their memory together with the object's memory slot.

The string heap allocates string records from dedicated string blocks in
the same block-aligned address space as data blocks.  A record is::

    uint32 length | utf-8 bytes ...

rounded up to a power-of-two size class.  Freed records go to per-class
free lists and are recycled immediately — unlike object slots, string
records are only reachable through their owning object, whose own slot is
protected by epoch-based reclamation, so a string freed together with its
object cannot be re-read by a racing thread that passed the object's
incarnation check inside the same grace period *before* the free happened
and re-reads after; we conservatively defer string reuse with the same
two-epoch rule as object slots.
"""

from __future__ import annotations

import struct
import threading
from array import array
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import KIND_STRING
from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.addressing import AddressSpace
    from repro.memory.epoch import EpochManager

_LEN = struct.Struct("<I")

_MIN_CLASS = 16

#: Match sets a :class:`StringDict` keeps per dictionary; past this the
#: oldest is evicted.
MATCH_CACHE_ENTRIES = 256


class StringBlock:
    """A bump-allocated block holding string records.

    All payload: unlike data blocks it has no header, so whoever binds
    one over a foreign buffer has to be told it is a string block.
    """

    __slots__ = ("space", "block_id", "base_address", "segment", "buf", "bump")

    kind = KIND_STRING

    def __init__(
        self,
        space: "AddressSpace",
        block_id: Optional[int] = None,
        segment=None,
        bump: int = 0,
    ) -> None:
        """A fresh block, or (all of *block_id*, *segment*, *bump* given)
        one bound write-free over an existing image at its stored id — a
        snapshot's, or a segment a worker process attached by name."""
        self.space = space
        self.block_id = space.register(self, block_id)
        self.base_address = space.address_of(self.block_id)
        if segment is None:
            segment = space.buffers.create(space.block_size)
        self.segment = segment
        self.buf = self.segment.buf
        self.bump = bump

    def release(self) -> None:
        self.space.unregister(self.block_id)
        self.buf = None
        self.segment.release()


class StringHeap:
    """Size-class string allocator over block-aligned string blocks."""

    def __init__(self, space: "AddressSpace", epochs: "EpochManager") -> None:
        self._space = space
        self._epochs = epochs
        self._blocks: List[StringBlock] = []
        self._current: StringBlock | None = None
        # size class -> free addresses ready for reuse
        self._free: Dict[int, List[int]] = {}
        # freed but possibly still visible: (ready_epoch, size_class, addr)
        self._limbo: Deque[Tuple[int, int, int]] = deque()
        self._max_record = space.block_size
        self.bytes_in_use = 0

    # ------------------------------------------------------------------

    @staticmethod
    def size_class(payload_len: int) -> int:
        """Smallest power-of-two record size holding *payload_len* bytes."""
        needed = payload_len + _LEN.size
        cls = _MIN_CLASS
        while cls < needed:
            cls <<= 1
        return cls

    def _reclaim_limbo(self) -> None:
        epoch = self._epochs.global_epoch
        while self._limbo and self._limbo[0][0] <= epoch:
            __, cls, addr = self._limbo.popleft()
            self._free.setdefault(cls, []).append(addr)

    def _carve(self, cls: int) -> int:
        block = self._current
        if block is None or block.bump + cls > self._space.block_size:
            block = StringBlock(self._space)
            self._blocks.append(block)
            self._current = block
        addr = block.base_address + block.bump
        block.bump += cls
        return addr

    # ------------------------------------------------------------------

    def alloc(self, text: str) -> int:
        """Store *text*; return the address of its record.

        The empty string is stored as ``NULL_ADDRESS`` and costs nothing.
        """
        if not text:
            return NULL_ADDRESS
        data = text.encode("utf-8")
        cls = self.size_class(len(data))
        if cls > self._max_record:
            raise ValueError(
                f"string of {len(data)} bytes exceeds the maximum record "
                f"size {self._max_record}"
            )
        self._reclaim_limbo()
        free = self._free.get(cls)
        addr = free.pop() if free else self._carve(cls)
        block = self._space.block_at(addr)
        off = self._space.offset_of(addr)
        _LEN.pack_into(block.buf, off, len(data))
        block.buf[off + _LEN.size : off + _LEN.size + len(data)] = data
        self.bytes_in_use += cls
        return addr

    def read(self, addr: int) -> str:
        if addr == NULL_ADDRESS:
            return ""
        block = self._space.block_at(addr)
        off = self._space.offset_of(addr)
        (length,) = _LEN.unpack_from(block.buf, off)
        return bytes(block.buf[off + _LEN.size : off + _LEN.size + length]).decode(
            "utf-8"
        )

    def _records(self, addrs):
        """Per string block that *addrs* touch: ``(positions, starts,
        lengths, raw)`` — the positions in *addrs* of its records (an
        array), each record's payload start and length in *raw* (int64
        memoryviews: iterating them makes one Python int at a time, not a
        list of them), and *raw* itself, one ``bytes`` copy of the block
        from its first touched record to the end of its last.
        ``NULL_ADDRESS`` entries are skipped.

        Each block's record lengths come from one gather over a ``uint32``
        view of its buffer (records start on multiples of the 16-byte
        minimum class, so every length word is aligned).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        at = np.flatnonzero(addrs != NULL_ADDRESS)
        if not at.size:
            return
        shift = self._space.block_shift
        ids = addrs[at] >> shift
        order = np.argsort(ids, kind="stable")
        at, ids = at[order], ids[order]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        ends = np.append(starts[1:], len(ids))
        mask = self._space.block_size - 1
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            buf = self._space.block_at(int(ids[lo]) << shift).buf
            group = at[lo:hi]
            offs = addrs[group] & mask
            lengths = np.frombuffer(buf, "<u4")[offs >> 2]
            first = int(offs.min())
            end = int((offs + _LEN.size + lengths).max())
            raw = bytes(memoryview(buf)[first:end])
            yield (
                group,
                memoryview(offs + (_LEN.size - first)),
                memoryview(lengths.astype(np.int64)),
                raw,
            )

    def read_many(self, addrs) -> List[str]:
        """``[self.read(a) for a in addrs]``, one pass per string block."""
        texts = [""] * len(addrs)
        for group, starts, lengths, raw in self._records(addrs):
            for i, start, n in zip(group.tolist(), starts, lengths):
                texts[i] = raw[start : start + n].decode("utf-8")
        return texts

    def hash_many(self, addrs) -> np.ndarray:
        """``hash()`` of each record's utf-8 payload, as int64, one pass
        per string block (``NULL_ADDRESS``: ``hash(b"")``)."""
        hashes = np.full(len(addrs), hash(b""), dtype=np.int64)
        for group, starts, lengths, raw in self._records(addrs):
            hashes[group] = np.fromiter(
                (hash(raw[start : start + n]) for start, n in zip(starts, lengths)),
                dtype=np.int64,
                count=len(group),
            )
        return hashes

    def holds(self, addr: int, data: bytes) -> bool:
        """Whether the record at *addr* has payload *data* (no copy of
        the record is kept)."""
        if addr == NULL_ADDRESS:
            return not data
        buf = self._space.block_at(addr).buf
        off = self._space.offset_of(addr)
        n = len(data)
        # One slice compare checks the length word and the payload.
        return bytes(buf[off : off + _LEN.size + n]) == _LEN.pack(n) + data

    def free(self, addr: int) -> None:
        """Schedule the record at *addr* for reuse (two-epoch delay)."""
        if addr == NULL_ADDRESS:
            return
        block = self._space.block_at(addr)
        off = self._space.offset_of(addr)
        (length,) = _LEN.unpack_from(block.buf, off)
        cls = self.size_class(length)
        self.bytes_in_use -= cls
        self._limbo.append((self._epochs.global_epoch + 2, cls, addr))

    # ------------------------------------------------------------------
    # Snapshot images (repro.io.snapshot)
    # ------------------------------------------------------------------

    def blocks(self) -> List[StringBlock]:
        return list(self._blocks)

    def free_records(self) -> List[Tuple[int, int]]:
        """``(size class, address)`` of every reusable record, by class.

        Records still in their reuse grace period are included: the
        grace protects readers of *this* process, and an image is only
        ever adopted by another one.
        """
        by_class = {cls: list(addrs) for cls, addrs in list(self._free.items())}
        for __, cls, addr in list(self._limbo):
            by_class.setdefault(cls, []).append(addr)
        return [(cls, addr) for cls, addrs in by_class.items() for addr in addrs]

    def adopt_block(self, block_id: int, segment, bump: int) -> StringBlock:
        """Map a string block image at its stored id; the last block
        adopted carries on as the bump-allocation target."""
        block = StringBlock(self._space, block_id, segment, bump)
        self._blocks.append(block)
        self._current = block
        return block

    def adopt_free_records(self, records, bytes_in_use: int) -> None:
        for cls, addr in records:
            self._free.setdefault(cls, []).append(addr)
        self.bytes_in_use = bytes_in_use

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def total_bytes(self) -> int:
        return len(self._blocks) * self._space.block_size

    def close(self) -> None:
        for block in self._blocks:
            block.release()
        self._blocks.clear()
        self._current = None
        self._free.clear()
        self._limbo.clear()
        self.bytes_in_use = 0


#: Initial per-code array and index capacity of a fresh dictionary.
_MIN_CODES = 16


def _int64s(arr: np.ndarray) -> memoryview:
    """An ``int64`` array as a ``"q"`` memoryview over the same memory:
    indexing it reads and writes Python ints, with no NumPy scalar."""
    return memoryview(arr).cast("B").cast("q")


def _grown(view: memoryview, size: int) -> memoryview:
    """A zeroed int64 buffer of *size* entries starting with *view*'s."""
    arr = np.zeros(size, dtype=np.int64)
    arr[: len(view)] = np.frombuffer(view, dtype=np.int64)
    return _int64s(arr)


def _index_table(hashes: np.ndarray, codes: np.ndarray, slots: int) -> memoryview:
    """An open-addressed (linear probing) table of ``slots`` (hash, code)
    pairs holding *codes* under their *hashes*; code 0 marks an empty slot.

    Filled in vector rounds: every entry not yet placed tries its next
    slot, and of those trying the same empty slot one takes it.  An entry
    only moves on from a slot that is taken, so no empty slot lies
    between any entry and its home slot, as single inserts would leave it.
    """
    table = np.zeros((slots, 2), dtype=np.int64)
    pos = hashes % slots
    pending = np.arange(len(codes))
    while pending.size:
        at = pos[pending]
        trying = table[at, 1] == 0
        table[at[trying], 1] = codes[pending[trying]]
        # One of the entries trying each empty slot took it.
        placed = trying & (table[at, 1] == codes[pending])
        table[at[placed], 0] = hashes[pending[placed]]
        pending = pending[~placed]
        pos[pending] = (pos[pending] + 1) % slots
    return _int64s(table.reshape(-1))


def _slots_for(entries: int) -> int:
    """Index size for *entries*: a load factor of 4/9, so an eighth more
    entries fit before the one-half bound doubles the table."""
    return max(_MIN_CODES, 2 * entries + entries // 4)


class StringDict:
    """Refcounted per-collection intern table layered on the string heap.

    Each distinct string stored by a collection gets a small dense integer
    *code*; object slots and columnar string columns store the code instead
    of a heap address.  The payload bytes live in heap records (one per
    distinct value), so the heap's accounting and reclamation discipline is
    unchanged — the dictionary merely deduplicates and exposes the code
    space to the query kernels.

    Code ``0`` is permanently pinned to the empty string so that zero-filled
    columnar storage and ``NULL_ADDRESS`` row templates decode identically.

    The dictionary holds no per-string Python object.  Per code it keeps
    three int64 arrays — heap address, refcount and a hash of the utf-8
    bytes — grown by doubling; free codes and the code limbo are int
    arrays too.  text → code is an open-addressed table of (hash, code)
    int64 pairs at load factor at most one half; a probe confirms a hash
    hit against the record's bytes (:meth:`StringHeap.holds`).  Every
    read goes to the records: :meth:`text_of` reads one, and
    :meth:`decode_array` and the prefix and contains match sets read the
    codes they need through :meth:`StringHeap.read_many`.

    Reclamation follows the heap's two-epoch rule: when a code's refcount
    drops to zero its heap record is freed and the code itself parks in a
    limbo queue for two epochs before it may be rebound to a new string.
    The code keeps its heap address until it leaves the limbo, and the
    record sits in the heap's own limbo over the same window, so a scan
    that resolved codes inside an epoch-protected critical section can
    neither observe a code remapped under it nor lose the retired text.
    ``version`` ticks on every binding change; kernels use it to cache
    per-dictionary artifacts (predicate match sets).

    A dictionary adopted from an image (:meth:`adopt_codes`) is that
    image's address and refcount arrays, used as they are, plus a count
    of live strings; a loaded store that only answers queries reads no
    record to build anything.  The first :meth:`intern`, :meth:`release`
    or :meth:`code_of` copies the arrays, hashes the live records block
    by block and builds the index, once, under the lock and before any
    refcount moves (see :meth:`_build_index`).  A durable store builds
    every index up front (:meth:`build_index`), so its first write does
    not wait for them.
    """

    def __init__(self, heap: StringHeap, epochs: "EpochManager") -> None:
        self._heap = heap
        self._epochs = epochs
        self._lock = threading.Lock()
        # Per code: heap address, refcount and payload hash; ``_n`` codes
        # are in use (free ones included), the rest is spare capacity.
        self._addrs = _int64s(np.zeros(_MIN_CODES, dtype=np.int64))
        self._refs = _int64s(np.zeros(_MIN_CODES, dtype=np.int64))
        self._addrs[0] = NULL_ADDRESS
        self._refs[0] = 1
        self._hashes: Optional[memoryview] = _int64s(
            np.zeros(_MIN_CODES, dtype=np.int64)
        )
        self._n = 1
        #: The (hash, code) lookup table, flat; ``None`` for an adopted
        #: dictionary no operation has needed it for yet.
        self._index: Optional[memoryview] = _int64s(
            np.zeros(2 * _MIN_CODES, dtype=np.int64)
        )
        # Highest first: pop() hands the lowest free code out next.
        self._free_codes = array("q")
        # Retired codes awaiting the reuse grace period: flat
        # (ready_epoch, code) pairs, oldest first.
        self._limbo = array("q")
        self._live = 0
        self.version = 0
        #: Durability hook: called as ``on_bind(code, text)`` after a NEW
        #: binding is created (never for refcount bumps), outside the
        #: dictionary's lock so the observer may take coarser locks (the
        #: WAL lock) without inverting lock order against interning calls
        #: made while those locks are held.
        self.on_bind: Optional[Callable[[int, str], None]] = None
        #: Match sets by ``(kind, arg)``, oldest first; at most
        #: :data:`MATCH_CACHE_ENTRIES` of them.
        self._match_cache: Dict[
            Tuple[str, object], Tuple[int, np.ndarray, FrozenSet[int]]
        ] = {}

    # -- the lookup index (lock held) ----------------------------------

    def _build_index(self) -> None:
        """Make an adopted dictionary writable and indexed (lock held).

        Runs before the first refcount move, never after: the index must
        come from the image's refcounts.  Built from counts a release had
        already dropped, it would miss the retired text, and the release
        would find nothing to unindex.  The live records are hashed block
        by block (:meth:`StringHeap.hash_many`): no text object is made
        for more than one record at a time.
        """
        n = self._n
        addrs = np.frombuffer(self._addrs, dtype=np.int64, count=n)
        refs = np.frombuffer(self._refs, dtype=np.int64, count=n)
        live = np.flatnonzero(refs[1:] > 0) + 1
        # Room to double in: the first new code would copy them again.
        hashes = np.zeros(max(2 * n, _MIN_CODES), dtype=np.int64)
        hashes[live] = self._heap.hash_many(addrs[live])
        self._addrs = _grown(self._addrs[:n], len(hashes))
        self._refs = _grown(self._refs[:n], len(hashes))
        self._hashes = _int64s(hashes)
        free = np.flatnonzero(refs[1:] <= 0)[::-1] + 1
        self._free_codes = array("q", free.astype(np.int64).tobytes())
        self._index = _index_table(hashes[live], live, _slots_for(len(live)))

    def _ensure_index(self) -> None:
        if self._index is None:
            self._build_index()

    def build_index(self) -> None:
        """Build the lookup index of an adopted dictionary now, not at
        its first write or lookup (a no-op once it exists)."""
        with self._lock:
            self._ensure_index()

    @property
    def indexed(self) -> bool:
        """Whether the lookup index exists (always, unless adopted from
        an image and not yet needed)."""
        return self._index is not None

    def _probe(self, data: bytes, h: int) -> int:
        """Code bound to payload *data* of hash *h*, or 0 (lock held)."""
        index, addrs, heap = self._index, self._addrs, self._heap
        slots = len(index) // 2
        i = h % slots
        while True:
            code = index[2 * i + 1]
            if not code:
                return 0
            if index[2 * i] == h and heap.holds(addrs[code], data):
                return code
            i = (i + 1) % slots

    def _insert(self, h: int, code: int) -> None:
        """Index *code* under hash *h*, growing the table to keep its
        load factor at most one half (lock held)."""
        index = self._index
        slots = len(index) // 2
        if 2 * (self._live + 1) > slots:
            pairs = np.frombuffer(index, dtype=np.int64).reshape(-1, 2)
            pairs = pairs[pairs[:, 1] != 0]
            index = _index_table(pairs[:, 0], pairs[:, 1], 2 * slots)
            self._index = index
            slots *= 2
        i = h % slots
        while index[2 * i + 1]:
            i = (i + 1) % slots
        index[2 * i] = h
        index[2 * i + 1] = code

    def _unindex(self, code: int) -> None:
        """Remove *code* from the index by backward-shift deletion: each
        entry after the hole that may move back into it does (lock held)."""
        index = self._index
        slots = len(index) // 2
        i = self._hashes[code] % slots
        while index[2 * i + 1] != code:
            i = (i + 1) % slots
        j = i
        while True:
            j = (j + 1) % slots
            moved = index[2 * j + 1]
            if not moved:
                break
            home = index[2 * j] % slots
            # The entry at j stays if its home lies cyclically in (i, j].
            if (i < home <= j) if i <= j else (i < home or home <= j):
                continue
            index[2 * i] = index[2 * j]
            index[2 * i + 1] = moved
            i = j
        index[2 * i + 1] = 0

    # -- write side ----------------------------------------------------

    def _reclaim_limbo(self) -> None:
        """Free the codes whose grace period ended; their heap records
        were freed with them and are no longer theirs."""
        epoch = self._epochs.global_epoch
        limbo = self._limbo
        ready = 0
        while ready < len(limbo) and limbo[ready] <= epoch:
            code = limbo[ready + 1]
            self._addrs[code] = NULL_ADDRESS
            self._free_codes.append(code)
            ready += 2
        del limbo[:ready]

    def _new_code(self) -> int:
        if self._free_codes:
            return self._free_codes.pop()
        code = self._n
        if code == len(self._refs):
            size = 2 * code
            self._addrs = _grown(self._addrs, size)
            self._refs = _grown(self._refs, size)
            self._hashes = _grown(self._hashes, size)
        self._n = code + 1
        return code

    def intern(self, text: str) -> int:
        """Return the code for *text*, binding a new one if needed.

        Bumps the refcount for every non-empty hit; callers own exactly one
        reference per stored occurrence and must :meth:`release` it.
        """
        data = text.encode("utf-8")
        h = hash(data)
        with self._lock:
            self._ensure_index()
            if not data:
                return 0
            code = self._probe(data, h)
            if code:
                self._refs[code] += 1
                return code
            self._reclaim_limbo()
            addr = self._heap.alloc(text)
            code = self._new_code()
            self._addrs[code] = addr
            self._refs[code] = 1
            self._hashes[code] = h
            self._insert(h, code)
            self._live += 1
            self.version += 1
            epoch = self._epochs.global_epoch
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "strdict.bind", strdict=self, code=code, text=text, epoch=epoch
            )
        if self.on_bind is not None:
            self.on_bind(code, text)
        return code

    def release(self, code: int) -> None:
        """Drop one reference to *code*; retires the binding at zero."""
        if code <= 0:
            return
        with self._lock:
            self._ensure_index()
            n = self._refs[code] - 1
            self._refs[code] = n
            if n:
                return
            # The epoch is read before the heap free reads its own, so
            # the code leaves its limbo no later than the record leaves
            # the heap's; until then the code keeps its address and a
            # reader inside the grace period still decodes the text.
            epoch = self._epochs.global_epoch
            self._unindex(code)
            self._heap.free(self._addrs[code])
            self._limbo.extend((epoch + 2, code))
            self._live -= 1
            self.version += 1
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("strdict.retire", strdict=self, code=code, epoch=epoch)

    # -- read side -----------------------------------------------------

    def text_of(self, code: int) -> str:
        if code <= 0:
            return ""
        return self._heap.read(self._addrs[code])

    def code_of(self, text: str) -> Optional[int]:
        """Code currently bound to *text*, or ``None`` (never interns)."""
        data = text.encode("utf-8")
        with self._lock:
            self._ensure_index()
            if not data:
                return 0
            return self._probe(data, hash(data)) or None

    def refcount(self, code: int) -> int:
        return self._refs[code]

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised gather: int code array -> object array of texts.

        Reads each distinct code's record once, inside a critical
        section: a caller outside one (a result decoded after its scan)
        still never reads a record the heap has handed to another text.
        """
        codes = np.asarray(codes)
        distinct, inverse = np.unique(codes, return_inverse=True)
        texts = np.empty(len(distinct), dtype=object)
        with self._epochs.critical_section():
            addrs = np.frombuffer(self._addrs, dtype=np.int64)[distinct]
            texts[:] = self._heap.read_many(addrs)
        return texts[inverse.reshape(codes.shape)]

    def _match(self, kind: str, arg: object) -> Tuple[np.ndarray, FrozenSet[int]]:
        key = (kind, arg)
        cached = self._match_cache.get(key)
        if cached is not None and cached[0] == self.version:
            return cached[1], cached[2]
        if kind == "inset":
            version = self.version
            sel = sorted(
                code
                for v in arg  # type: ignore[attr-defined]
                if (code := self.code_of(v)) is not None
            )
            codes = np.array(sel, dtype=np.int64)
        elif kind in ("prefix", "contains"):
            # As in decode_array: the live records stay theirs until the
            # section ends.
            with self._epochs.critical_section():
                with self._lock:
                    version = self.version
                    n = self._n
                    refs = np.frombuffer(self._refs, dtype=np.int64, count=n)
                    live = np.flatnonzero(refs > 0)
                    addrs = np.frombuffer(self._addrs, dtype=np.int64, count=n)[live]
                texts = self._heap.read_many(addrs)
            if kind == "prefix":
                keep = [text.startswith(arg) for text in texts]
            else:
                keep = [arg in text for text in texts]
            codes = live[np.array(keep, dtype=bool)] if keep else live
            sel = codes.tolist()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown match kind {kind!r}")
        result = (codes, frozenset(sel))
        # A stale entry (the dictionary version moved on) is replaced in
        # place; a new one evicts the oldest past the cap.
        self._match_cache[key] = (version, *result)
        if len(self._match_cache) > MATCH_CACHE_ENTRIES:
            self._match_cache.pop(next(iter(self._match_cache)), None)
        return result

    def match_codes(self, kind: str, arg: object) -> np.ndarray:
        """Codes of live distinct values matching a string predicate.

        *kind* is ``"prefix"``/``"contains"`` (arg: needle string) or
        ``"inset"`` (arg: frozenset of probe strings).  The predicate is
        evaluated once over the distinct values and cached per dictionary
        version, so repeated scans reduce to an ``np.isin`` over the codes.
        """
        return self._match(kind, arg)[0]

    def match_set(self, kind: str, arg: object) -> FrozenSet[int]:
        """Frozenset flavor of :meth:`match_codes` for scalar kernels."""
        return self._match(kind, arg)[1]

    # -- snapshot images (repro.io.snapshot) ---------------------------

    def export_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(heap address, refcount)`` per code; texts stay in the heap.

        A code in its reuse grace period exports as free, with no
        address.  A dictionary not indexed since its adoption hands back
        the adopted arrays themselves: a checkpoint of a collection
        nobody wrote copies nothing.
        """
        with self._lock:
            n = self._n
            addrs = np.frombuffer(self._addrs, dtype=np.int64, count=n)
            refs = np.frombuffer(self._refs, dtype=np.int64, count=n)
            if self._index is None:
                return addrs, refs
            return np.where(refs > 0, addrs, NULL_ADDRESS), refs.copy()

    def adopt_codes(self, addrs: np.ndarray, refs: np.ndarray) -> None:
        """Rebind a fresh dictionary to the code table of an image.

        Keeps the two arrays as they are and reads no heap record: texts
        stay in the adopted records until an operation needs the index
        (see the class docstring).  A code with no references left is
        free, whether it was free or in its reuse grace period when the
        image was written.
        """
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        refs = np.ascontiguousarray(refs, dtype=np.int64)
        if not len(refs) or len(addrs) != len(refs):
            raise ValueError("not one heap address and refcount per code")
        if refs[0] != 1:  # code 0 stays pinned to ""
            refs = refs.copy()
            refs[0] = 1
        if np.any(addrs[refs <= 0] != NULL_ADDRESS):  # a free code has no record
            addrs = np.where(refs > 0, addrs, NULL_ADDRESS)
        with self._lock:
            self._addrs, self._refs = _int64s(addrs), _int64s(refs)
            self._hashes = self._index = None
            self._n = len(refs)
            self._live = int(np.count_nonzero(refs[1:] > 0))
            self._free_codes = array("q")
            self._limbo = array("q")
            self.version += 1

    # -- stats ---------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Distinct live strings (excluding the pinned empty string)."""
        return self._live
