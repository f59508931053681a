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
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
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

    def read_many(self, addrs) -> List[str]:
        """``[self.read(a) for a in addrs]``, one pass per string block.

        Each block's record lengths come from one gather over a ``uint32``
        view of its buffer (records start on multiples of the 16-byte
        minimum class, so every length word is aligned), and its texts
        are sliced from one ``bytes`` copy of the block.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        texts = [""] * len(addrs)
        at = np.flatnonzero(addrs != NULL_ADDRESS)
        if not at.size:
            return texts
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
            raw = bytes(buf)
            for i, start, n in zip(
                group.tolist(), (offs + _LEN.size).tolist(), lengths.tolist()
            ):
                texts[i] = raw[start : start + n].decode("utf-8")
        return texts

    def read_bytes(self, addr: int) -> bytes:
        """Raw utf-8 payload at *addr* without the decode step."""
        if addr == NULL_ADDRESS:
            return b""
        block = self._space.block_at(addr)
        off = self._space.offset_of(addr)
        (length,) = _LEN.unpack_from(block.buf, off)
        return bytes(block.buf[off + _LEN.size : off + _LEN.size + length])

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


class StringDict:
    """Refcounted per-collection intern table layered on the string heap.

    Each distinct string stored by a collection gets a small dense integer
    *code*; object slots and columnar string columns store the code instead
    of a heap address.  The payload bytes still live in heap records (one per
    distinct value), so the heap's accounting and reclamation discipline is
    unchanged — the dictionary merely deduplicates and exposes the code
    space to the query kernels.

    Code ``0`` is permanently pinned to the empty string so that zero-filled
    columnar storage and ``NULL_ADDRESS`` row templates decode identically.

    Reclamation follows the heap's two-epoch rule: when a code's refcount
    drops to zero its heap record is freed and the code itself parks in a
    limbo queue for two epochs before it may be rebound to a new string.  A
    scan that resolved codes inside an epoch-protected critical section can
    therefore never observe a code remapped under it.  ``version`` ticks on
    every binding change; kernels use it to cache per-dictionary artifacts
    (decode arrays, predicate match sets).

    A dictionary adopted from an image (:meth:`adopt_codes`) is that
    image's two arrays — heap address and refcount per code — plus a count
    of live strings; its texts stay in the heap records.  :meth:`text_of`
    reads one record, :attr:`live_count` is the count and
    :meth:`export_codes` hands the arrays back, so a loaded store that only
    answers queries holds no per-string Python state.  The first operation
    that needs more — :meth:`intern`, :meth:`release`, :meth:`code_of`, a
    match set or a decode array — builds the code lists and the text →
    code map once, under the lock and before any refcount moves (see
    :meth:`_build`); from then on the dictionary is an ordinary one.
    """

    def __init__(self, heap: StringHeap, epochs: "EpochManager") -> None:
        self._heap = heap
        self._epochs = epochs
        self._lock = threading.Lock()
        self._by_text: Dict[str, int] = {"": 0}
        self._texts: List[str] = [""]
        self._addrs: List[int] = [NULL_ADDRESS]
        self._refs: List[int] = [1]
        self._free_codes: List[int] = []
        #: An adopted image's ``(heap address, refcount)`` arrays until the
        #: first operation that needs the structures above builds them;
        #: ``None`` once they are built (they mean nothing before).
        self._image: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._live = 0
        # retired codes awaiting the reuse grace period: (ready_epoch, code)
        self._limbo: Deque[Tuple[int, int]] = deque()
        self.version = 0
        #: Durability hook: called as ``on_bind(code, text)`` after a NEW
        #: binding is created (never for refcount bumps), outside the
        #: dictionary's lock so the observer may take coarser locks (the
        #: WAL lock) without inverting lock order against interning calls
        #: made while those locks are held.
        self.on_bind: Optional[Callable[[int, str], None]] = None
        self._text_array: Optional[np.ndarray] = None
        self._text_array_version = -1
        self._match_cache: Dict[
            Tuple[str, object], Tuple[int, np.ndarray, FrozenSet[int]]
        ] = {}
        # Match-set cache accounting: with a byte budget installed (the
        # memory governor) eviction is bytes-driven; without one the
        # legacy 256-entry cap applies.  Hit/miss counters feed the
        # governor's rebalance and the service metrics.
        self._match_bytes = 0
        self._match_budget: Optional[int] = None
        self.match_hits = 0
        self.match_misses = 0

    # -- the adopted image --------------------------------------------

    def _build(self) -> None:
        """Turn the adopted image into the Python structures (lock held).

        Runs before the first refcount move, never after: the text → code
        map must come from the image's refcounts.  Built from counts a
        release had already dropped, it would miss the retired text, and
        the release would then unbind the pinned empty string instead.
        """
        addrs, refs = self._image
        live = refs > 0
        texts = self._heap.read_many(np.where(live, addrs, NULL_ADDRESS))
        self._addrs = addrs.tolist()
        self._refs = refs.tolist()
        self._by_text = {texts[code]: code for code in np.flatnonzero(live).tolist()}
        # Highest first: pop() hands the lowest free code out next.
        self._free_codes = (np.flatnonzero(~live[1:])[::-1] + 1).tolist()
        self._texts = texts
        self._image = None

    def _ensure_built(self) -> None:
        if self._image is not None:
            with self._lock:
                if self._image is not None:
                    self._build()

    @property
    def built(self) -> bool:
        """Whether the Python structures exist (always, unless adopted
        from an image and not yet needed)."""
        return self._image is None

    # -- write side ----------------------------------------------------

    def _reclaim_limbo(self) -> None:
        epoch = self._epochs.global_epoch
        while self._limbo and self._limbo[0][0] <= epoch:
            __, code = self._limbo.popleft()
            self._free_codes.append(code)

    def intern(self, text: str) -> int:
        """Return the code for *text*, binding a new one if needed.

        Bumps the refcount for every non-empty hit; callers own exactly one
        reference per stored occurrence and must :meth:`release` it.
        """
        with self._lock:
            if self._image is not None:
                self._build()
            code = self._by_text.get(text)
            if code is not None:
                if code:
                    self._refs[code] += 1
                return code
            self._reclaim_limbo()
            addr = self._heap.alloc(text)
            if self._free_codes:
                code = self._free_codes.pop()
                self._texts[code] = text
                self._addrs[code] = addr
                self._refs[code] = 1
            else:
                code = len(self._texts)
                self._texts.append(text)
                self._addrs.append(addr)
                self._refs.append(1)
            self._by_text[text] = code
            self._live += 1
            self.version += 1
        if _san.SANITIZER is not None:
            _san.SANITIZER.event("strdict.bind", code=code, text=text)
        if self.on_bind is not None:
            self.on_bind(code, text)
        return code

    def release(self, code: int) -> None:
        """Drop one reference to *code*; retires the binding at zero."""
        if code <= 0:
            return
        with self._lock:
            if self._image is not None:
                self._build()
            n = self._refs[code] - 1
            self._refs[code] = n
            if n:
                return
            # Keep _texts[code] in place: a racing reader inside the grace
            # period may still decode the retired code.
            del self._by_text[self._texts[code]]
            self._heap.free(self._addrs[code])
            self._addrs[code] = NULL_ADDRESS
            self._limbo.append((self._epochs.global_epoch + 2, code))
            self._live -= 1
            self.version += 1

    # -- read side -----------------------------------------------------

    def text_of(self, code: int) -> str:
        if code <= 0:
            return ""
        image = self._image
        if image is None:
            return self._texts[code]
        # Adopted and unbuilt: no refcount has moved, so a live code's
        # record is the image's.
        addrs, refs = image
        return self._heap.read(int(addrs[code])) if refs[code] > 0 else ""

    def code_of(self, text: str) -> Optional[int]:
        """Code currently bound to *text*, or ``None`` (never interns)."""
        self._ensure_built()
        return self._by_text.get(text)

    def refcount(self, code: int) -> int:
        image = self._image
        return self._refs[code] if image is None else int(image[1][code])

    def text_array(self) -> np.ndarray:
        """Object ndarray mapping code -> text, cached per version."""
        self._ensure_built()
        arr = self._text_array
        if arr is None or self._text_array_version != self.version:
            arr = np.array(self._texts, dtype=object)
            self._text_array = arr
            self._text_array_version = self.version
        return arr

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised gather: int code array -> object array of texts."""
        arr = self.text_array()
        if codes.size and int(codes.max()) >= arr.size:
            # A concurrent intern grew the table mid-scan; take a fresh
            # uncached view (bag semantics admit the new row).
            arr = np.array(self._texts, dtype=object)
        return arr[codes]

    @staticmethod
    def _entry_bytes(codes: np.ndarray, sel_len: int) -> int:
        """Nominal bytes one cached match set holds (array + frozenset)."""
        return int(codes.nbytes) + sel_len * 8 + 96

    def _evict_match_cache(self) -> None:
        """Evict oldest entries until the cache fits its cap."""
        if self._match_budget is not None:
            while self._match_bytes > self._match_budget and self._match_cache:
                old = self._match_cache.pop(next(iter(self._match_cache)))
                self._match_bytes -= self._entry_bytes(old[1], len(old[2]))
        else:
            while len(self._match_cache) > 256:
                old = self._match_cache.pop(next(iter(self._match_cache)))
                self._match_bytes -= self._entry_bytes(old[1], len(old[2]))

    def set_match_budget(self, budget: Optional[int]) -> None:
        """Install a byte ceiling for the match-set cache (governor hook)."""
        self._match_budget = None if budget is None else int(budget)
        self._evict_match_cache()

    @property
    def cache_bytes(self) -> int:
        """Bytes held by the match-set cache plus the decode array."""
        arr = self._text_array
        return self._match_bytes + (int(arr.nbytes) if arr is not None else 0)

    def _match(self, kind: str, arg: object) -> Tuple[np.ndarray, FrozenSet[int]]:
        key = (kind, arg)
        cached = self._match_cache.get(key)
        if cached is not None and cached[0] == self.version:
            self.match_hits += 1
            return cached[1], cached[2]
        self.match_misses += 1
        self._ensure_built()
        texts, refs = self._texts, self._refs
        if kind == "prefix":
            sel = [
                c
                for c in range(len(texts))
                if refs[c] > 0 and texts[c].startswith(arg)
            ]
        elif kind == "contains":
            sel = [c for c in range(len(texts)) if refs[c] > 0 and arg in texts[c]]
        elif kind == "inset":
            sel = sorted(
                code
                for v in arg  # type: ignore[attr-defined]
                if (code := self._by_text.get(v)) is not None
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown match kind {kind!r}")
        codes = np.array(sel, dtype=np.int64)
        result = (codes, frozenset(sel))
        if cached is not None:
            # Stale entry (dictionary version moved on): replace in place.
            self._match_bytes -= self._entry_bytes(cached[1], len(cached[2]))
        self._match_cache[key] = (self.version, *result)
        self._match_bytes += self._entry_bytes(codes, len(result[1]))
        self._evict_match_cache()
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

    def export_codes(self) -> Tuple[Sequence[int], Sequence[int]]:
        """``(heap address, refcount)`` per code; texts stay in the heap.

        A dictionary not built since its adoption hands back the adopted
        arrays themselves: a checkpoint of a collection nobody wrote builds
        nothing.
        """
        with self._lock:
            if self._image is not None:
                return self._image
            return list(self._addrs), list(self._refs)

    def adopt_codes(self, addrs: np.ndarray, refs: np.ndarray) -> None:
        """Rebind a fresh dictionary to the code table of an image.

        Keeps the two arrays as they are and reads no heap record: texts
        stay in the adopted records until an operation needs the Python
        structures (see the class docstring).  A code with no references
        left is free, whether it was free or in its reuse grace period
        when the image was written.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        refs = np.asarray(refs, dtype=np.int64)
        if not len(refs) or len(addrs) != len(refs):
            raise ValueError("not one heap address and refcount per code")
        if refs[0] != 1:  # code 0 stays pinned to ""
            refs = refs.copy()
            refs[0] = 1
        with self._lock:
            self._image = (addrs, refs)
            self._live = int(np.count_nonzero(refs[1:] > 0))
            self._limbo.clear()
            self.version += 1

    # -- stats ---------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Distinct live strings (excluding the pinned empty string)."""
        return self._live
