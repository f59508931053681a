"""Navigation columns: one context's columns indexed by entry.

A compiled query dereferences a reference through the indirection table
(paper sections 2 and 4).  Done block by block, every hop repeats the
whole resolution: the entry's address and incarnation, the address's
block and slot, then the field.  But the entry is the object's identity:
it stays put when the object is relocated, and so does every field
value.  So for a context that has not changed, a copy of one column
ordered by entry answers a hop with a single gather.

A :class:`NavSnapshot` holds one context version's live rows ordered by
entry, and the columns built over them so far:

* a *value* column is ``block.column(name)`` of every live row, at the
  row's position;
* a *hop* column of a reference field holds, per live row, the position
  of its target in the target context's snapshot — or ``-1`` (the
  sentinel) where the word is null, fails the incarnation check or names
  no row of that snapshot.  Building never raises: a scan that reaches a
  sentinel takes the address path, and its error.

A snapshot is stamped with the context's mutation version read before
the pass that built it; a pass that saw the version move is thrown away.
A snapshot whose stamp is not the context's version is stale and is
never read.  Arrays are sized by live rows: when the live entries form
one contiguous run (a loaded or bulk-filled context) an entry's position
is ``entry - lo``; otherwise the sorted entries are kept and searched.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import INC_MASK

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.context import MemoryContext

#: Reasons a scanned block navigated through the address path instead.
FALLBACK_REASONS = ("stale", "sentinel", "direct", "worker")


class NavSnapshot:
    """One version of a context's live rows, ordered by entry."""

    __slots__ = ("stamp", "size", "lo", "entries", "values", "hops")

    def __init__(self, stamp: int, entries: np.ndarray) -> None:
        """Over *entries*: the live entries, sorted, each once."""
        self.stamp = stamp
        self.size = size = int(entries.size)
        #: the first entry when the live entries are one contiguous run
        self.lo: Optional[int] = None
        #: the sorted live entries otherwise (None while contiguous)
        self.entries: Optional[np.ndarray] = entries
        if int(entries[-1]) - int(entries[0]) + 1 == size:
            self.lo = int(entries[0])
            self.entries = None
        #: column name -> values at the row positions
        self.values: Dict[str, np.ndarray] = {}
        #: reference field -> (target snapshot, int32 target positions)
        self.hops: Dict[str, Tuple["NavSnapshot", np.ndarray]] = {}

    def positions(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, found)`` of entry *words*; a word that names no
        row of this snapshot has ``found`` False and a meaningless
        position."""
        if self.entries is None:
            pos = words - self.lo
            found = (pos >= 0) & (pos < self.size)
            return np.where(found, pos, 0), found
        pos = np.searchsorted(self.entries, words)
        np.minimum(pos, self.size - 1, out=pos)
        return pos, self.entries[pos] == words

    def locate(self, words: np.ndarray) -> Optional[np.ndarray]:
        """Positions of entry *words*, or None unless all name a row."""
        if self.entries is None:
            pos = words - self.lo
            if pos.size and (int(pos.min()) < 0 or int(pos.max()) >= self.size):
                return None
            return pos
        pos, found = self.positions(words)
        return pos if found.all() else None

    @property
    def nbytes(self) -> int:
        arrays = list(self.values.values()) + [hop for __, hop in self.hops.values()]
        if self.entries is not None:
            arrays.append(self.entries)
        return sum(arr.nbytes for arr in arrays)


class NavColumns:
    """A context's navigation columns: its current snapshot, and counts."""

    def __init__(self, context: "MemoryContext") -> None:
        self.context = context
        self.snapshot: Optional[NavSnapshot] = None
        #: passes over the context's blocks that produced columns
        self.builds = 0
        #: scanned blocks of this context that navigated through the
        #: address path, by reason (:data:`FALLBACK_REASONS`)
        self.fallbacks: Counter = Counter()

    def current(self) -> Optional[NavSnapshot]:
        """The snapshot, if its stamp is still the context's version."""
        snap = self.snapshot
        if snap is not None and snap.stamp == self.context.version:
            return snap
        return None

    def build(
        self, names: Iterable[str], words: Iterable[str] = ()
    ) -> Tuple[Optional[NavSnapshot], Dict[str, Tuple[np.ndarray, np.ndarray]]]:
        """Add value columns *names* to the current snapshot, starting a
        new one if it is stale, in one pass over the context's blocks.

        Returns ``(snapshot, raw)``: *raw* maps each reference field of
        *words* to its ``(word, incarnation)`` columns at the snapshot's
        positions, for :meth:`hop`.  ``(None, {})`` if the context's
        version moved during the pass, or it holds no rows.  Must run
        inside the caller's critical section: the pass reads the blocks
        in place.
        """
        context = self.context
        stamp = context.version
        snap = self.current()
        if snap is None:
            # A stale snapshot is never read again: let it go before the
            # pass allocates its successor.
            self.snapshot = None
        names = [n for n in names if snap is None or n not in snap.values]
        words = list(words)
        wanted = names + [f + suffix for f in words for suffix in ("__w", "__i")]
        runs = [(block, block.valid_slots()) for block in context.blocks()]
        runs = [(block, idx) for block, idx in runs if idx.size]
        if not runs:
            return None, {}
        # A pass that raced a relocation may see a row twice (in its old
        # and its new slot) or not at all: it is kept only if it saw
        # each live row exactly once.
        if snap is None:
            entries = np.sort(
                np.concatenate([block.backptrs[idx] for block, idx in runs])
            )
            if entries.size != context.live_count or (
                entries[1:] == entries[:-1]
            ).any():
                return None, {}
            snap = NavSnapshot(stamp, entries)
        # Each block's values go straight to their positions: no
        # concatenated copy of a column is ever made.
        placed = {
            name: np.empty(snap.size, runs[0][0].column(name).dtype)
            for name in wanted
        }
        covered = np.zeros(snap.size, dtype=bool)
        seen = 0
        for block, idx in runs:
            pos = snap.locate(block.backptrs[idx])
            if pos is None:
                return None, {}
            seen += idx.size
            covered[pos] = True
            for name, out in placed.items():
                out[pos] = block.column(name)[idx]
        if context.version != stamp or seen != snap.size or not covered.all():
            return None, {}
        for name in names:
            snap.values[name] = placed[name]
        cur = self.snapshot
        if cur is None or cur.stamp != stamp:
            self.snapshot = snap
        elif cur is not snap:
            # Another reader built this version first: keep one.
            cur.values.update(snap.values)
            snap = cur
        self.builds += 1
        raw = {f: (placed[f + "__w"], placed[f + "__i"]) for f in words}
        return snap, raw

    @staticmethod
    def hop(
        table, raw: Tuple[np.ndarray, np.ndarray], target: NavSnapshot
    ) -> np.ndarray:
        """A hop column: the target position of every word that is not
        null, passes the incarnation check and names a row of *target*;
        the sentinel ``-1`` for every other word."""
        word, inc = raw
        word = word.astype(np.int64, copy=False)
        incs = table._inc
        ok = (word > NULL_ADDRESS) & (word < incs.size)
        safe = np.where(ok, word, 0)
        ok &= (incs[safe] & INC_MASK) == (inc & INC_MASK)
        pos, found = target.positions(safe)
        return np.where(ok & found, pos, -1).astype(np.int32)

    def telemetry(self) -> Dict[str, object]:
        snap = self.snapshot
        columns = 0 if snap is None else len(snap.values) + len(snap.hops)
        return {
            "nav_columns": columns,
            "nav_bytes": 0 if snap is None else snap.nbytes,
            "nav_builds": self.builds,
            "nav_fallbacks": {r: self.fallbacks[r] for r in FALLBACK_REASONS},
        }
