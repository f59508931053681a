"""Deterministic fault injection for the memory-reclamation core.

A :class:`FaultPlan` arms a fixed number of failures at named protocol
points; the sanitizer calls :meth:`FaultPlan.fire` on every event, and an
armed fault either raises a *detectable* error into the faulting code
path or mutates protocol state to force a rare edge case:

``fail_allocation``
    raise :class:`~repro.errors.MemoryExhaustedError` from
    ``MemoryManager.allocate_object`` (the ``alloc.start`` point) —
    before any slot or indirection entry is claimed, so a failed
    allocation must leave no trace;
``force_incarnation_overflow``
    at ``free.validated`` (after the free's incarnation check, before the
    increment) push the entry's counter to the top of its 29-bit range:
    in ``retire`` mode to ``INC_MASK - 1`` so the free succeeds and the
    entry is *retired* instead of recycled; in ``raise`` mode to
    ``INC_MASK`` so the increment raises
    :class:`~repro.errors.IncarnationOverflowError`;
``crash_compactor``
    raise :class:`~repro.errors.InjectedFaultError` from the compactor's
    moving phase (the ``compact.move_item`` point) after a configurable
    number of successful moves — simulating a compactor thread dying
    mid-relocation;
``crash_at``
    raise :class:`~repro.errors.InjectedFaultError` from *any* named
    event point — the durability subsystem uses it to kill the process
    model between a write-ahead log append's split halves
    (``wal.append.mid``), before an fsync (``wal.fsync``) and around a
    checkpoint's renames (``checkpoint.snapshot_rename``,
    ``checkpoint.manifest_rename``).  With ``power_loss=True`` a crash
    at a WAL point also truncates the log file back to its last fsynced
    offset first, modelling page-cache loss on power failure rather
    than a mere process kill.

Fault counters are consumed exactly once per armed fault, so tests can
assert that the system *degrades into the injected error and nothing
else* and then continues operating correctly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from repro.errors import InjectedFaultError, MemoryExhaustedError
from repro.memory.indirection import FLAG_MASK, INC_MASK


class FaultPlan:
    """A set of armed faults keyed by sanitizer event name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._alloc_skip = 0
        self._alloc_times = 0
        self._overflow_times = 0
        self._overflow_mode = "retire"
        self._crash_after_moves = 0
        self._crash_armed = False
        # point -> [skip, times, power_loss] for generic crash_at faults.
        self._crash_points: Dict[str, list] = {}
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def fail_allocation(self, after: int = 0, times: int = 1) -> "FaultPlan":
        """Fail the next *times* allocations once *after* have succeeded."""
        with self._lock:
            self._alloc_skip = after
            self._alloc_times = times
        return self

    def force_incarnation_overflow(
        self, times: int = 1, mode: str = "retire"
    ) -> "FaultPlan":
        """Push the freed entry's incarnation counter to its limit."""
        if mode not in ("retire", "raise"):
            raise ValueError(f"unknown overflow mode {mode!r}")
        with self._lock:
            self._overflow_times = times
            self._overflow_mode = mode
        return self

    def crash_compactor(self, after_moves: int = 0) -> "FaultPlan":
        """Kill the compactor after *after_moves* successful relocations."""
        with self._lock:
            self._crash_after_moves = after_moves
            self._crash_armed = True
        return self

    def crash_at(
        self,
        point: str,
        after: int = 0,
        times: int = 1,
        power_loss: bool = False,
    ) -> "FaultPlan":
        """Raise ``InjectedFaultError`` at *point* once *after* passes.

        *point* is any sanitizer event name; the event's data travels
        with the fault, so a ``power_loss`` crash at a WAL point can
        first drop the log's unsynced bytes
        (:meth:`~repro.durability.wal.WriteAheadLog.simulate_power_loss`).
        """
        with self._lock:
            self._crash_points[point] = [after, times, power_loss]
        return self

    # ------------------------------------------------------------------
    # Firing (called by the sanitizer on every event)
    # ------------------------------------------------------------------

    def fire(self, point: str, data: Dict[str, Any]) -> None:
        if point == "alloc.start":
            with self._lock:
                if self._alloc_times <= 0:
                    return
                if self._alloc_skip > 0:
                    self._alloc_skip -= 1
                    return
                self._alloc_times -= 1
                self.fired["alloc.start"] = self.fired.get("alloc.start", 0) + 1
            raise MemoryExhaustedError(
                "injected allocation failure (sanitizer fault plan)"
            )
        if point == "free.validated":
            with self._lock:
                if self._overflow_times <= 0:
                    return
                self._overflow_times -= 1
                mode = self._overflow_mode
                self.fired["free.validated"] = (
                    self.fired.get("free.validated", 0) + 1
                )
            self._push_counter_to_limit(data, mode)
            return
        if point == "compact.move_item":
            with self._lock:
                if not self._crash_armed:
                    return
                if self._crash_after_moves > 0:
                    self._crash_after_moves -= 1
                    return
                self._crash_armed = False
                self.fired["compact.move_item"] = (
                    self.fired.get("compact.move_item", 0) + 1
                )
            raise InjectedFaultError(
                "injected compactor crash mid-relocation (sanitizer fault plan)"
            )
        spec = self._crash_points.get(point)
        if spec is not None:
            with self._lock:
                spec = self._crash_points.get(point)
                if spec is None or spec[1] <= 0:
                    return
                if spec[0] > 0:
                    spec[0] -= 1
                    return
                spec[1] -= 1
                power_loss = spec[2]
                self.fired[point] = self.fired.get(point, 0) + 1
            wal = data.get("wal")
            if wal is not None:
                # The "process" dies here: with power_loss the unsynced
                # bytes vanish too; either way the log goes inert so
                # unwinding cleanup paths cannot write past the crash.
                if power_loss:
                    wal.simulate_power_loss()
                else:
                    wal.mark_crashed()
            raise InjectedFaultError(
                f"injected crash at {point} (sanitizer fault plan)"
            )

    @staticmethod
    def _push_counter_to_limit(data: Dict[str, Any], mode: str) -> None:
        """CAS the entry's counter to the top of the incarnation range.

        ``retire`` leaves room for exactly one more increment (the free in
        progress), so the entry hits ``INC_MASK`` and is retired on
        release; ``raise`` saturates it so the increment itself raises.
        """
        table = data["manager"].table
        entry = data["entry"]
        target = INC_MASK - 1 if mode == "retire" else INC_MASK
        while True:
            word = table.incarnation_word(entry)
            if (word & INC_MASK) >= target:
                return
            if table.cas_inc(entry, word, (word & FLAG_MASK) | target):
                return
