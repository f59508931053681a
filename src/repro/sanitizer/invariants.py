"""Runtime invariant checker for the memory-reclamation protocol.

The :class:`Sanitizer` receives structured events from hook points
threaded through the memory core (``repro/memory/*``, the compactor and
the scan runtime) and validates, on every protocol transition, the safety
rules from sections 3.2–3.4 and 5.1 of the paper:

``premature-reclaim``
    no slot leaves LIMBO before ``removal_epoch + 2``;
``double-free`` / ``free-unallocated-slot``
    only VALID slots may move to LIMBO;
``publish-valid-slot``
    a slot already VALID is never published again;
``incarnation-regression``
    incarnation counters only ever increase (except the audited reset of
    retired entries after a full reference-repair scan);
``frozen-free-slot`` / ``frozen-null-entry``
    the FROZEN bit is only ever set on entries whose slot holds a live
    object;
``foreign-unlock``
    the LOCKED bit is released by the thread that acquired it;
``backpointer-mismatch``
    a published slot's back-pointer and its indirection entry agree
    (unless the entry is mid-relocation, i.e. LOCKED);
``repoint-unlocked``
    an indirection entry is only re-pointed while LOCKED (or nulled);
``release-live-entry``
    an indirection entry is only recycled once its pointer is nulled;
``epoch-skip`` / ``epoch-regression`` / ``epoch-overtook-critical-section``
    the global epoch advances monotonically, one step at a time, and
    never past a thread still inside a critical section; a
    thread leaves its section with the global epoch at most one step
    from another thread above the epoch it entered at, plus its own
    advances;
``premature-block-recycle``
    a queued block is only recycled once its ready epoch has passed;
``evict-pinned-block`` / ``evict-owned-block``
    the pager never demotes a pinned, allocator-active, compacting or
    reclamation-queued block;
``evict-before-grace``
    a cooling block is only demoted two epochs after cooling began, so
    no writer whose critical section validated residency can still be
    in flight (the epoch-visible-dirty rule) — and, since a dirty
    demotion re-spills over the block's own tier region, no scan that
    is still reading the previous image through its mapping;
``fault-left-cold``
    a fault leaves the block hot with its tier region retained;
``fault-on-read``
    only a writer (``Pager.ensure_hot``) or ``Pager.pin`` promotes a
    cold block; scan admission reads it where it lies.
``nav-column-stale``
    a column a scanned block answered from navigation columns equals
    what the address path answers for the same rows, unless a writer
    moved a navigated context's version while the block ran.

Every event is appended to a bounded trace ring; a violation raises
:class:`~repro.errors.ProtocolViolation` carrying the trace tail.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolViolation
from repro.memory import slots as slotcodec
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import FROZEN, INC_MASK, LOCKED
from repro.memory.manager import MemoryManager
from repro.sanitizer import hooks as _hooks


def _fmt(value: Any) -> Any:
    """Reduce event payload objects to trace-friendly primitives."""
    block_id = getattr(value, "block_id", None)
    if block_id is not None:
        return f"block#{block_id}"
    if isinstance(value, MemoryManager):
        return "manager"
    return value if isinstance(value, (int, float, str, bool, type(None))) else type(value).__name__


class Sanitizer:
    """Opt-in protocol invariant checker plus trace recorder.

    With ``manager`` given, only events originating from that manager's
    address space / indirection table / epoch manager are validated;
    without it, the sanitizer auto-binds to every manager created while
    it is installed (and validates table/epoch events of managers it has
    seen).  ``schedule`` and ``faults`` attach an optional
    :class:`~repro.sanitizer.schedule.ScheduleController` and
    :class:`~repro.sanitizer.faults.FaultPlan`.
    """

    def __init__(
        self,
        manager: Optional[MemoryManager] = None,
        schedule=None,
        faults=None,
        trace_limit: int = 4096,
    ) -> None:
        self.schedule = schedule
        self.faults = faults
        self.trace: deque = deque(maxlen=trace_limit)
        self.violations: List[ProtocolViolation] = []
        self.event_counts: Counter = Counter()
        self._managers: List[MemoryManager] = []
        self._auto_register = manager is None
        if manager is not None:
            self._managers.append(manager)
        self._seq = 0
        self._lock = threading.RLock()
        # Shadow state.  Keyed by the objects themselves (not ``id()``,
        # which CPython reuses after collection); a sanitizer is
        # short-lived, so pinning the keyed objects is fine.
        #: (table, entry) -> highest incarnation counter observed.
        self._inc_shadow: Dict[tuple, int] = {}
        #: (table, entry) -> thread ident holding the LOCKED bit.
        self._lockers: Dict[tuple, int] = {}
        #: epochs -> last global epoch observed.
        self._epoch_shadow: Dict[Any, int] = {}
        #: epochs -> {thread ident: [entry epoch, own advances, made the
        #: first advance past the entry epoch itself]} for every thread
        #: whose outermost section has emitted ``section.enter``.
        self._sections: Dict[Any, Dict[int, list]] = {}
        #: (string dictionary, code) -> epoch its last binding retired at.
        self._retired_codes: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def event(self, name: str, lock_held: bool = False, **data: Any) -> None:
        """Record *name*, check its invariants, then run fault/schedule hooks.

        ``lock_held`` marks events emitted under a core lock (indirection
        stripe, epoch advance lock); those never park in the scheduler,
        so gates cannot wedge unrelated threads.
        """
        with self._lock:
            self._seq += 1
            self.event_counts[name] += 1
            self.trace.append(
                f"#{self._seq} [{threading.current_thread().name}] {name} "
                + " ".join(f"{k}={_fmt(v)}" for k, v in data.items())
            )
            checker = _CHECKS.get(name)
            if checker is not None:
                checker(self, data)
        if self.faults is not None:
            self.faults.fire(name, data)
        if self.schedule is not None and not lock_held:
            self.schedule.yield_point(name, data)

    def _violate(self, invariant: str, message: str) -> None:
        violation = ProtocolViolation(invariant, message, trace=list(self.trace))
        self.violations.append(violation)
        raise violation

    def assert_clean(self) -> None:
        """Fail if any violation was recorded (even if swallowed upstream)."""
        if self.violations:
            raise self.violations[0]

    # ------------------------------------------------------------------
    # Manager resolution
    # ------------------------------------------------------------------

    def _on_manager_created(self, data: Dict[str, Any]) -> None:
        if self._auto_register:
            self._managers.append(data["manager"])

    def _manager_for_space(self, space) -> Optional[MemoryManager]:
        for m in self._managers:
            if m.space is space:
                return m
        return None

    def _manager_for_table(self, table) -> Optional[MemoryManager]:
        for m in self._managers:
            if m.table is table:
                return m
        return None

    def _tracks_epochs(self, epochs) -> bool:
        return any(m.epochs is epochs for m in self._managers)

    # ------------------------------------------------------------------
    # Slot-directory invariants
    # ------------------------------------------------------------------

    def _check_slot_valid(self, data: Dict[str, Any]) -> None:
        block, slot, word = data["block"], data["slot"], data["word"]
        state = word & slotcodec.STATE_MASK
        if state == slotcodec.VALID:
            self._violate(
                "publish-valid-slot",
                f"slot {slot} of block#{block.block_id} is already VALID",
            )
        manager = self._manager_for_space(block.space)
        if manager is None:
            return
        if state == slotcodec.LIMBO:
            removal = slotcodec.epoch_of(word)
            epoch = manager.epochs.global_epoch
            if epoch < removal + 2:
                self._violate(
                    "premature-reclaim",
                    f"slot {slot} of block#{block.block_id} left limbo at "
                    f"epoch {epoch}, but was freed at {removal} "
                    f"(reclaimable at {removal + 2})",
                )
        entry = int(block.backptrs[slot])
        if entry >= 0:
            inc_word = manager.table.incarnation_word(entry)
            if not inc_word & LOCKED:
                address = manager.table.address_of(entry)
                if address != block.slot_address(slot):
                    self._violate(
                        "backpointer-mismatch",
                        f"slot {slot} of block#{block.block_id} publishes "
                        f"back-pointer to entry {entry}, but the entry "
                        f"points at {address:#x}, not "
                        f"{block.slot_address(slot):#x}",
                    )

    def _check_slot_limbo(self, data: Dict[str, Any]) -> None:
        block, slot, word = data["block"], data["slot"], data["word"]
        state = word & slotcodec.STATE_MASK
        if state == slotcodec.LIMBO:
            self._violate(
                "double-free",
                f"slot {slot} of block#{block.block_id} is already in "
                f"limbo (freed at epoch {slotcodec.epoch_of(word)})",
            )
        if state != slotcodec.VALID:
            self._violate(
                "free-unallocated-slot",
                f"slot {slot} of block#{block.block_id} is FREE; only "
                f"VALID slots may move to limbo",
            )
        manager = self._manager_for_space(block.space)
        if manager is not None and data["epoch"] > manager.epochs.global_epoch:
            self._violate(
                "limbo-epoch-from-future",
                f"slot {slot} of block#{block.block_id} stamped with "
                f"removal epoch {data['epoch']} > global epoch "
                f"{manager.epochs.global_epoch}",
            )

    def _check_block_recycled(self, data: Dict[str, Any]) -> None:
        block, epoch, ready = data["block"], data["epoch"], data["ready"]
        if ready > epoch:
            self._violate(
                "premature-block-recycle",
                f"block#{block.block_id} recycled at epoch {epoch} before "
                f"its ready epoch {ready}",
            )

    # ------------------------------------------------------------------
    # Incarnation-word invariants
    # ------------------------------------------------------------------

    def _check_inc_update(self, data: Dict[str, Any]) -> None:
        table, entry = data["table"], data["entry"]
        old, new, kind = data["old"], data["new"], data["kind"]
        key = (table, entry)
        old_counter, new_counter = old & INC_MASK, new & INC_MASK
        if kind == "retire_reset":
            if old_counter != INC_MASK:
                self._violate(
                    "retire-reset-live-entry",
                    f"entry {entry} reset to incarnation 0 but its counter "
                    f"({old_counter}) never overflowed",
                )
            self._inc_shadow[key] = 0
            self._lockers.pop(key, None)
            return
        shadow = self._inc_shadow.get(key, 0)
        if new_counter < old_counter or new_counter < shadow:
            self._violate(
                "incarnation-regression",
                f"entry {entry} incarnation counter moved {old_counter} -> "
                f"{new_counter} (highest observed {shadow}); counters only "
                f"ever increment",
            )
        if kind == "increment" and new_counter != old_counter + 1:
            self._violate(
                "incarnation-regression",
                f"entry {entry} free incremented the counter "
                f"{old_counter} -> {new_counter}, expected a single step",
            )
        self._inc_shadow[key] = new_counter
        me = threading.get_ident()
        if new & LOCKED and not old & LOCKED:
            self._lockers[key] = me
        elif old & LOCKED and not new & LOCKED:
            locker = self._lockers.pop(key, None)
            if locker is not None and locker != me:
                self._violate(
                    "foreign-unlock",
                    f"entry {entry} LOCKED by thread {locker} but released "
                    f"by thread {me}",
                )
        if new & FROZEN and not old & FROZEN:
            self._check_freeze_target(table, entry)

    def _check_freeze_target(self, table, entry: int) -> None:
        manager = self._manager_for_table(table)
        if manager is None:
            return
        address = table.address_of(entry)
        if address == NULL_ADDRESS:
            self._violate(
                "frozen-null-entry",
                f"FROZEN set on entry {entry} whose pointer is null",
            )
        block = manager.space.try_block_at(address)
        if block is None or not hasattr(block, "state_of"):
            return
        slot = block.slot_of_address(address)
        if block.state_of(slot) == slotcodec.FREE:
            self._violate(
                "frozen-free-slot",
                f"FROZEN set on entry {entry} but its slot {slot} of "
                f"block#{block.block_id} is FREE",
            )

    def _check_entry_release(self, data: Dict[str, Any]) -> None:
        table, entry = data["table"], data["entry"]
        if table.address_of(entry) != NULL_ADDRESS:
            self._violate(
                "release-live-entry",
                f"entry {entry} recycled while still pointing at "
                f"{table.address_of(entry):#x}",
            )

    def _check_entry_repoint(self, data: Dict[str, Any]) -> None:
        table, entry, address = data["table"], data["entry"], data["address"]
        if address == NULL_ADDRESS:
            return
        if not table.incarnation_word(entry) & LOCKED:
            self._violate(
                "repoint-unlocked",
                f"entry {entry} re-pointed to {address:#x} without holding "
                f"the LOCKED bit",
            )

    # ------------------------------------------------------------------
    # Tiering invariants (flags captured at transition time: the pager
    # emits after releasing its lock, so live block state may already
    # have legitimately moved on)
    # ------------------------------------------------------------------

    def _check_tier_evict(self, data: Dict[str, Any]) -> None:
        block = data["block"]
        if data["pin_count"]:
            self._violate(
                "evict-pinned-block",
                f"block#{block.block_id} demoted while pinned "
                f"(pin_count={data['pin_count']})",
            )
        if data["was_active"] or data["was_compacting"] or data["was_queued"]:
            owner = (
                "allocator-active"
                if data["was_active"]
                else "compacting" if data["was_compacting"] else "reclaim-queued"
            )
            self._violate(
                "evict-owned-block",
                f"block#{block.block_id} demoted while {owner}",
            )
        if data["epoch"] < data["cool_epoch"] + 2:
            self._violate(
                "evict-before-grace",
                f"block#{block.block_id} demoted at epoch {data['epoch']} "
                f"but began cooling at {data['cool_epoch']} (demotable at "
                f"{data['cool_epoch'] + 2}); a writer's critical section "
                f"may still trust the hot buffer, or a scan the image the "
                f"re-spill overwrites",
            )

    def _check_tier_fault(self, data: Dict[str, Any]) -> None:
        block = data["block"]
        if data.get("cause") not in ("write", "pin"):
            self._violate(
                "fault-on-read",
                f"block#{block.block_id} faulted with cause "
                f"{data.get('cause')!r}; residency changes only for a "
                f"writer or a pin, never for a reader",
            )
        if data["residency"] != "hot":
            self._violate(
                "fault-left-cold",
                f"block#{block.block_id} faulted but its residency is "
                f"{data['residency']!r}, not 'hot'",
            )
        if data["tier_offset"] < 0:
            self._violate(
                "fault-left-cold",
                f"block#{block.block_id} faulted but lost its tier region; "
                f"a clean re-demotion would have nothing to map",
            )

    # ------------------------------------------------------------------
    # Epoch invariants
    # ------------------------------------------------------------------

    def _check_epoch_advance(self, data: Dict[str, Any]) -> None:
        epochs, old, new = data["epochs"], data["old"], data["new"]
        if self._managers and not self._tracks_epochs(epochs):
            return
        if new != old + 1:
            self._violate(
                "epoch-skip",
                f"global epoch jumped {old} -> {new}; advances must be "
                f"single steps",
            )
        last = self._epoch_shadow.get(epochs, -1)
        if new <= last:
            self._violate(
                "epoch-regression",
                f"global epoch moved to {new} after {last} was observed",
            )
        self._epoch_shadow[epochs] = new
        me = threading.get_ident()
        sections = self._sections.get(epochs, {})
        mine = sections.get(me)
        if mine is not None:
            mine[1] += 1
            if old == mine[0]:
                mine[2] = True
        # A thread that has set its depth but not yet read the epoch
        # still shows its previous section's epoch; only a section that
        # announced itself with ``section.enter`` has an epoch to check.
        for tid, epoch, depth in epochs.contexts_snapshot():
            if depth > 0 and tid != me and tid in sections and epoch < old:
                self._violate(
                    "epoch-overtook-critical-section",
                    f"global epoch advanced {old} -> {new} while thread "
                    f"{tid} is inside a critical section begun at epoch "
                    f"{epoch}",
                )

    def _on_section_enter(self, data: Dict[str, Any]) -> None:
        sections = self._sections.setdefault(data["epochs"], {})
        sections[threading.get_ident()] = [data["epoch"], 0, False]

    def _check_section_exit(self, data: Dict[str, Any]) -> None:
        epochs = data["epochs"]
        me = threading.get_ident()
        section = self._sections.get(epochs, {}).pop(me, None)
        if section is None:
            return  # entered before this sanitizer was installed
        epoch, own, own_first = section
        # Other threads may advance once, from the entry epoch, and only
        # if this thread did not take that step itself; every further
        # step must be one of this thread's own advances.
        limit = epoch + own + (0 if own_first else 1)
        current = epochs.global_epoch
        if current > limit and (
            not self._managers or self._tracks_epochs(epochs)
        ):
            self._violate(
                "epoch-overtook-critical-section",
                f"thread {me} left a critical section begun at epoch "
                f"{epoch} with the global epoch at {current} after "
                f"advancing it {own} time(s) itself",
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # String dictionary codes
    # ------------------------------------------------------------------

    def _on_strdict_retire(self, data: Dict[str, Any]) -> None:
        self._retired_codes[(data["strdict"], data["code"])] = data["epoch"]

    def _check_strdict_bind(self, data: Dict[str, Any]) -> None:
        code, epoch = data["code"], data["epoch"]
        retired = self._retired_codes.pop((data["strdict"], code), None)
        if retired is not None and epoch < retired + 2:
            self._violate(
                "strdict-code-reused-early",
                f"dictionary code {code} rebound to {data['text']!r} at "
                f"epoch {epoch}, but was retired at {retired} (reusable "
                f"at {retired + 2})",
            )

    # ------------------------------------------------------------------
    # Navigation columns
    # ------------------------------------------------------------------

    def _check_nav(self, data: Dict[str, Any]) -> None:
        if not data["equal"] and not data["moved"]:
            self._violate(
                "nav-column-stale",
                f"navigation column {data['context']}.{data['column']} "
                f"answered differently from the address path while every "
                f"navigated context kept its snapshot's version",
            )

    def describe(self) -> str:
        """One-line-per-point summary of the events seen so far."""
        lines = [f"sanitizer: {self._seq} events, {len(self.violations)} violations"]
        for name, count in sorted(self.event_counts.items()):
            lines.append(f"  {name:<24} {count}")
        return "\n".join(lines)


_CHECKS = {
    "manager.created": Sanitizer._on_manager_created,
    "slot.valid": Sanitizer._check_slot_valid,
    "slot.limbo": Sanitizer._check_slot_limbo,
    "block.recycled": Sanitizer._check_block_recycled,
    "inc.update": Sanitizer._check_inc_update,
    "entry.release": Sanitizer._check_entry_release,
    "entry.repoint": Sanitizer._check_entry_repoint,
    "epoch.advance": Sanitizer._check_epoch_advance,
    "section.enter": Sanitizer._on_section_enter,
    "section.exit": Sanitizer._check_section_exit,
    # "tier.cool" carries no check: it exists as a schedule yield point
    # between the cooling decision and the demotion that completes it.
    "tier.evict": Sanitizer._check_tier_evict,
    "tier.fault": Sanitizer._check_tier_fault,
    "strdict.retire": Sanitizer._on_strdict_retire,
    "strdict.bind": Sanitizer._check_strdict_bind,
    "nav.check": Sanitizer._check_nav,
}


class SanitizedMemoryManager(MemoryManager):
    """A :class:`MemoryManager` wrapped by its own sanitizer.

    Installs a fresh :class:`Sanitizer` (bound to this manager) for the
    manager's whole lifetime; :meth:`close` restores the previously
    installed sanitizer, so instances nest like the ``enabled()`` context
    manager.
    """

    def __init__(self, *args, schedule=None, faults=None, trace_limit=4096, **kwargs):
        self.sanitizer = Sanitizer(
            schedule=schedule, faults=faults, trace_limit=trace_limit
        )
        self._previous_sanitizer = _hooks.SANITIZER
        _hooks.SANITIZER = self.sanitizer
        try:
            super().__init__(*args, **kwargs)
        except BaseException:
            _hooks.SANITIZER = self._previous_sanitizer
            raise

    def close(self) -> None:
        try:
            super().close()
        finally:
            if _hooks.SANITIZER is self.sanitizer:
                _hooks.SANITIZER = self._previous_sanitizer
