"""Live-object handles.

A handle is the application-facing façade of one self-managed object: it
pairs a :class:`~repro.memory.reference.Ref` with the object's slot layout
and performs the paper's dereference protocol on every attribute access.
Handles are what ``Collection.add`` returns and what reference fields
navigate to — the moral equivalent of an object reference in the paper's
modified runtime, with the JIT-injected incarnation checks performed in
library code instead (exactly how the paper's own evaluation prototype
works, section 7).

Attribute reads and writes re-validate the reference each time; once the
object is removed from its collection every access raises
:class:`~repro.errors.NullReferenceError` (section 2 semantics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import NullReferenceError
from repro.memory import zonemap
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import FLAG_MASK, FORWARD, INC_MASK
from repro.memory.reference import Ref
from repro.schema.fields import RefField

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.collection import Collection
    from repro.memory.manager import MemoryManager


class Handle:
    """A checked view of one live self-managed object."""

    __slots__ = ("_collection", "_ref")

    def __init__(self, collection: "Collection", ref: "Ref") -> None:
        # Straight to the slot descriptors: __setattr__ means field writes.
        _set_collection(self, collection)
        _set_ref(self, ref)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def ref(self) -> "Ref":
        return self._ref

    @property
    def collection(self) -> "Collection":
        return self._collection

    @property
    def is_alive(self) -> bool:
        return self._ref.is_alive

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Handle):
            return self._ref == other._ref
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._ref)

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------

    # Every attribute access runs inside a critical section: the paper's
    # runtime injects enter/exit around each dereference (section 3.4), so
    # the resolved address stays valid while the field bytes are read.

    def __getattr__(self, name: str) -> Any:
        collection = self._collection
        field = collection.layout.by_name.get(name)
        if field is None:
            raise AttributeError(
                f"{collection.schema.__name__} has no field {name!r}"
            )
        manager = collection.manager
        epochs = manager.epochs
        epochs.enter_critical_section()
        try:
            address = self._ref.address()
            block = manager.space.block_at(address)
            return collection._read_field(block, address, field)
        finally:
            epochs.exit_critical_section()

    def __setattr__(self, name: str, value: Any) -> None:
        collection = self._collection
        field = collection.layout.by_name.get(name)
        if field is None:
            raise AttributeError(
                f"{collection.schema.__name__} has no field {name!r}"
            )
        mlog = collection.mutation_log
        if mlog is None:
            self._store(collection, field, value)
            return
        with mlog.hold():
            self._store(collection, field, value)
            mlog.log_update(collection, self._ref.entry, name, value)

    def _store(self, collection, field, value: Any) -> None:
        manager = collection.manager
        epochs = manager.epochs
        epochs.enter_critical_section()
        try:
            address = self._ref.address()
            block = manager.space.block_at(address)
            if manager.pager is not None:
                # Promote (and mark dirty) before touching the buffer;
                # inside the critical section, so demotion cannot race
                # the write (repro.memory.pager).
                manager.pager.ensure_hot(block)
            collection._write_field(block, address, field, value)
            if zonemap.is_zoned(field):
                block.zone_version += 1  # invalidate the zone map
            collection.context.bump_version()
        finally:
            epochs.exit_critical_section()

    # ------------------------------------------------------------------
    # Bulk access
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Decode all fields; RefFields become handles (or ``None``)."""
        return {f.name: getattr(self, f.name) for f in self._collection.layout.fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self._collection.schema.__name__
        if not self.is_alive:
            return f"<{name} handle (null)>"
        fields = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in self._collection.layout.fields[:4]
        )
        more = "..." if len(self._collection.layout.fields) > 4 else ""
        return f"<{name} {fields}{more}>"


_set_collection = Handle._collection.__set__
_set_ref = Handle._ref.__set__


def read_reference(
    collection: "Collection", field: RefField, word: int, inc: int, block, address: int
) -> Optional[Handle]:
    """The handle a stored reference names, on either block layout.

    *word* and *inc* are the reference's stored pair, as the layout hook
    read them from the object at *address* in *block*; in direct-pointer
    mode a forwarded pointer is healed in place there.
    """
    if word == NULL_ADDRESS:
        return None
    manager = collection.manager
    target = collection.target_collection(field)
    if manager.direct_pointers:
        found = resolve_direct_pointer(manager, word, inc, (block, address, field))
        t_block = manager.space.block_at(found)
        word = int(t_block.backptrs[t_block.slot_of_address(found)])  # the entry
        inc = manager.table.incarnation(word)
    return target._handle(Ref(manager, word, inc))


def resolve_direct_pointer(
    manager: "MemoryManager",
    address: int,
    inc: int,
    source: Tuple[Any, int, RefField],
) -> int:
    """Resolve a stored direct pointer, following forwarding tombstones.

    Direct pointers (paper section 6) are validated against the *slot
    header* incarnation.  A relocated object leaves a FORWARD-flagged
    tombstone; readers follow the slot's back-pointer to the indirection
    entry, pick up the new address, and heal the stored pointer —
    *source*, the ``(block, address, field)`` holding it — so future
    accesses are direct again.
    """
    space = manager.space
    hops = 0
    while True:
        block = space.try_block_at(address)
        if block is None:
            raise NullReferenceError(f"direct pointer {address:#x} is dangling")
        slot = block.slot_of_address(address)
        word = int(block.slot_incs[slot])
        if (word & INC_MASK) != (inc & INC_MASK):
            raise NullReferenceError(
                f"direct pointer to freed slot (incarnation mismatch)"
            )
        if not word & FLAG_MASK:
            return address
        if word & FORWARD:
            # Tombstone: the indirection entry knows the new location.
            entry = int(block.backptrs[slot])
            new_address = manager.table.address_of(entry)
            new_block = space.block_at(new_address)
            new_slot = new_block.slot_of_address(new_address)
            new_inc = int(new_block.slot_incs[new_slot]) & INC_MASK
            _heal(source, new_address, new_inc)
            address, inc = new_address, new_inc
            hops += 1
            if hops > 64:
                raise NullReferenceError("forwarding chain too long")
            continue
        # FROZEN / LOCKED during an active compaction: fall back to the
        # indirection entry, which handles the three relocation cases.
        entry = int(block.backptrs[slot])
        return manager._deref_frozen(entry, manager.table.incarnation(entry))


def _heal(source: Tuple[Any, int, RefField], address: int, inc: int) -> None:
    """Store the pointer pair in *source*'s word columns (either layout)."""
    block, src_address, field = source
    slot = block.slot_of_address(src_address)
    try:
        block.column(field.name + "__w")[slot] = address
        block.column(field.name + "__i")[slot] = inc
    except ValueError:
        # Healing is an optimisation; a cold (read-only mapped) source
        # block simply keeps its tombstone pointer until a real write
        # promotes it.
        pass
