"""Self-managed collections (paper sections 2 and 4).

A :class:`Collection` owns the lifetime of its objects: ``add`` allocates a
slot in the collection's private memory context, runs the constructor
(writes the field values), and returns a handle; ``remove`` ends the
object's lifetime, after which every reference to it dereferences as null.

Collections have bag semantics: enumeration visits objects in memory
order — block by block, slot by slot — which is what lets compiled queries
scan the raw blocks directly (section 4).
"""

from __future__ import annotations

import contextlib
import struct
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import TabularTypeError
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import SLOT_HEADER_SIZE
from repro.memory.manager import MemoryManager
from repro.memory.reference import Ref
from repro.core.handle import Handle
from repro.schema.fields import RefField
from repro.schema.layout import EncodedRow
from repro.schema.tabular import Tabular, TabularMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.block import Block
    from repro.query.builder import Query

#: A varstring field's slot word (its dictionary code).
_WORD = struct.Struct("<q")

_default_manager: Optional[MemoryManager] = None
_default_manager_lock = threading.Lock()


def default_manager() -> MemoryManager:
    """The process-wide memory manager used when none is supplied.

    Collections that should reference each other must share one manager;
    the default makes the common single-runtime case frictionless.
    """
    global _default_manager
    with _default_manager_lock:
        if _default_manager is None:
            _default_manager = MemoryManager()
        return _default_manager


def reset_default_manager() -> None:
    """Discard the default manager (tests / benchmarks isolation)."""
    global _default_manager
    with _default_manager_lock:
        if _default_manager is not None:
            _default_manager.close()
        _default_manager = None


#: Rows one ``add_many`` call of a bulk load checks and converts at once
#: (bounds the converted rows held in memory at a time).
BULK_CHUNK = 4096


def bulk_add(collection: "Collection", rows: Iterable[Any]) -> List[Any]:
    """Add *rows* through ``collection.add_many``, ``BULK_CHUNK`` at a
    time; returns every handle, in row order.  For loaders: a bad row
    aborts its chunk only, so earlier chunks stay added."""
    handles: List[Any] = []
    chunk: List[Any] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) == BULK_CHUNK:
            handles += collection.add_many(chunk)
            chunk = []
    if chunk:
        handles += collection.add_many(chunk)
    return handles


class Collection:
    """A self-managed collection of one tabular class."""

    #: Compiled-query engine, for either block layout: the vectorised
    #: raw-block kernels ("SMC (unsafe C#)" in the paper's Figure 11);
    #: ``Query.run(engine="smc-safe")`` runs the decoding "SMC (C#)"
    #: series over row blocks.
    compiled_flavor = "smc-unsafe"

    #: The handle type ``add`` returns and reference navigation builds.
    handle_class = Handle

    def __init__(
        self,
        schema: Type[Tabular],
        manager: Optional[MemoryManager] = None,
        name: Optional[str] = None,
        auto_compact_occupancy: Optional[float] = None,
    ) -> None:
        """Create a collection of *schema* on *manager*.

        ``auto_compact_occupancy`` enables the paper's "heavy shrinkage"
        policy (section 5): after removals, once the collection's overall
        occupancy falls below the given fraction, a compaction cycle runs
        automatically.
        """
        if not isinstance(schema, TabularMeta) or schema.__dict__.get(
            "_tabular_root_", False
        ):
            raise TabularTypeError(
                f"Collection requires a tabular class, got {schema!r}"
            )
        self.schema = schema
        self.layout = schema.__layout__
        self.manager = manager if manager is not None else default_manager()
        self.name = name or schema.__name__
        #: Private memory context: all objects of this collection live in
        #: the context's blocks (section 3.3 / 4).
        self.context = self.manager.create_context(
            self.layout.slot_size, schema.__name__
        )
        # The vectorised engine resolves strided field views through the
        # block's context; give it the slot layout.
        self.context.layout = self.layout
        # Register for reference navigation and direct-pointer rewriting.
        registry = getattr(self.manager, "collections", None)
        if registry is None:
            registry = {}
            self.manager.collections = registry  # type: ignore[attr-defined]
        primary = registry.setdefault(schema.__name__, self)
        # Per-collection string dictionary: every varstring slot holds a
        # code of it (shared by collections of the same schema on one
        # manager, since fields resolve it by schema name through the
        # registry).
        if primary is not self:
            self.strdict = primary.strdict
        elif self.layout.var_fields:
            from repro.memory.stringheap import StringDict

            self.strdict = StringDict(self.manager.strings, self.manager.epochs)
        else:
            self.strdict = None
        if auto_compact_occupancy is not None and not (
            0.0 < auto_compact_occupancy < 1.0
        ):
            raise ValueError("auto_compact_occupancy must be in (0, 1)")
        self.auto_compact_occupancy = auto_compact_occupancy
        self._removals_since_check = 0
        #: Durability hook (a :class:`~repro.durability.store.DurableStore`
        #: or None).  When set, every mutation holds the lock
        #: ``mutation_log.hold()`` returns across *apply + append*, so
        #: checkpoints cut between whole mutations, never through one.
        self.mutation_log = None

    # ------------------------------------------------------------------
    # Reference encoding (indirect vs direct pointer mode, section 6)
    # ------------------------------------------------------------------

    def _ref_words(
        self, field: RefField, value: Union[Handle, Ref, None]
    ) -> Optional[Tuple[int, int]]:
        """Convert a user-supplied reference into its stored word pair."""
        if value is None:
            return None
        if isinstance(value, Ref):
            ref = value
        else:
            ref = getattr(value, "ref", None)
            if not isinstance(ref, Ref):
                raise TypeError(
                    f"field {field.name} expects a handle, Ref or None; "
                    f"got {type(value).__name__}"
                )
        target_cls = field.resolve_target()
        if not self.manager.direct_pointers:
            return ref.entry, ref.inc
        # Direct-pointer mode: store the raw address plus the slot-header
        # incarnation of the target (paper section 6, Figure 5).
        address = ref.address()
        block = self.manager.space.block_at(address)
        slot = block.slot_of_address(address)
        del target_cls  # validated for effect
        from repro.memory.indirection import INC_MASK

        return address, block.slot_incs.item(slot) & INC_MASK

    def target_collection(self, field: RefField) -> "Collection":
        """Collection hosting *field*'s target class (for navigation)."""
        target_cls = field.resolve_target()
        registry: Dict[str, Collection] = getattr(self.manager, "collections", {})
        target = registry.get(target_cls.__name__)
        if target is None:
            raise TabularTypeError(
                f"no collection for {target_cls.__name__} exists on this "
                f"manager; create it before navigating references"
            )
        return target

    # ------------------------------------------------------------------
    # Containment semantics: Add / Remove (section 2)
    # ------------------------------------------------------------------

    def add(self, **values: Any) -> Handle:
        """Create an object inside the collection; returns its handle.

        Maps directly onto the memory manager's ``alloc`` (section 2): the
        object is constructed in place in the collection's private blocks.
        The batch of one: ``add_many([values])[0]``.
        """
        return self.add_many((values,))[0]

    def add_many(self, rows: Sequence[Any]) -> List[Handle]:
        """Create one object per row, in order; returns their handles.

        A row is a mapping of field values, or the tuple the layout's
        codec encoded it to (:data:`~repro.schema.layout.EncodedRow`,
        already checked).  Every row is checked and converted before the
        first is allocated, so a bad row adds nothing.  The rows then take
        slots and entries in the order as many ``add`` calls would, each
        allocated, constructed and published on its own (paper section 2),
        under one hold of the mutation log; a durable collection logs each
        row's ADD record right after it.  Constructing a row reads another
        object only in direct-pointer mode (a reference stores its
        target's address and slot incarnation), so only there does the
        batch run inside an epoch critical section — one for the call.
        """
        encode = self.layout.codec.encode
        encoded = []
        for row in rows:
            encoded.append(row if type(row) is tuple else encode(row))
        manager = self.manager
        context = self.context
        mlog = self.mutation_log
        hold = mlog.hold() if mlog is not None else None
        section = manager.direct_pointers and self.layout.ref_fields
        handles = []
        if hold is not None:
            hold.acquire()
        if section:
            manager.epochs.enter_critical_section()
        try:
            for row in encoded:
                block, slot, ref = manager.allocate_object(context, True)
                self._place(block, slot, row)
                # Publish only the fully constructed object.
                context.commit_slot(block, slot)
                if mlog is not None:
                    mlog.log_add(self, ref.entry, row)
                handles.append(self.handle_class(self, ref))
        finally:
            if section:
                manager.epochs.exit_critical_section()
            if hold is not None:
                hold.release()
        return handles

    def _place(self, block: "Block", slot: int, row: EncodedRow) -> None:
        """Construct *row* in the claimed, unpublished *slot*."""
        __, raws, body, strings = row
        size = self.layout.slot_size
        off = block.object_offset + slot * size
        buf = block.buf
        buf[off + SLOT_HEADER_SIZE : off + size] = body
        for index, offset in strings:
            _WORD.pack_into(buf, off + offset, self.strdict.intern(raws[index]))
        manager = self.manager
        if manager.direct_pointers:
            for index, field in self.layout.codec.refs:
                if raws[index] != NULL_ADDRESS:
                    ref = Ref(manager, raws[index], raws[index + 1])
                    field.encode_words(
                        buf, off + field.offset, *self._ref_words(field, ref)
                    )

    def remove(self, obj: Union[Handle, Ref]) -> None:
        """End *obj*'s lifetime; all references to it become null.

        Maps onto the memory manager's ``free``.  Strings owned by the
        object are reclaimed with it (section 2).  The batch of one:
        ``remove_many([obj])``.
        """
        self.remove_many((obj,))

    def remove_many(self, objs: Sequence[Union[Handle, Ref]]) -> None:
        """End the lifetime of every object in *objs*, in order.

        One hold of the mutation log and one epoch critical section for
        the lot; a durable collection logs each REMOVE right after its
        free.  Raises :class:`~repro.errors.NullReferenceError` at the
        first object already gone (the ones before it stay removed).
        """
        refs = [obj if isinstance(obj, Ref) else obj.ref for obj in objs]
        manager = self.manager
        space = manager.space
        pager = manager.pager
        mlog = self.mutation_log
        hold = mlog.hold() if mlog is not None else None
        if hold is not None:
            hold.acquire()
        try:
            manager.epochs.enter_critical_section()
            try:
                for ref in refs:
                    address = ref.address()  # raises NullReferenceError if gone
                    block = space.block_at(address)
                    if pager is not None:
                        # The release below writes into the slot; a cold
                        # block's buffer is a read-only tier mapping.
                        pager.ensure_hot(block)
                    self._release(block, address)
                    manager.free_object(ref)
                    if mlog is not None:
                        mlog.log_remove(self, ref.entry)
            finally:
                manager.epochs.exit_critical_section()
            if self.auto_compact_occupancy is not None:
                self._maybe_auto_compact(batch=len(refs))
        finally:
            if hold is not None:
                hold.release()

    def _release(self, block: "Block", address: int) -> None:
        """Free what the object at *address* owns outside its slot."""
        self.layout.release_owned(
            block.buf, self.manager.space.offset_of(address), self.manager
        )

    def _maybe_auto_compact(self, batch: int = 1) -> None:
        """Compact when overall occupancy drops below the policy threshold.

        Checked periodically (not on every removal) to keep removal cheap.
        """
        self._removals_since_check += batch
        period = max(64, len(self) // 8)
        if self._removals_since_check < period:
            return
        self._removals_since_check = 0
        blocks = self.context.block_count()
        if blocks < 2:
            return
        capacity = sum(b.slot_count for b in self.context.blocks())
        if capacity and len(self) / capacity < self.auto_compact_occupancy:
            self.compact(occupancy_threshold=self.auto_compact_occupancy)

    def clear(self) -> int:
        """Remove every object; returns the number removed."""
        handles = list(self)
        self.remove_many(handles)
        return len(handles)

    def remove_where(self, pred) -> int:
        """Remove every object matching *pred* (an expression).

        The predicate runs through the compiled query engine (one block
        scan); matching objects are removed afterwards through their
        references — the paper's single-enumeration predicate removal.
        """
        refs = self.query().where(pred).run().rows
        self.remove_many(refs)
        return len(refs)

    def update_where(self, pred, **values: Any) -> int:
        """Set *values* on every object matching *pred*; returns the count."""
        for key in values:
            if key not in self.layout.by_name:
                raise TypeError(f"{self.schema.__name__} has no field {key!r}")
        refs = self.query().where(pred).run().rows
        for ref in refs:
            handle = self._handle(ref)
            for key, value in values.items():
                setattr(handle, key, value)
        return len(refs)

    # ------------------------------------------------------------------
    # Enumeration (bag semantics, memory order)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.context.live_count

    def __iter__(self) -> Iterator[Handle]:
        """Enumerate live objects in memory order.

        Each block is processed inside one critical section (the paper's
        per-block granularity for lazily consumed enumerations, section 4).
        """
        manager = self.manager
        from repro.query.runtime import scan_blocks

        for block in scan_blocks(manager, self.context):
            with manager.critical_section():
                pairs = [
                    (int(block.backptrs[slot]), block)
                    for slot in block.valid_slots()
                ]
                handles = [
                    Handle(self, Ref(manager, entry, manager.table.incarnation(entry)))
                    for entry, __ in pairs
                ]
            yield from handles

    def handles(self) -> List[Handle]:
        return list(self)

    def _handle(self, ref: Ref) -> Handle:
        """Wrap *ref* in this collection's handle type (navigation hook)."""
        return self.handle_class(self, ref)

    # ------------------------------------------------------------------
    # Query surface (language-integrated query)
    # ------------------------------------------------------------------

    def query(self) -> "Query":
        """Start a language-integrated query over this collection."""
        from repro.query.builder import Query

        return Query(self)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self, occupancy_threshold: float = 0.3) -> int:
        """Compact under-occupied blocks (section 5); returns #relocations."""
        from repro.core.compaction import Compactor

        # A checkpoint copies raw blocks and holds the mutation-log lock
        # while it does; relocation must not move objects under it.
        mlog = self.mutation_log
        with mlog.hold() if mlog is not None else contextlib.nullcontext():
            compactor = self.manager.compactor
            owned = False
            if compactor is None:
                compactor = Compactor(self.manager)
                owned = True
            try:
                return compactor.compact_context(self.context, occupancy_threshold)
            finally:
                if owned:
                    compactor.detach()

    def memory_bytes(self) -> int:
        """Bytes mapped for this collection's data blocks."""
        return self.context.total_bytes()

    def blocks(self) -> List["Block"]:
        return self.context.blocks()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Collection {self.name} of {self.schema.__name__}: "
            f"{len(self)} objects in {self.context.block_count()} blocks>"
        )
