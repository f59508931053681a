"""Columnar storage for SMCs (paper section 4.1).

Because an SMC's blocks contain only objects of one collection (hence one
type), the collection can decouple the storage layout from the class
definition and store each field as a per-block column.  The indirection
table then stores the object's *(block, slot)* identifiers instead of a
byte pointer — encoded here as the usual block-aligned address whose
offset part is the slot index — and both reference dereferencing and the
query compiler access values column-wise.

Columnar blocks keep the full slot-directory / back-pointer / slot-header
machinery of row blocks, so allocation, removal, epochs and limbo
reclamation work unchanged; compaction is not offered for columnar
collections (the paper describes relocation for row blocks only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np

from repro.errors import NullReferenceError, TabularTypeError
from repro.memory import slots as slotcodec
from repro.memory import zonemap as _zonemap
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import (
    BLOCK_HEADER_SIZE,
    KIND_COLUMNAR,
    _HEADER_STRUCT,
    recount,
)
from repro.memory.context import MemoryContext
from repro.memory.indirection import INC_MASK
from repro.memory.manager import MemoryManager
from repro.memory.reference import Ref
from repro.memory.slots import FREE, LIMBO, VALID
from repro.sanitizer import hooks as _san
from repro.core.collection import Collection, default_manager
from repro.schema.fields import (
    BoolField,
    CharField,
    DateField,
    DecimalField,
    Field,
    Float64Field,
    Int8Field,
    Int16Field,
    Int32Field,
    Int64Field,
    RefField,
    VarStringField,
)
from repro.schema.tabular import Tabular, TabularMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.addressing import AddressSpace


def column_dtype(field: Field, dict_codes: bool = False) -> Union[np.dtype, str]:
    """NumPy dtype storing *field*'s raw representation in a column.

    With *dict_codes*, varstring columns hold fixed-width dictionary codes
    (int32) instead of 8-byte string-heap addresses.
    """
    if isinstance(field, VarStringField):
        return np.int32 if dict_codes else np.int64
    if isinstance(field, (DecimalField, Int64Field)):
        return np.int64
    if isinstance(field, (DateField, Int32Field)):
        return np.int32
    if isinstance(field, Int16Field):
        return np.int16
    if isinstance(field, (Int8Field, BoolField)):
        return np.int8
    if isinstance(field, Float64Field):
        return np.float64
    if isinstance(field, CharField):
        return f"S{field.width}"
    raise TypeError(f"no column dtype for {type(field).__name__}")


def columnar_offsets(
    layout, dict_fields: frozenset, n: int
) -> Tuple[List[Tuple[str, np.dtype, int]], int, int, int, int]:
    """Byte layout of an *n*-slot columnar block buffer.

    Returns ``(columns, dir_off, bp_off, inc_off, total)`` where *columns*
    is ``[(name, dtype, offset)]`` in field order (ref fields contribute a
    ``__w`` int64 and ``__i`` uint32 pair).  The function is purely
    deterministic in ``(layout, dict_fields, n)`` so a worker process that
    read ``n`` out of the block header recomputes the exact same offsets
    and rebuilds its views over the attached segment.
    """

    def _align(off: int, a: int = 8) -> int:
        return off + (-off % a)

    cols: List[Tuple[str, np.dtype, int]] = []
    off = BLOCK_HEADER_SIZE
    for f in layout.fields:
        if isinstance(f, RefField):
            for suffix, dt in ((f.name + "__w", np.int64), (f.name + "__i", np.uint32)):
                dt = np.dtype(dt)
                off = _align(off)
                cols.append((suffix, dt, off))
                off += n * dt.itemsize
        else:
            dt = np.dtype(column_dtype(f, f.name in dict_fields))
            off = _align(off)
            cols.append((f.name, dt, off))
            off += n * dt.itemsize
    dir_off = _align(off)
    bp_off = _align(dir_off + 4 * n)
    inc_off = _align(bp_off + 8 * n)
    total = inc_off + 4 * n
    return cols, dir_off, bp_off, inc_off, total


class ColumnarBlock:
    """A block whose object data lives in per-field column arrays."""

    __slots__ = (
        "space",
        "block_id",
        "base_address",
        "segment",
        "buf",
        "type_id",
        "context_id",
        "slot_size",
        "slot_count",
        "columns",
        "directory",
        "backptrs",
        "slot_incs",
        "valid_count",
        "limbo_count",
        "alloc_cursor",
        "is_active",
        "compacting",
        "queued_for_reclaim",
        "reclaim_ready_epoch",
        "relocation_list",
        "compaction_group",
        "zones",
        "zone_version",
        "residency",
        "pin_count",
        "tier_dirty",
        "tier_offset",
        "read_clock",
        "cool_epoch",
        "_view_spec",
    )

    def __init__(
        self,
        space: "AddressSpace",
        layout,
        type_id: int,
        context_id: int,
        dict_fields: frozenset = frozenset(),
    ) -> None:
        # Same per-object budget as a row block of this type would have,
        # shrunk until all columns + metadata segments (with their 8-byte
        # alignment padding) fit the fixed block size.
        n = max(1, (space.block_size - BLOCK_HEADER_SIZE) // (layout.slot_size + 4 + 8))
        while columnar_offsets(layout, dict_fields, n)[4] > space.block_size and n > 1:
            n -= 1
        # All columns and metadata live in ONE flat buffer with a
        # self-describing header, exactly like row blocks, so a worker
        # process can attach the segment and recompute every view from
        # (header, layout) alone.
        self._attach(
            space,
            space.register(self),
            space.buffers.create(space.block_size),
            layout,
            type_id,
            context_id,
            dict_fields,
            n,
        )
        for f in layout.fields:
            if isinstance(f, RefField):
                self.columns[f.name + "__w"].fill(NULL_ADDRESS)
        self.backptrs.fill(-1)

    @classmethod
    def adopt(
        cls,
        space: "AddressSpace",
        block_id: int,
        segment,
        layout,
        type_id: int,
        context_id: int,
        dict_fields: frozenset,
    ) -> "ColumnarBlock":
        """Rebuild a block around an existing image (snapshot load); see
        :meth:`repro.memory.block.Block.adopt`."""
        __, __, n, stored_size, kind = _HEADER_STRUCT.unpack_from(segment.buf, 0)
        if kind != KIND_COLUMNAR or stored_size != layout.slot_size or n < 1:
            raise ValueError(
                f"image is not a columnar block of {layout.slot_size}-byte "
                f"objects (kind {kind}, {n} x {stored_size} bytes)"
            )
        self = cls.__new__(cls)
        self._attach(
            space,
            space.register(self, block_id),
            segment,
            layout,
            type_id,
            context_id,
            dict_fields,
            n,
        )
        recount(self)
        return self

    def _attach(
        self,
        space: "AddressSpace",
        block_id: int,
        segment,
        layout,
        type_id: int,
        context_id: int,
        dict_fields: frozenset,
        n: int,
    ) -> None:
        """Bind this block to its id and buffer; runtime state starts idle."""
        cols, dir_off, bp_off, inc_off, total = columnar_offsets(layout, dict_fields, n)
        if total > space.block_size:
            raise ValueError(
                f"columnar layout of {n} x {layout.slot_size}B objects does "
                f"not fit a {space.block_size}-byte block"
            )
        self.space = space
        self.block_id = block_id
        self.base_address = space.address_of(block_id)
        self.type_id = type_id
        self.context_id = context_id
        self.slot_size = layout.slot_size  # nominal, for memory accounting
        self.slot_count = n
        self.segment = segment
        self.buf = segment.buf
        _HEADER_STRUCT.pack_into(
            self.buf, 0, type_id, context_id, n, layout.slot_size, KIND_COLUMNAR
        )
        self._view_spec = (cols, dir_off, bp_off, inc_off)
        self._bind_views()
        self.valid_count = 0
        self.limbo_count = 0
        self.alloc_cursor = 0
        self.is_active = False
        self.compacting = False
        self.queued_for_reclaim = False
        self.reclaim_ready_epoch = -1
        self.relocation_list = None
        self.compaction_group = None
        self.zones = None
        self.zone_version = 0
        # --- memory tiering (repro.memory.pager); see Block -------------
        self.residency = "hot"
        self.pin_count = 0
        self.tier_dirty = False
        self.tier_offset = -1
        self.read_clock = 0
        self.cool_epoch = -1

    @property
    def directory_offset(self) -> int:
        """Byte offset of the slot directory inside the buffer."""
        return self._view_spec[1]

    def _bind_views(self) -> None:
        """(Re)build column and metadata views over the current ``buf``.

        Write-free, so the pager can call it over a read-only cold
        mapping; see :meth:`repro.memory.block.Block._bind_views`.
        """
        cols, dir_off, bp_off, inc_off = self._view_spec
        n = self.slot_count
        mv = memoryview(self.buf)
        self.columns: Dict[str, np.ndarray] = {
            name: np.frombuffer(mv, dtype=dt, count=n, offset=off)
            for name, dt, off in cols
        }
        self.directory = np.frombuffer(mv, dtype=np.uint32, count=n, offset=dir_off)
        self.backptrs = np.frombuffer(mv, dtype=np.int64, count=n, offset=bp_off)
        self.slot_incs = np.frombuffer(mv, dtype=np.uint32, count=n, offset=inc_off)

    # -- address arithmetic: offset part IS the slot id ------------------

    def slot_address(self, slot: int) -> int:
        return self.base_address | slot

    def slot_of_address(self, address: int) -> int:
        return self.space.offset_of(address)

    # -- slot directory (same protocol as row blocks) --------------------

    def state_of(self, slot: int) -> int:
        return int(self.directory[slot]) & slotcodec.STATE_MASK

    def mark_valid(self, slot: int) -> None:
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "slot.valid", block=self, slot=slot, word=int(self.directory[slot])
            )
        prev = int(self.directory[slot]) & slotcodec.STATE_MASK
        self.directory[slot] = slotcodec.pack(VALID)
        if prev == LIMBO:
            self.limbo_count -= 1
        self.valid_count += 1
        self.zone_version += 1  # invalidate the zone map (see Block.mark_valid)

    def mark_limbo(self, slot: int, epoch: int) -> None:
        if _san.SANITIZER is not None:
            _san.SANITIZER.event(
                "slot.limbo",
                block=self,
                slot=slot,
                word=int(self.directory[slot]),
                epoch=epoch,
            )
        if self.state_of(slot) != VALID:
            raise ValueError(f"slot {slot} is not valid")
        self.directory[slot] = slotcodec.pack(LIMBO, epoch)
        self.valid_count -= 1
        self.limbo_count += 1

    def valid_slots(self) -> np.ndarray:
        return np.nonzero((self.directory & slotcodec.STATE_MASK) == VALID)[0]

    def valid_mask(self) -> np.ndarray:
        return (self.directory & slotcodec.STATE_MASK) == VALID

    def iter_valid_slots(self) -> Iterator[int]:
        for slot in self.valid_slots():
            yield int(slot)

    def find_allocatable(self, start: int, global_epoch: int) -> Optional[int]:
        directory = self.directory
        for slot in range(start, self.slot_count):
            word = int(directory[slot])
            state = word & slotcodec.STATE_MASK
            if state == FREE:
                return slot
            if state == LIMBO and global_epoch >= slotcodec.epoch_of(word) + 2:
                return slot
        return None

    @property
    def limbo_fraction(self) -> float:
        return self.limbo_count / self.slot_count

    @property
    def occupancy(self) -> float:
        return self.valid_count / self.slot_count

    def release(self) -> None:
        self.space.unregister(self.block_id)
        # Views must die before the backing segment can be unmapped.
        self.columns = None
        self.directory = None
        self.backptrs = None
        self.slot_incs = None
        self.buf = None
        self.segment.release()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ColumnarBlock id={self.block_id} type={self.type_id} "
            f"valid={self.valid_count}/{self.slot_count}>"
        )


class ColumnarHandle:
    """Checked per-object view over a columnar collection."""

    __slots__ = ("_collection", "_ref")

    def __init__(self, collection: "ColumnarCollection", ref: Ref) -> None:
        object.__setattr__(self, "_collection", collection)
        object.__setattr__(self, "_ref", ref)

    @property
    def ref(self) -> Ref:
        return self._ref

    @property
    def is_alive(self) -> bool:
        return self._ref.is_alive

    def __eq__(self, other):
        if isinstance(other, ColumnarHandle):
            return self._ref == other._ref
        return NotImplemented

    def __hash__(self):
        return hash(self._ref)

    def _locate(self) -> Tuple[ColumnarBlock, int]:
        address = self._ref.address()
        block = self._collection.manager.space.block_at(address)
        return block, block.slot_of_address(address)

    def __getattr__(self, name: str) -> Any:
        collection = self._collection
        field = collection.layout.by_name.get(name)
        if field is None:
            raise AttributeError(name)
        epochs = collection.manager.epochs
        epochs.enter_critical_section()
        try:
            return self._get_field(collection, field, name)
        finally:
            epochs.exit_critical_section()

    def _get_field(self, collection, field, name: str) -> Any:
        block, slot = self._locate()
        manager = collection.manager
        if isinstance(field, RefField):
            word = int(block.columns[name + "__w"][slot])
            if word == NULL_ADDRESS:
                return None
            target = collection.target_collection(field)
            if manager.direct_pointers:
                t_addr = word
                t_block = manager.space.block_at(t_addr)
                t_slot = t_block.slot_of_address(t_addr)
                entry = int(t_block.backptrs[t_slot])
            else:
                entry = word
            return target._handle(Ref(manager, entry, manager.table.incarnation(entry)))
        raw = block.columns[name][slot]
        if isinstance(field, CharField):
            return bytes(raw).rstrip(b" \x00").decode("utf-8")
        if isinstance(field, VarStringField):
            sd = collection.strdict
            if sd is not None:
                return sd.text_of(int(raw))
            return manager.strings.read(int(raw))
        return field.from_raw(
            raw.item() if isinstance(raw, np.generic) else raw
        )

    def __setattr__(self, name: str, value: Any) -> None:
        collection = self._collection
        field = collection.layout.by_name.get(name)
        if field is None:
            raise AttributeError(name)
        mlog = collection.mutation_log
        if mlog is None:
            self._set_field(collection, field, name, value)
            return
        with mlog.hold():
            self._set_field(collection, field, name, value)
            mlog.log_update(collection, self._ref.entry, name, value)

    def _set_field(self, collection, field, name: str, value: Any) -> None:
        epochs = collection.manager.epochs
        epochs.enter_critical_section()
        try:
            block, slot = self._locate()
            pager = collection.manager.pager
            if pager is not None:
                pager.ensure_hot(block)  # writable columns; cancels cooling
            collection._write_field(block, slot, field, value)
            if _zonemap.is_zoned(field):
                block.zone_version += 1  # invalidate the zone map
            if not isinstance(field, RefField):
                collection._notify_field_update(
                    self._ref.entry, name, field.from_raw(field.to_raw(value))
                )
        finally:
            epochs.exit_critical_section()

    def __repr__(self) -> str:  # pragma: no cover
        name = self._collection.schema.__name__
        return f"<{name} columnar handle {'alive' if self.is_alive else 'null'}>"


class ColumnarCollection(Collection):
    """A self-managed collection with columnar object storage."""

    compiled_flavor = "columnar"

    def __init__(
        self,
        schema: Type[Tabular],
        manager: Optional[MemoryManager] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(schema, manager, name)
        layout = self.layout
        mgr = self.manager
        type_id = self.context.type_id
        context = self.context
        dict_fields = (
            frozenset(f.name for f in layout.var_fields)
            if self.strdict is not None
            else frozenset()
        )
        def block_factory(block_id=None, segment=None):
            if segment is not None:  # snapshot load: adopt an image
                return ColumnarBlock.adopt(
                    mgr.space,
                    block_id,
                    segment,
                    layout,
                    type_id,
                    context.context_id,
                    dict_fields,
                )
            return ColumnarBlock(
                mgr.space, layout, type_id, context.context_id, dict_fields
            )

        #: Columnar contexts build columnar blocks instead of row blocks.
        context.block_factory = block_factory
        #: Recorded so a worker attaching this context's blocks by segment
        #: name can recompute the exact column offsets (columnar_offsets).
        context.dict_fields = dict_fields

    # -- row construction --------------------------------------------------

    def add(self, **values: Any):
        mlog = self.mutation_log
        if mlog is None:
            return self._add_impl(values)
        with mlog.hold():
            handle = self._add_impl(values)
            mlog.log_add(self, handle.ref.entry, values)
            return handle

    def _add_impl(self, values: Dict[str, Any]):
        converted: Dict[str, Any] = {}
        for key, value in values.items():
            field = self.layout.by_name.get(key)
            if field is None:
                raise TypeError(f"{self.schema.__name__} has no field {key!r}")
            converted[key] = value
        block, slot, ref = self.manager.allocate_object(
            self.context, defer_publish=True
        )
        for field in self.layout.fields:
            self._write_field(
                block, slot, field, converted.get(field.name, field.default)
            )
        self.context.commit_slot(block, slot)
        handle = ColumnarHandle(self, ref)
        for index in self._indexes:
            index._insert(ref.entry, getattr(handle, index.field_name))
        return handle

    def _write_field(
        self, block: ColumnarBlock, slot: int, field: Field, value: Any
    ) -> None:
        manager = self.manager
        if isinstance(field, RefField):
            pair = self._ref_words(field, value)
            if pair is None:
                block.columns[field.name + "__w"][slot] = NULL_ADDRESS
                block.columns[field.name + "__i"][slot] = 0
            else:
                block.columns[field.name + "__w"][slot] = pair[0]
                block.columns[field.name + "__i"][slot] = pair[1]
            return
        if isinstance(field, CharField):
            data = str(value).encode("utf-8")
            if len(data) > field.width:
                raise ValueError(
                    f"string of {len(data)} bytes exceeds CharField({field.width})"
                )
            block.columns[field.name][slot] = data
            return
        if isinstance(field, VarStringField):
            text = "" if value is None else str(value)
            sd = self.strdict
            old = int(block.columns[field.name][slot])
            if sd is not None:
                if old > 0:
                    sd.release(old)
                block.columns[field.name][slot] = sd.intern(text)
                return
            if old != NULL_ADDRESS and old != 0:
                manager.strings.free(old)
            block.columns[field.name][slot] = manager.strings.alloc(text)
            return
        block.columns[field.name][slot] = field.to_raw(value)

    def remove(self, obj: Union[ColumnarHandle, Ref]) -> None:
        ref = obj.ref if isinstance(obj, ColumnarHandle) else obj
        mlog = self.mutation_log
        if mlog is None:
            self._remove_impl(ref)
            return
        with mlog.hold():
            self._remove_impl(ref)
            mlog.log_remove(self, ref.entry)

    def _remove_impl(self, ref: Ref) -> None:
        epochs = self.manager.epochs
        epochs.enter_critical_section()
        try:
            address = ref.address()
            block = self.manager.space.block_at(address)
            slot = block.slot_of_address(address)
            pager = self.manager.pager
            if pager is not None:
                pager.ensure_hot(block)  # the column zeroing below writes
            sd = self.strdict
            for field in self.layout.var_fields:
                raw = int(block.columns[field.name][slot])
                if sd is not None:
                    if raw > 0:
                        sd.release(raw)
                    block.columns[field.name][slot] = 0
                elif raw != NULL_ADDRESS and raw != 0:
                    self.manager.strings.free(raw)
                    block.columns[field.name][slot] = NULL_ADDRESS
            self.manager.free_object(ref)
        finally:
            epochs.exit_critical_section()
        for index in self._indexes:
            index._delete(ref.entry)

    # -- enumeration --------------------------------------------------------

    def _handle(self, ref: Ref) -> ColumnarHandle:
        return ColumnarHandle(self, ref)

    def __iter__(self) -> Iterator[ColumnarHandle]:
        manager = self.manager
        from repro.query.runtime import scan_blocks

        for block in scan_blocks(manager, self.context):
            with manager.critical_section():
                handles = [
                    ColumnarHandle(
                        self,
                        Ref(
                            manager,
                            int(block.backptrs[slot]),
                            manager.table.incarnation(int(block.backptrs[slot])),
                        ),
                    )
                    for slot in block.valid_slots()
                ]
            yield from handles

    def compact(self, occupancy_threshold: float = 0.3) -> int:
        raise NotImplementedError(
            "compaction is defined for row-layout SMCs (paper section 5)"
        )
