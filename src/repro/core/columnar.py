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

from typing import Any, Iterator, Optional, Tuple, Type

import numpy as np

from repro.errors import NullReferenceError, TabularTypeError
from repro.memory import zonemap as _zonemap
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import ColumnarBlock
from repro.memory.context import MemoryContext
from repro.memory.indirection import INC_MASK
from repro.memory.manager import MemoryManager
from repro.memory.reference import Ref
from repro.core.collection import Collection, default_manager
from repro.schema.fields import (
    CharField,
    Field,
    RefField,
    VarStringField,
    char_bytes,
)
from repro.schema.layout import FIELD_REF, FIELD_VAR, EncodedRow
from repro.schema.tabular import Tabular, TabularMeta


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
            # The stored incarnation decides, as for a row handle: a
            # reference to a removed object never reaches the entry's or
            # the slot's next occupant.
            inc = int(block.columns[name + "__i"][slot])
            target = collection.target_collection(field)
            if not manager.direct_pointers:
                return target._handle(Ref(manager, word, inc))
            t_block = manager.space.try_block_at(word)
            t_slot = -1 if t_block is None else t_block.slot_of_address(word)
            if t_block is None or (int(t_block.slot_incs[t_slot]) ^ inc) & INC_MASK:
                raise NullReferenceError("direct pointer to a freed slot")
            entry = int(t_block.backptrs[t_slot])
            return target._handle(Ref(manager, entry, manager.table.incarnation(entry)))
        raw = block.columns[name][slot]
        if isinstance(field, CharField):
            return bytes(raw).rstrip(b" \x00").decode("utf-8")
        if isinstance(field, VarStringField):
            return collection.strdict.text_of(int(raw))
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
            collection.context.bump_version()
        finally:
            epochs.exit_critical_section()

    def __repr__(self) -> str:  # pragma: no cover
        name = self._collection.schema.__name__
        return f"<{name} columnar handle {'alive' if self.is_alive else 'null'}>"


class ColumnarCollection(Collection):
    """A self-managed collection with columnar object storage."""

    handle_class = ColumnarHandle

    def __init__(
        self,
        schema: Type[Tabular],
        manager: Optional[MemoryManager] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(schema, manager, name)
        #: Columnar contexts build columnar blocks instead of row blocks.
        self.context.block_class = ColumnarBlock
        self.context.dict_fields = frozenset(f.name for f in self.layout.var_fields)

    # -- row construction --------------------------------------------------

    def _place(self, block: ColumnarBlock, slot: int, row: EncodedRow) -> None:
        """Write *row*'s raws into the claimed slot of every column, in
        field order (strings too: a missing one is stored as ``""``)."""
        columns = block.columns
        __, raws, __, __ = row
        direct = self.manager.direct_pointers
        for name, kind, index in self.layout.codec.columns:
            raw = raws[index]
            if kind == FIELD_REF:
                if direct and raw != NULL_ADDRESS:
                    field = self.layout.by_name[name]
                    ref = Ref(self.manager, raw, raws[index + 1])
                    raw, inc = self._ref_words(field, ref)
                else:
                    inc = raws[index + 1]
                columns[name + "__w"][slot] = raw
                columns[name + "__i"][slot] = inc
            elif kind == FIELD_VAR:
                columns[name][slot] = self.strdict.intern(
                    raw if type(raw) is str else ""
                )
            else:
                columns[name][slot] = raw

    def _write_field(
        self, block: ColumnarBlock, slot: int, field: Field, value: Any
    ) -> None:
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
            data = char_bytes(value)
            if len(data) > field.width:
                raise ValueError(
                    f"string of {len(data)} bytes exceeds CharField({field.width})"
                )
            block.columns[field.name][slot] = data
            return
        if isinstance(field, VarStringField):
            self.strdict.release(int(block.columns[field.name][slot]))
            block.columns[field.name][slot] = self.strdict.intern(
                "" if value is None else str(value)
            )
            return
        block.columns[field.name][slot] = field.to_raw(value)

    def _release(self, block: ColumnarBlock, address: int) -> None:
        slot = block.slot_of_address(address)
        for field in self.layout.var_fields:
            self.strdict.release(int(block.columns[field.name][slot]))
            block.columns[field.name][slot] = 0

    # -- enumeration --------------------------------------------------------

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
