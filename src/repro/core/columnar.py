"""Columnar storage for SMCs (paper section 4.1).

Because an SMC's blocks contain only objects of one collection (hence one
type), the collection can decouple the storage layout from the class
definition and store each field as a per-block column.  The indirection
table then stores the object's *(block, slot)* identifiers instead of a
byte pointer — encoded here as the usual block-aligned address whose
offset part is the slot index — and both reference dereferencing and the
query compiler access values column-wise.

The layout is the collection's business alone: the program holds the same
:class:`~repro.core.handle.Handle` over either layout, and
:class:`ColumnarCollection` overrides only the collection's layout hooks —
``_place`` and ``_release`` (construction and removal) and ``_read_field``
and ``_write_field`` (one column entry per field access).

Columnar blocks keep the full slot-directory / back-pointer / slot-header
machinery of row blocks, so allocation, removal, epochs and limbo
reclamation work unchanged; compaction is not offered for columnar
collections (the paper describes relocation for row blocks only).
"""

from __future__ import annotations

from typing import Any, Optional, Type

from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import ColumnarBlock
from repro.memory.manager import MemoryManager
from repro.memory.reference import Ref
from repro.core.collection import Collection
from repro.core.handle import read_reference
from repro.schema.fields import (
    CharField,
    Field,
    RefField,
    VarStringField,
    char_bytes,
)
from repro.schema.layout import FIELD_REF, FIELD_VAR, EncodedRow
from repro.schema.tabular import Tabular


class ColumnarCollection(Collection):
    """A self-managed collection with columnar object storage."""

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

    def _release(self, block: ColumnarBlock, address: int) -> None:
        slot = block.slot_of_address(address)
        for field in self.layout.var_fields:
            self.strdict.release(int(block.columns[field.name][slot]))
            block.columns[field.name][slot] = 0

    # -- field access: one column entry per field ---------------------------

    def _read_field(self, block: ColumnarBlock, address: int, field: Field) -> Any:
        slot = block.slot_of_address(address)
        columns = block.columns
        if isinstance(field, RefField):
            word = int(columns[field.name + "__w"][slot])
            inc = int(columns[field.name + "__i"][slot])
            return read_reference(self, field, word, inc, block, address)
        raw = columns[field.name][slot]
        if isinstance(field, CharField):
            return bytes(raw).rstrip(b" \x00").decode("utf-8")
        if isinstance(field, VarStringField):
            return self.strdict.text_of(int(raw))
        return field.from_raw(raw.item())

    def _write_field(
        self, block: ColumnarBlock, address: int, field: Field, value: Any
    ) -> None:
        slot = block.slot_of_address(address)
        columns = block.columns
        if isinstance(field, RefField):
            word, inc = self._ref_words(field, value) or (NULL_ADDRESS, 0)
            columns[field.name + "__w"][slot] = word
            columns[field.name + "__i"][slot] = inc
        elif isinstance(field, CharField):
            data = char_bytes(value)
            if len(data) > field.width:
                raise ValueError(
                    f"string of {len(data)} bytes exceeds CharField({field.width})"
                )
            columns[field.name][slot] = data
        elif isinstance(field, VarStringField):
            self.strdict.release(int(columns[field.name][slot]))
            columns[field.name][slot] = self.strdict.intern(
                "" if value is None else str(value)
            )
        else:
            columns[field.name][slot] = field.to_raw(value)

    def compact(self, occupancy_threshold: float = 0.3) -> int:
        raise NotImplementedError(
            "compaction is defined for row-layout SMCs (paper section 5)"
        )
