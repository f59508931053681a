"""Slot layout computation for tabular classes.

Given the ordered fields of a tabular class, :class:`SlotLayout` assigns
each field an offset inside the object slot (after the 8-byte slot header)
honouring natural alignment, and rounds the total slot size up to 8 bytes.
All objects of the class share this layout — the fixed size and layout the
paper requires of tabular types (section 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import SLOT_HEADER_SIZE
from repro.schema.fields import CharField, Field, RefField, VarStringField

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.manager import MemoryManager


def _align(offset: int, alignment: int) -> int:
    remainder = offset % alignment
    return offset if remainder == 0 else offset + alignment - remainder


class SlotLayout:
    """Field offsets and codecs for one tabular class."""

    def __init__(self, fields: Sequence[Field], type_name: str) -> None:
        if not fields:
            raise ValueError(f"tabular class {type_name} declares no fields")
        self.type_name = type_name
        self.fields: List[Field] = list(fields)
        self.by_name: Dict[str, Field] = {}

        offset = SLOT_HEADER_SIZE
        for f in self.fields:
            offset = _align(offset, f.align)
            f.offset = offset
            offset += f.size
            self.by_name[f.name] = f

        self.slot_size = _align(offset, 8)
        #: ``column name -> (dtype, byte offset in the slot)`` in field
        #: order; blocks build their per-field NumPy views from this.
        self.columns: Dict[str, Tuple[Any, int]] = {
            name: (dtype, f.offset + delta)
            for f in self.fields
            for name, dtype, delta in f.columns()
        }
        self.var_fields: List[VarStringField] = [
            f for f in self.fields if isinstance(f, VarStringField)
        ]
        self.ref_fields: List[RefField] = [
            f for f in self.fields if isinstance(f, RefField)
        ]
        self.scalar_fields: List[Field] = [
            f
            for f in self.fields
            if not isinstance(f, (RefField, VarStringField))
        ]

        self._template_body: Optional[bytes] = None
        self._full_struct = None
        self._default_raws: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # Fast row construction
    # ------------------------------------------------------------------

    @property
    def template_body(self) -> bytes:
        """Default-initialised slot bytes (excluding the 8-byte header).

        ``Collection.add`` blits this template with one slice assignment —
        the Python analogue of the default constructor running over
        freshly allocated memory — and then overwrites only the supplied
        fields.
        """
        if self._template_body is None:
            buf = bytearray(self.slot_size)
            for f in self.fields:
                if isinstance(f, RefField):
                    f.encode_words(buf, f.offset, NULL_ADDRESS, 0)
                elif isinstance(f, VarStringField):
                    f._struct.pack_into(buf, f.offset, NULL_ADDRESS)
                else:
                    f.encode_into(buf, f.offset, f.default)
            self._template_body = bytes(buf[SLOT_HEADER_SIZE:])
        return self._template_body

    def _ensure_full_struct(self) -> None:
        """One combined Struct covering every field (with pad bytes)."""
        if self._full_struct is not None:
            return
        import struct as _struct

        fmt = ["<"]
        pos = SLOT_HEADER_SIZE
        for f in self.fields:
            if f.offset > pos:
                fmt.append(f"{f.offset - pos}x")
                pos = f.offset
            if isinstance(f, RefField):
                fmt.append("qi4x")
                pos += 16
            elif isinstance(f, CharField):
                fmt.append(f"{f.width}s")
                pos += f.width
            else:
                fmt.append(f.fmt)
                pos += f.size
        if self.slot_size > pos:
            fmt.append(f"{self.slot_size - pos}x")
        self._full_struct = _struct.Struct("".join(fmt))

    def pack_full_row(
        self,
        buf,
        slot_off: int,
        values: Dict[str, Any],
        manager: "MemoryManager",
        ref_encoder,
    ) -> None:
        """Write a whole row with a single combined struct pack.

        ``ref_encoder(field, value)`` converts user reference values to
        stored ``(word, inc)`` pairs (collection-supplied, mode-aware).
        """
        self._ensure_full_struct()
        raws: List[Any] = []
        for f in self.fields:
            if isinstance(f, RefField):
                pair = None
                if f.name in values:
                    pair = ref_encoder(f, values[f.name])
                raws.extend(pair if pair is not None else (NULL_ADDRESS, 0))
            elif isinstance(f, VarStringField):
                raws.append(f.store_raw(values.get(f.name, ""), manager))
            elif isinstance(f, CharField):
                data = str(values.get(f.name, "")).encode("utf-8")
                if len(data) > f.width:
                    raise ValueError(
                        f"string of {len(data)} bytes exceeds "
                        f"CharField({f.width})"
                    )
                raws.append(data)
            else:
                raws.append(f.to_raw(values.get(f.name, f.default)))
        self._full_struct.pack_into(buf, slot_off + SLOT_HEADER_SIZE, *raws)

    # ------------------------------------------------------------------
    # Row writing
    # ------------------------------------------------------------------

    def write_new(
        self,
        buf,
        slot_off: int,
        values: Dict[str, Any],
        manager: "MemoryManager",
    ) -> None:
        """Initialise a freshly-allocated slot from *values*.

        Missing fields take their type default.  ``RefField`` values must
        already be ``(word, inc)`` pairs (or ``None``) — the collection
        layer converts user references according to the pointer mode.
        """
        unknown = set(values) - set(self.by_name)
        if unknown:
            raise TypeError(
                f"{self.type_name} has no field(s) {sorted(unknown)!r}"
            )
        for f in self.fields:
            off = slot_off + f.offset
            if isinstance(f, RefField):
                pair: Optional[Tuple[int, int]] = values.get(f.name)
                if pair is None:
                    f.encode_words(buf, off, NULL_ADDRESS, 0)
                else:
                    f.encode_words(buf, off, pair[0], pair[1])
            elif isinstance(f, VarStringField):
                # A fresh slot may contain a stale address from the slot's
                # previous occupant; clear it before encode frees "old".
                f._struct.pack_into(buf, off, NULL_ADDRESS)
                f.encode_into(buf, off, values.get(f.name, f.default), manager)
            else:
                f.encode_into(buf, off, values.get(f.name, f.default), manager)

    def write_field(
        self, buf, slot_off: int, name: str, value: Any, manager: "MemoryManager"
    ) -> None:
        f = self.by_name[name]
        if isinstance(f, RefField):
            if value is None:
                f.encode_words(buf, slot_off + f.offset, NULL_ADDRESS, 0)
            else:
                word, inc = value
                f.encode_words(buf, slot_off + f.offset, word, inc)
        else:
            f.encode_into(buf, slot_off + f.offset, value, manager)

    # ------------------------------------------------------------------
    # Row reading
    # ------------------------------------------------------------------

    def read_field(
        self, buf, slot_off: int, name: str, manager: "MemoryManager"
    ) -> Any:
        f = self.by_name[name]
        off = slot_off + f.offset
        if isinstance(f, RefField):
            word, inc = f.decode_words(buf, off)
            return (word, inc)
        return f.decode_from(buf, off, manager)

    def read_row(
        self, buf, slot_off: int, manager: "MemoryManager"
    ) -> Dict[str, Any]:
        """Decode every field (RefFields as raw ``(word, inc)`` pairs)."""
        return {
            f.name: self.read_field(buf, slot_off, f.name, manager)
            for f in self.fields
        }

    # ------------------------------------------------------------------
    # Lifetime hooks
    # ------------------------------------------------------------------

    def release_owned(self, buf, slot_off: int, manager: "MemoryManager") -> None:
        """Free out-of-slot storage owned by the object (strings)."""
        for f in self.var_fields:
            f.release_into(buf, slot_off + f.offset, manager)

    # ------------------------------------------------------------------
    # Codegen support
    # ------------------------------------------------------------------

    def offset_of(self, name: str) -> int:
        return self.by_name[name].offset

    def names(self) -> List[str]:
        return [f.name for f in self.fields]

    def __repr__(self) -> str:  # pragma: no cover
        cols = ", ".join(f"{f.name}@{f.offset}" for f in self.fields)
        return f"<SlotLayout {self.type_name} size={self.slot_size} [{cols}]>"
