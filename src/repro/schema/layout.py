"""Slot layout computation for tabular classes.

Given the ordered fields of a tabular class, :class:`SlotLayout` assigns
each field an offset inside the object slot (after the 8-byte slot header)
honouring natural alignment, and rounds the total slot size up to 8 bytes.
All objects of the class share this layout — the fixed size and layout the
paper requires of tabular types (section 2).
"""

from __future__ import annotations

import datetime as _dt
import struct
from decimal import Decimal
from functools import cached_property
from json.encoder import encode_basestring
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import SLOT_HEADER_SIZE
from repro.memory.reference import Ref
from repro.schema.fields import (
    CharField,
    DateField,
    DecimalField,
    Field,
    RefField,
    VarStringField,
    char_bytes,
)
from repro.tagged import decode_value, encode_value, log_json

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

    @cached_property
    def codec(self) -> "RowCodec":
        """The layout's value codec, built on first use."""
        return RowCodec(self)

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


# ----------------------------------------------------------------------
# Row codec: every value to its slot raw, once
# ----------------------------------------------------------------------

#: How the codec treats a field: stored as given (ints, floats), stored
#: through ``to_raw``, a CHAR, a varstring, a reference.
FIELD_PLAIN, FIELD_SCALAR, FIELD_CHAR, FIELD_VAR, FIELD_REF = range(5)

#: ``DateField`` raws count days from 1970-01-01.
_DAY0 = _dt.date(1970, 1, 1).toordinal()
_date = _dt.date.fromordinal

#: What :meth:`RowCodec.encode` returns: ``(supplied, raws, body,
#: strings)``.  ``raws`` holds one value per argument of the codec's row
#: struct: a scalar's stored raw, a ``CHAR`` field's bytes, a reference's
#: ``(entry, incarnation)`` pair (``(NULL_ADDRESS, 0)`` for null) and a
#: varstring's text.  ``body`` is the slot body packed from them with
#: every string word still null; ``strings`` lists ``(raw index, field
#: offset)`` of the words placement stores, in the order it stores them.
#: ``supplied`` is the caller's mapping: its keys, in its order, are the
#: fields the ADD record lists.  A plain tuple — one is built per added
#: row — so it is told from a mapping of values by its type.
EncodedRow = Tuple[Mapping[str, Any], List[Any], bytes, Sequence[Tuple[int, int]]]

#: A field's log text emitter: ``emit(raw, sid_of)`` -> JSON text, where
#: ``sid_of(text)`` binds a varstring's log sid.
Emitter = Callable[[Any, Callable[[str], int]], str]


class RowCodec:
    """Converts a row's values to slot raws, and raws to log text.

    One codec per layout, built once.  ``encode`` takes a mapping of
    field values in any of the three forms a row arrives in — Python
    values (``Collection.add``), the service's tagged wire values
    (``{"$d": "1.50"}``, ``{"$t": "1998-09-02"}``) or the log's (the
    same, plus ``{"$s": sid}`` for strings) — and converts each value
    exactly once, to what the slot stores.  It checks the whole row
    (unknown fields, ``CHAR`` widths, integer ranges) before anything is
    allocated, so a row that encodes can be placed without failing.

    What the write-ahead log records for a field is a function of the
    raw alone, written straight to its JSON text by one emitter per
    field kind: ``{"$r":entry}`` or ``null`` for a reference,
    ``{"$s":sid}`` or ``""`` for a varstring, the JSON string of a
    ``CHAR``'s bytes, ``{"$d":…}`` / ``{"$t":…}`` for a decimal or a date,
    the tagged form of ``from_raw(raw)`` for any other scalar.  Each
    field has two emitters, built once: one writes the bare text (an
    UPDATE's value, :meth:`log_text`), the other the ``"name":text``
    member an ADD record lists (:meth:`add_payload`).  No record is
    built as a dict, and the text is byte for byte what the compact
    JSON encoder makes of the tagged values
    (``tests/test_log_records.py`` holds the dict path as the oracle).

    Rows with fewer than half their fields supplied keep every string
    they were not given null (no heap record, no dictionary code) and
    store the supplied strings in the caller's order; fuller rows store
    every string field in field order, ``""`` for the missing ones.
    """

    def __init__(self, layout: SlotLayout) -> None:
        self.type_name = layout.type_name
        self._nfields = len(layout.fields)
        fmt = ["<"]
        defaults: List[Any] = []
        #: field name -> (raw index, kind, field, convert, text emitter)
        self._spec: Dict[str, Tuple[int, int, Field, Any, Emitter]] = {}
        #: field name -> (raw index, ``"name":text`` emitter)
        self._members: Dict[str, Tuple[int, Emitter]] = {}
        #: (field name, kind, raw index) in field order (columnar placement).
        self.columns: List[Tuple[str, int, int]] = []
        #: (raw index, field) of every reference field.
        self.refs: List[Tuple[int, RefField]] = []
        var_slots = []
        pos = SLOT_HEADER_SIZE
        for f in layout.fields:
            if f.offset > pos:
                fmt.append(f"{f.offset - pos}x")
            pos = f.offset + f.size
            index = len(defaults)
            if isinstance(f, RefField):
                kind, convert = FIELD_REF, None
                fmt.append("qi4x")
                defaults += [NULL_ADDRESS, 0]
                self.refs.append((index, f))
            elif isinstance(f, VarStringField):
                kind, convert = FIELD_VAR, None
                fmt.append("q")
                defaults.append(NULL_ADDRESS)
                var_slots.append((index, f.offset))
            elif isinstance(f, CharField):
                kind, convert = FIELD_CHAR, _char_convert(f)
                fmt.append(f"{f.width}s")
                defaults.append(b"")
            else:
                plain = type(f).to_raw is Field.to_raw
                kind = FIELD_PLAIN if plain else FIELD_SCALAR
                convert = _scalar_convert(f)
                fmt.append(f.fmt)
                defaults.append(f.to_raw(f.default))
            self._spec[f.name] = (index, kind, f, convert, _emitter(f, kind))
            member = _emitter(f, kind, encode_basestring(f.name) + ":")
            self._members[f.name] = (index, member)
            self.columns.append((f.name, kind, index))
        if layout.slot_size > pos:
            fmt.append(f"{layout.slot_size - pos}x")
        self.struct = struct.Struct("".join(fmt))
        self._defaults = defaults
        self._var_slots = tuple(var_slots)

    # -- values -> raws ---------------------------------------------------

    def encode(self, values: Mapping[str, Any], ref_of=None, texts=None) -> EncodedRow:
        """Check and convert one row; nothing is stored yet.

        ``ref_of(field, value)`` turns a reference value into a
        :class:`~repro.memory.reference.Ref` or ``None`` (default: the
        value is a handle, a ``Ref`` or ``None``); ``texts`` maps log
        sids to strings.  Raises ``TypeError`` / ``ValueError`` (or an
        ``ArithmeticError`` from a decimal) naming the offending field.
        """
        spec = self._spec
        raws = self._defaults.copy()
        given = None
        for name, value in values.items():
            try:
                index, kind, field, convert, __ = spec[name]
            except KeyError:
                raise TypeError(
                    f"{self.type_name} has no field {name!r}"
                ) from None
            if kind == FIELD_PLAIN and type(value) is not dict:
                raws[index] = value
            elif kind <= FIELD_CHAR:
                raws[index] = convert(value)
            elif kind == FIELD_VAR:
                if given is None:
                    given = []
                given.append((index, field.offset, _text(field, value, texts)))
            else:
                ref = (ref_of or _ref_of)(field, value)
                if ref is not None:
                    raws[index] = ref.entry
                    raws[index + 1] = ref.inc
        try:
            body = self.struct.pack(*raws)
        except struct.error:
            raise self._pack_error(raws) from None
        if len(values) * 2 >= self._nfields:
            strings = self._var_slots
            for index, __ in strings:
                raws[index] = ""
            if given:
                for index, __, text in given:
                    raws[index] = text
        elif given:
            strings = []
            for index, offset, text in given:
                raws[index] = text
                strings.append((index, offset))
        else:
            strings = ()
        return values, raws, body, strings

    def _pack_error(self, raws: List[Any]) -> ValueError:
        for index, kind, field, __, __ in self._spec.values():
            if kind <= FIELD_CHAR:
                try:
                    field._struct.pack(raws[index])
                except struct.error as exc:
                    return ValueError(
                        f"{self.type_name}.{field.name}: cannot store "
                        f"{raws[index]!r} ({exc})"
                    )
        return ValueError(f"{self.type_name}: row does not pack")

    def field_value(self, name: str, value: Any, ref_of=None, texts=None) -> Any:
        """One field's value checked and converted for a handle update:
        a ``Ref`` (or ``None``), a string, or ``from_raw`` of the raw."""
        try:
            __, kind, field, convert, __ = self._spec[name]
        except KeyError:
            raise TypeError(f"{self.type_name} has no field {name!r}") from None
        if kind == FIELD_REF:
            return (ref_of or _ref_of)(field, value)
        if kind == FIELD_VAR:
            return _text(field, value, texts)
        raw = convert(value)
        try:
            field._struct.pack(raw)
        except struct.error as exc:
            raise ValueError(
                f"{self.type_name}.{name}: cannot store {raw!r} ({exc})"
            ) from None
        return raw.decode("utf-8") if kind == FIELD_CHAR else field.from_raw(raw)

    # -- raws -> log text -------------------------------------------------

    def add_payload(self, head: str, entry: int, row: EncodedRow, sid_of) -> bytes:
        """An ADD record's payload, written from *row*'s raws.

        *head* is the record's ``{"c":…,"s":…,"e":`` prefix; then come
        the entry and ``,"v":{…}}`` listing each supplied field's
        ``"name":text`` member, in the caller's order.
        """
        members = self._members
        supplied, raws, __, __ = row
        parts = []
        for name in supplied:
            index, member = members[name]
            parts.append(member(raws[index], sid_of))
        return f'{head}{entry},"v":{{{",".join(parts)}}}}}'.encode()

    def log_text(self, name: str, value: Any, sid_of) -> str:
        """The log text of one Python field value (UPDATE records)."""
        __, kind, field, convert, emit = self._spec[name]
        if kind == FIELD_REF:
            ref = _ref_of(field, value)
            return "null" if ref is None else emit(ref.entry, sid_of)
        if kind == FIELD_VAR:
            return emit(_text(field, value, None), sid_of)
        return emit(convert(value), sid_of)


def _ref_of(field: RefField, value: Any) -> Optional[Ref]:
    """A Python reference value (handle, ``Ref`` or ``None``) as a Ref."""
    if value is None or isinstance(value, Ref):
        return value
    ref = getattr(value, "ref", None)
    if not isinstance(ref, Ref):
        raise TypeError(
            f"field {field.name} expects a handle, Ref or None; "
            f"got {type(value).__name__}"
        )
    return ref


def _untag(field: Field, value: dict) -> Any:
    """A tagged wire/log value as the Python value it stands for."""
    if "$r" in value:
        raise TypeError(f"field {field.name!r} is not a reference field")
    return decode_value(value)


def _text(field: VarStringField, value: Any, texts) -> str:
    if type(value) is not str:
        if value is None:
            return ""
        if type(value) is dict:
            if texts is not None and "$s" in value:
                return texts[int(value["$s"])]
            value = _untag(field, value)
        value = str(value)
    if not value.isascii():
        value.encode("utf-8")  # a lone surrogate fails here, not in the log
    return value


def _char_convert(field: CharField):
    width = field.width

    def convert(value: Any) -> bytes:
        if type(value) is dict:
            value = _untag(field, value)
        data = char_bytes(value)
        if len(data) > width:
            raise ValueError(
                f"{field.name}: string of {len(data)} bytes exceeds "
                f"CharField({width})"
            )
        return data

    return convert


def _scalar_convert(field: Field):
    to_raw = field.to_raw
    if isinstance(field, DecimalField):
        scale = field.scale

        def convert(value: Any) -> int:
            if type(value) is dict:
                if len(value) == 1 and "$d" in value:
                    return int(
                        Decimal(value["$d"]).scaleb(scale).to_integral_value()
                    )
                value = _untag(field, value)
            return to_raw(value)

    elif isinstance(field, DateField):

        def convert(value: Any) -> int:
            if type(value) is dict:
                if len(value) == 1 and "$t" in value:
                    return _dt.date.fromisoformat(value["$t"]).toordinal() - _DAY0
                value = _untag(field, value)
            return to_raw(value)

    else:

        def convert(value: Any) -> Any:
            if type(value) is dict:
                value = _untag(field, value)
            return to_raw(value)

    return convert


def _emitter(field: Field, kind: int, key: str = "") -> Emitter:
    """*field*'s log text emitter: ``emit(raw, sid_of)`` is *key* (``""``,
    or an ADD member's ``"name":``) followed by the raw's JSON text.

    A raw stored as given (a plain field whose ``from_raw`` is the
    identity) is ``int.__repr__`` for an exact ``int`` and the encoder's
    text for anything else (``bool``, floats and their NaN/Infinity,
    NumPy scalars).
    """
    if kind == FIELD_REF:
        null, ref = key + "null", key + '{"$r":%d}'
        return lambda raw, sid_of: null if raw == NULL_ADDRESS else ref % raw
    if kind == FIELD_VAR:
        empty, sid = key + '""', key + '{"$s":%d}'
        return lambda raw, sid_of: sid % sid_of(raw) if raw else empty
    if kind == FIELD_CHAR:
        return lambda raw, sid_of: key + encode_basestring(raw.decode("utf-8"))
    if isinstance(field, DecimalField):
        quantum, decimal = field._quantum, key + '{"$d":"%s"}'
        return lambda raw, sid_of: decimal % (Decimal(raw) * quantum)
    if isinstance(field, DateField):
        # ``str`` of a date is its ISO form; the ordinal is convert's inverse.
        date = key + '{"$t":"%s"}'
        return lambda raw, sid_of: date % _date(raw + _DAY0)
    if type(field).from_raw is Field.from_raw:
        return lambda raw, sid_of: key + (
            repr(raw) if type(raw) is int else log_json(encode_value(raw))
        )
    from_raw = field.from_raw
    return lambda raw, sid_of: key + log_json(encode_value(from_raw(raw)))
