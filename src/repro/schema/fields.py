"""Field types for tabular classes.

Tabular objects have a fixed size and memory layout (paper section 2), so
every field maps to a fixed number of bytes inside the object's slot:

==================  =====  ==========================================
Field               bytes  stored representation
==================  =====  ==========================================
Int8/16/32/64Field  1-8    two's-complement integer
BoolField           1      0 / 1
Float64Field        8      IEEE-754 double
DecimalField        8      int64 fixed-point (value * 10**scale)
DateField           4      days since 1970-01-01
CharField(n)        n      NUL-padded bytes (fixed-width string)
VarStringField      8      address of a string-heap record
RefField(T)         16     (entry index | address) + incarnation word
==================  =====  ==========================================

``DecimalField`` reproduces the paper's 16-byte C# ``decimal`` role: exact
money arithmetic.  The *handle* access path converts to
:class:`decimal.Decimal` (the analogue of call-by-value decimal math); the
"unsafe" compiled query path operates on the raw int64 fixed-point value
in place, which is where the paper's Query 1 speedup comes from.

Fields double as expression-tree roots for the query builder: comparison
and arithmetic operators on a bound field produce
:class:`repro.query.expressions.Expr` nodes, the Python analogue of LINQ's
statically-known query structure.
"""

from __future__ import annotations

import datetime as _dt
import struct
from decimal import Decimal
from typing import TYPE_CHECKING, Any, Optional, Tuple, Type, Union

import numpy as np

from repro.memory.addressing import NULL_ADDRESS

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.manager import MemoryManager
    from repro.memory.reference import Ref

_EPOCH_DATE = _dt.date(1970, 1, 1)


def date_to_days(value: Union[_dt.date, str]) -> int:
    """Convert a date (or ISO string) to days since 1970-01-01."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - _EPOCH_DATE).days


def days_to_date(days: int) -> _dt.date:
    return _EPOCH_DATE + _dt.timedelta(days=days)


class Field:
    """Base class for all tabular field types.

    A field is *bound* when its owning tabular class assigns it a name and
    an in-slot offset; unbound fields cannot be used in expressions.
    """

    size: int = 0
    align: int = 1
    fmt: str = ""  # struct format character for scalar fields

    __slots__ = ("name", "offset", "index", "owner", "_struct")

    def __init__(self) -> None:
        self.name: str = ""
        self.offset: int = -1
        self.index: int = -1
        self.owner: Optional[type] = None
        self._struct: Optional[struct.Struct] = None

    def _bind(self, owner: type, name: str, index: int) -> None:
        self.owner = owner
        self.name = name
        self.index = index
        if self.fmt:
            self._struct = struct.Struct("<" + self.fmt)

    # ------------------------------------------------------------------
    # Storage codec — overridden by non-scalar fields
    # ------------------------------------------------------------------

    def encode_into(self, buf, off: int, value: Any, manager=None) -> None:
        self._struct.pack_into(buf, off, self.to_raw(value))

    def decode_from(self, buf, off: int, manager=None) -> Any:
        return self.from_raw(self._struct.unpack_from(buf, off)[0])

    def raw_from(self, buf, off: int) -> Any:
        """Read the stored raw value without conversion (unsafe path)."""
        return self._struct.unpack_from(buf, off)[0]

    def release_into(self, buf, off: int, manager) -> None:
        """Free any out-of-slot storage owned by this field (strings)."""

    def to_raw(self, value: Any) -> Any:
        """Convert a user value to the stored representation."""
        return value

    def from_raw(self, raw: Any) -> Any:
        """Convert the stored representation back to the user value."""
        return raw

    @property
    def default(self) -> Any:
        """Value used when a field is not supplied at ``add`` time."""
        return 0

    def columns(self) -> Tuple[Tuple[str, np.dtype, int], ...]:
        """``(column name, dtype, byte offset inside the field)`` of every
        NumPy column the stored representation is read as — the one
        field-to-dtype table behind row views and columnar blocks alike."""
        return ((self.name, np.dtype(self.fmt), 0),)

    # ------------------------------------------------------------------
    # Expression building (LINQ surface)
    # ------------------------------------------------------------------

    def _expr(self):
        from repro.query.expressions import FieldRef

        if self.owner is None:
            raise TypeError(f"field {self.name or '?'} is not bound to a class")
        return FieldRef(self)

    def __eq__(self, other):  # type: ignore[override]
        return self._expr() == other

    def __ne__(self, other):  # type: ignore[override]
        return self._expr() != other

    def __lt__(self, other):
        return self._expr() < other

    def __le__(self, other):
        return self._expr() <= other

    def __gt__(self, other):
        return self._expr() > other

    def __ge__(self, other):
        return self._expr() >= other

    def __add__(self, other):
        return self._expr() + other

    def __radd__(self, other):
        return other + self._expr()

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return other - self._expr()

    def __mul__(self, other):
        return self._expr() * other

    def __rmul__(self, other):
        return other * self._expr()

    def __truediv__(self, other):
        return self._expr() / other

    def __rtruediv__(self, other):
        return other / self._expr()

    def isin(self, values):
        return self._expr().isin(values)

    def between(self, lo, hi):
        return self._expr().between(lo, hi)

    def startswith(self, prefix: str):
        return self._expr().startswith(prefix)

    def contains(self, needle: str):
        return self._expr().contains(needle)

    def ref(self, nested_name: str):
        """Navigate through this reference field to a field of the target."""
        return self._expr().ref(nested_name)

    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover
        owner = self.owner.__name__ if self.owner else "?"
        return f"<{type(self).__name__} {owner}.{self.name or '?'} @{self.offset}>"


# ----------------------------------------------------------------------
# Scalar fields
# ----------------------------------------------------------------------


class Int8Field(Field):
    size, align, fmt = 1, 1, "b"
    python_type = int


class Int16Field(Field):
    size, align, fmt = 2, 2, "h"
    python_type = int


class Int32Field(Field):
    size, align, fmt = 4, 4, "i"
    python_type = int


class Int64Field(Field):
    size, align, fmt = 8, 8, "q"
    python_type = int


class BoolField(Field):
    size, align, fmt = 1, 1, "b"
    python_type = bool

    def to_raw(self, value: Any) -> int:
        return 1 if value else 0

    def from_raw(self, raw: int) -> bool:
        return bool(raw)

    @property
    def default(self) -> bool:
        return False


class Float64Field(Field):
    size, align, fmt = 8, 8, "d"
    python_type = float

    @property
    def default(self) -> float:
        return 0.0


class DecimalField(Field):
    """Exact fixed-point numeric, stored as a scaled int64.

    The default scale of 2 models money (TPC-H prices, discounts are
    defined with two fractional digits in our generator).
    """

    size, align, fmt = 8, 8, "q"
    python_type = Decimal

    __slots__ = ("scale", "_factor", "_quantum")

    def __init__(self, scale: int = 2) -> None:
        super().__init__()
        if scale < 0 or scale > 9:
            raise ValueError("scale must be in [0, 9]")
        self.scale = scale
        self._factor = 10**scale
        self._quantum = Decimal(1).scaleb(-scale)

    def to_raw(self, value: Any) -> int:
        if isinstance(value, Decimal):
            return int(value.scaleb(self.scale).to_integral_value())
        if isinstance(value, int):
            return value * self._factor
        if isinstance(value, float):
            return round(value * self._factor)
        if isinstance(value, str):
            return int(Decimal(value).scaleb(self.scale).to_integral_value())
        raise TypeError(f"cannot store {value!r} in a DecimalField")

    def from_raw(self, raw: int) -> Decimal:
        return Decimal(raw) * self._quantum

    @property
    def default(self) -> Decimal:
        return Decimal(0)


class DateField(Field):
    """Calendar date stored as days since 1970-01-01."""

    size, align, fmt = 4, 4, "i"
    python_type = _dt.date

    def to_raw(self, value: Any) -> int:
        if isinstance(value, int):
            return value
        return date_to_days(value)

    def from_raw(self, raw: int) -> _dt.date:
        return days_to_date(raw)

    @property
    def default(self) -> _dt.date:
        return _EPOCH_DATE


def char_bytes(value: Any) -> bytes:
    """*value*'s canonical ``CHAR`` bytes: UTF-8 without trailing spaces
    or NULs (both are padding to SQL ``CHAR`` and to the decoder)."""
    return str(value).encode("utf-8").rstrip(b" \x00")


class CharField(Field):
    """Fixed-width string (SQL ``CHAR(n)``).

    Stored canonically: trailing spaces (which SQL ``CHAR`` comparison
    ignores) are stripped when a value is written, and the slot is NUL
    padded — NumPy's S-dtype padding — so vectorised scans compare the
    stored bytes as they are.
    """

    align = 1
    python_type = str

    # ``size`` is a per-instance slot here (it depends on the width),
    # shadowing the class-level constant of fixed-size fields.
    __slots__ = ("width", "size")

    def __init__(self, width: int) -> None:
        super().__init__()
        if width <= 0:
            raise ValueError("CharField width must be positive")
        self.width = width
        self.size = width

    def _bind(self, owner: type, name: str, index: int) -> None:
        super()._bind(owner, name, index)
        self._struct = struct.Struct(f"<{self.width}s")

    def encode_into(self, buf, off: int, value: Any, manager=None) -> None:
        data = char_bytes(value)
        if len(data) > self.width:
            raise ValueError(
                f"string of {len(data)} bytes exceeds CharField({self.width})"
            )
        # struct NUL-pads short strings.
        self._struct.pack_into(buf, off, data)

    def decode_from(self, buf, off: int, manager=None) -> str:
        raw = self._struct.unpack_from(buf, off)[0]
        return raw.rstrip(b" \x00").decode("utf-8")

    def raw_from(self, buf, off: int) -> bytes:
        return self._struct.unpack_from(buf, off)[0]

    def columns(self):
        return ((self.name, np.dtype(f"S{self.width}"), 0),)

    @property
    def default(self) -> str:
        return ""


class VarStringField(Field):
    """Variable-length string owned by the object (string heap record).

    The slot stores the 8-byte address of the heap record; the record's
    lifetime matches the object's (section 2: "strings referenced by
    tabular classes are considered part of the object").
    """

    size, align, fmt = 8, 8, "q"
    python_type = str

    def _dict_of(self, manager):
        """The owning collection's string dictionary on *manager*, if any.

        Fields are shared across managers, so the dictionary is resolved
        per call through the manager's collection registry.  ``None`` means
        the slot stores plain string-heap addresses.
        """
        registry = getattr(manager, "collections", None)
        if not registry:
            return None
        owner = getattr(self, "owner", None)
        if owner is None:
            return None
        return getattr(registry.get(owner.__name__), "strdict", None)

    def encode_into(self, buf, off: int, value: Any, manager=None) -> None:
        if manager is None:
            raise TypeError("VarStringField requires a memory manager")
        text = "" if value is None else str(value)
        old = self._struct.unpack_from(buf, off)[0]
        sd = self._dict_of(manager)
        if sd is not None:
            sd.release(old)
            self._struct.pack_into(buf, off, sd.intern(text))
            return
        if old != NULL_ADDRESS:
            manager.strings.free(old)
        self._struct.pack_into(buf, off, manager.strings.alloc(text))

    def decode_from(self, buf, off: int, manager=None) -> str:
        if manager is None:
            raise TypeError("VarStringField requires a memory manager")
        raw = self._struct.unpack_from(buf, off)[0]
        sd = self._dict_of(manager)
        if sd is not None:
            return sd.text_of(raw)
        return manager.strings.read(raw)

    def release_into(self, buf, off: int, manager) -> None:
        raw = self._struct.unpack_from(buf, off)[0]
        sd = self._dict_of(manager)
        if sd is not None:
            if raw > 0:
                sd.release(raw)
                self._struct.pack_into(buf, off, NULL_ADDRESS)
            return
        if raw != NULL_ADDRESS:
            manager.strings.free(raw)
            self._struct.pack_into(buf, off, NULL_ADDRESS)

    @property
    def default(self) -> str:
        return ""


class RefField(Field):
    """Reference to an object of another (or the same) tabular class.

    Stored as 16 bytes: an 8-byte word plus a 4-byte incarnation and 4
    bytes of padding.  In indirect mode (default) the word is the target's
    indirection-table entry index and the incarnation is the entry's
    counter; in direct-pointer mode (paper section 6) the word is the raw
    slot address and the incarnation is the slot header's counter.
    """

    size, align = 16, 8
    python_type = object

    __slots__ = ("target",)

    _WORDS = struct.Struct("<qi")

    def __init__(self, target: Union[str, Type]) -> None:
        super().__init__()
        self.target = target

    def _bind(self, owner: type, name: str, index: int) -> None:
        super()._bind(owner, name, index)
        self._struct = self._WORDS

    def resolve_target(self) -> type:
        """Resolve the target tabular class (string targets resolved lazily)."""
        from repro.schema.tabular import resolve_tabular

        return resolve_tabular(self.target)

    # Encoding takes the words directly; the collection layer derives them
    # from a Ref / handle according to the manager's pointer mode.
    def encode_words(self, buf, off: int, word: int, inc: int) -> None:
        self._WORDS.pack_into(buf, off, word, inc)

    def decode_words(self, buf, off: int):
        return self._WORDS.unpack_from(buf, off)

    def columns(self):
        return (
            (self.name + "__w", np.dtype(np.int64), 0),
            (self.name + "__i", np.dtype(np.uint32), 8),
        )

    def encode_into(self, buf, off: int, value: Any, manager=None) -> None:
        # ``None`` clears the reference; Ref / handle values are resolved by
        # the collection layer (which knows the pointer mode), not here.
        if value is None:
            self._WORDS.pack_into(buf, off, NULL_ADDRESS, 0)
            return
        raise TypeError(
            "RefField values are written by the collection layer; "
            "use Collection.add/update with a Ref or handle"
        )

    def decode_from(self, buf, off: int, manager=None):
        raise TypeError(
            "RefField values are read by the collection layer; "
            "use handle attribute access"
        )

    @property
    def default(self) -> None:
        return None
