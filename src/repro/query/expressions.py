"""Expression trees for language-integrated queries.

The paper assumes the *structure* of most LINQ queries is statically
defined in the application source, with only query parameters assigned
dynamically (section 2).  We model that with explicit expression trees:
tabular class attributes are fields, and operators on them build
:class:`Expr` nodes::

    Lineitem.shipdate <= param("date")
    Lineitem.price * (1 - Lineitem.discount)

Reference navigation follows the schema's reference fields::

    Lineitem.order.ref("orderdate") < param("date")

Every node supports

* ``evaluate(row, params)`` — interpreted evaluation against a managed
  record or an SMC handle (attribute access), used by the iterator engine
  (the paper's LINQ-to-objects baseline), and
* ``signature()`` — a stable structural key used to cache compiled query
  functions (the analogue of the paper expanding each static LINQ query
  into one generated imperative function).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.schema.fields import (
    CharField,
    DateField,
    DecimalField,
    Field,
    Float64Field,
    RefField,
    VarStringField,
)


class Signed:
    """A node whose structural ``signature()`` is computed once.

    Expression and plan nodes are immutable, so the signature string is
    memoised on the node itself (never in an ``id()``-keyed table: ids
    are recycled as soon as a node dies).
    """

    __slots__ = ("_sig",)

    def signature(self) -> str:
        try:
            return self._sig
        except AttributeError:
            sig = self._sig = self._signature()
            return sig

    def _signature(self) -> str:
        raise NotImplementedError


class Expr(Signed):
    """Base class of all expression nodes."""

    __slots__ = ()

    # -- construction helpers ------------------------------------------

    @staticmethod
    def wrap(value: Any) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, Field):
            return FieldRef(value)
        return Const(value)

    # -- operators ------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return Cmp("==", self, Expr.wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Cmp("!=", self, Expr.wrap(other))

    def __lt__(self, other):
        return Cmp("<", self, Expr.wrap(other))

    def __le__(self, other):
        return Cmp("<=", self, Expr.wrap(other))

    def __gt__(self, other):
        return Cmp(">", self, Expr.wrap(other))

    def __ge__(self, other):
        return Cmp(">=", self, Expr.wrap(other))

    def __add__(self, other):
        return BinOp("+", self, Expr.wrap(other))

    def __radd__(self, other):
        return BinOp("+", Expr.wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, Expr.wrap(other))

    def __rsub__(self, other):
        return BinOp("-", Expr.wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, Expr.wrap(other))

    def __rmul__(self, other):
        return BinOp("*", Expr.wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, Expr.wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", Expr.wrap(other), self)

    def __and__(self, other):
        return BoolOp("and", (self, Expr.wrap(other)))

    def __or__(self, other):
        return BoolOp("or", (self, Expr.wrap(other)))

    def __invert__(self):
        return Not(self)

    def isin(self, values: Iterable[Any]) -> "Expr":
        if isinstance(values, Expr):
            raise TypeError("isin expects literal values; use Query.where_in")
        return InSet(self, frozenset(values))

    def between(self, lo: Any, hi: Any) -> "Expr":
        return Between(self, Expr.wrap(lo), Expr.wrap(hi))

    def startswith(self, prefix: str) -> "Expr":
        return StrPrefix(self, prefix)

    def contains(self, needle: str) -> "Expr":
        return StrContains(self, needle)

    __hash__ = object.__hash__

    # -- protocol --------------------------------------------------------

    def evaluate(self, row: Any, params: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def children(self) -> Sequence["Expr"]:
        return ()


class Const(Expr):
    """A literal embedded in the query structure."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row, params):
        return self.value

    def _signature(self) -> str:
        return f"const({self.value!r})"


class Param(Expr):
    """A dynamic query parameter, bound at execution time.

    Mirrors the paper's expansion of LINQ queries into imperative
    functions "that contain the same parameters as arguments" — parameters
    never change the compiled query's identity, only its inputs.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, row, params):
        return params[self.name]

    def _signature(self) -> str:
        return f"param({self.name})"


def param(name: str) -> Param:
    """Create a named dynamic query parameter."""
    return Param(name)


class FieldRef(Expr):
    """A (possibly navigated) field access: ``steps`` are reference hops.

    ``FieldRef(Lineitem.shipdate)`` reads a field of the scanned object;
    ``Lineitem.order.ref("orderdate")`` produces a FieldRef whose ``steps``
    contain the ``order`` reference field and whose terminal field is the
    target class's ``orderdate``.
    """

    __slots__ = ("steps", "field")

    def __init__(self, field: Field, steps: Tuple[RefField, ...] = ()) -> None:
        self.steps = steps
        self.field = field

    def ref(self, name: str) -> "FieldRef":
        """Navigate through this reference field to a target field."""
        if not isinstance(self.field, RefField):
            raise TypeError(f"{self.field.name} is not a reference field")
        target = self.field.resolve_target()
        nested = target.__layout__.by_name.get(name)
        if nested is None:
            raise AttributeError(
                f"{target.__name__} has no field {name!r}"
            )
        return FieldRef(nested, self.steps + (self.field,))

    def evaluate(self, row, params):
        obj = row
        for step in self.steps:
            obj = getattr(obj, step.name)
            if obj is None:
                return None
        return getattr(obj, self.field.name)

    def _signature(self) -> str:
        path = ".".join(s.name for s in self.steps)
        owner = self.field.owner.__name__ if self.field.owner else "?"
        return f"field({path}{'.' if path else ''}{owner}.{self.field.name})"

    @property
    def dtype(self) -> str:
        return dtype_of_field(self.field)


class RefIdentity(Expr):
    """The identity of a referenced object (for reference-equality joins).

    ``RefIdentity`` of ``l.supplier.nation`` evaluates, in interpreted
    mode, to a hashable identity token of the referenced object; compiled
    backends compare the stored reference words directly — the paper's
    reference-based joins (section 7, "most joins are performed using
    references").
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Tuple[RefField, ...]) -> None:
        if not steps:
            raise ValueError("RefIdentity requires at least one step")
        self.steps = steps

    def evaluate(self, row, params):
        obj = row
        for step in self.steps[:-1]:
            obj = getattr(obj, step.name)
            if obj is None:
                return None
        final = getattr(obj, self.steps[-1].name)
        if final is None:
            return None
        # Handles hash by reference; managed records hash by identity.
        return final

    def _signature(self) -> str:
        return "refid(" + ".".join(s.name for s in self.steps) + ")"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    _FUNCS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row, params):
        return self._FUNCS[self.op](
            self.left.evaluate(row, params), self.right.evaluate(row, params)
        )

    def _signature(self) -> str:
        return f"({self.left.signature()}{self.op}{self.right.signature()})"

    def children(self):
        return (self.left, self.right)


class Cmp(Expr):
    __slots__ = ("op", "left", "right")

    _FUNCS = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row, params):
        return self._FUNCS[self.op](
            self.left.evaluate(row, params), self.right.evaluate(row, params)
        )

    def _signature(self) -> str:
        return f"({self.left.signature()}{self.op}{self.right.signature()})"

    def children(self):
        return (self.left, self.right)


class BoolOp(Expr):
    __slots__ = ("op", "parts")

    def __init__(self, op: str, parts: Tuple[Expr, ...]) -> None:
        # Flatten nested same-op chains for compact generated code.
        flat = []
        for part in parts:
            if isinstance(part, BoolOp) and part.op == op:
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.op = op
        self.parts = tuple(flat)

    def evaluate(self, row, params):
        if self.op == "and":
            return all(p.evaluate(row, params) for p in self.parts)
        return any(p.evaluate(row, params) for p in self.parts)

    def _signature(self) -> str:
        inner = f" {self.op} ".join(p.signature() for p in self.parts)
        return f"({inner})"

    def children(self):
        return self.parts


class Not(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def evaluate(self, row, params):
        return not self.inner.evaluate(row, params)

    def _signature(self) -> str:
        return f"not({self.inner.signature()})"

    def children(self):
        return (self.inner,)


class InSet(Expr):
    __slots__ = ("inner", "values")

    def __init__(self, inner: Expr, values: frozenset) -> None:
        self.inner = inner
        self.values = values

    def evaluate(self, row, params):
        return self.inner.evaluate(row, params) in self.values

    def _signature(self) -> str:
        return f"in({self.inner.signature()},{sorted(map(repr, self.values))})"

    def children(self):
        return (self.inner,)


class Between(Expr):
    __slots__ = ("inner", "lo", "hi")

    def __init__(self, inner: Expr, lo: Expr, hi: Expr) -> None:
        self.inner = inner
        self.lo = lo
        self.hi = hi

    def evaluate(self, row, params):
        value = self.inner.evaluate(row, params)
        return self.lo.evaluate(row, params) <= value <= self.hi.evaluate(
            row, params
        )

    def _signature(self) -> str:
        return (
            f"between({self.inner.signature()},{self.lo.signature()},"
            f"{self.hi.signature()})"
        )

    def children(self):
        return (self.inner, self.lo, self.hi)


class StrPrefix(Expr):
    __slots__ = ("inner", "prefix")

    def __init__(self, inner: Expr, prefix: str) -> None:
        self.inner = inner
        self.prefix = prefix

    def evaluate(self, row, params):
        return self.inner.evaluate(row, params).startswith(self.prefix)

    def _signature(self) -> str:
        return f"prefix({self.inner.signature()},{self.prefix!r})"

    def children(self):
        return (self.inner,)


class StrContains(Expr):
    __slots__ = ("inner", "needle")

    def __init__(self, inner: Expr, needle: str) -> None:
        self.inner = inner
        self.needle = needle

    def evaluate(self, row, params):
        return self.needle in self.inner.evaluate(row, params)

    def _signature(self) -> str:
        return f"contains({self.inner.signature()},{self.needle!r})"

    def children(self):
        return (self.inner,)


class CaseWhen(Expr):
    """Conditional value: ``then`` if ``cond`` else ``otherwise``.

    The SQL CASE/IIF analogue, needed by conditional aggregation (e.g.
    TPC-H Q12's priority counts, Q14's promo revenue share).
    """

    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr) -> None:
        self.cond = cond
        self.then = then
        self.otherwise = otherwise

    def evaluate(self, row, params):
        if self.cond.evaluate(row, params):
            return self.then.evaluate(row, params)
        return self.otherwise.evaluate(row, params)

    def _signature(self) -> str:
        return (
            f"case({self.cond.signature()},{self.then.signature()},"
            f"{self.otherwise.signature()})"
        )

    def children(self):
        return (self.cond, self.then, self.otherwise)


def case_when(cond, then, otherwise) -> CaseWhen:
    """Build a conditional expression (SQL ``CASE WHEN`` analogue)."""
    return CaseWhen(Expr.wrap(cond), Expr.wrap(then), Expr.wrap(otherwise))


class YearOf(Expr):
    """Calendar year of a date expression (SQL ``EXTRACT(YEAR ...)``)."""

    __slots__ = ("inner",)

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def evaluate(self, row, params):
        value = self.inner.evaluate(row, params)
        return value.year if value is not None else None

    def _signature(self) -> str:
        return f"year({self.inner.signature()})"

    def children(self):
        return (self.inner,)


def year_of(expr) -> YearOf:
    """Extract the year of a date field/expression."""
    return YearOf(Expr.wrap(expr))


# ----------------------------------------------------------------------
# dtype helper (FieldRef.dtype)
# ----------------------------------------------------------------------


def dtype_of_field(field: Field) -> str:
    if isinstance(field, DecimalField):
        return "decimal"
    if isinstance(field, DateField):
        return "date"
    if isinstance(field, (CharField, VarStringField)):
        return "str"
    if isinstance(field, Float64Field):
        return "float"
    if isinstance(field, RefField):
        return "ref"
    return "int"


def ref_identity(field_or_expr) -> RefIdentity:
    """Build a :class:`RefIdentity` from a reference field or navigation."""
    if isinstance(field_or_expr, RefField):
        return RefIdentity((field_or_expr,))
    if isinstance(field_or_expr, FieldRef):
        if not isinstance(field_or_expr.field, RefField):
            raise TypeError("ref_identity requires a reference field")
        return RefIdentity(field_or_expr.steps + (field_or_expr.field,))
    raise TypeError(f"cannot build a reference identity from {field_or_expr!r}")
