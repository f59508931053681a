"""Query compilation: logical plans → specialised imperative functions.

The paper transforms every statically-known LINQ query over an SMC into a
generated imperative function with the dynamic parameters as arguments
(section 2), and the generated code scans the collection's memory blocks
directly (section 4).  This module does the same: it fingerprints
(query structure, source kind, pointer mode), generates Python source
specialised to the schema's slot layout, compiles it once, and caches the
function.  Subsequent executions only re-bind parameters.

Backends ("flavours"), mirroring the evaluation series of the paper:

``managed``
    attribute-access loop over plain Python record objects — the paper's
    *compiled C# over managed collections* (the ``List<T>`` /
    ``ConcurrentDictionary`` series of Figure 11);
``smc-safe``
    scans SMC blocks via the slot directory but decodes every field into
    Python objects (Decimal, date, str) — the paper's *SMC (C#)* series:
    compiled code equivalent to the managed one except for enumeration;
``smc-unsafe``
    operates on the raw stored representation: scaled-int64 fixed-point
    decimal arithmetic, integer day dates, padded-byte strings — the
    paper's *SMC (unsafe C#)* series with direct pointer access to
    primitive values;
``columnar``
    vectorised NumPy kernels over columnar collections (section 4.1),
    dispatched to :mod:`repro.query.columnar_exec`.

When the memory manager runs in **direct-pointer mode** (section 6) the
SMC backends navigate references through raw slot addresses validated
against slot-header incarnations, skipping the indirection-table lookup.

Null navigation note: the interpreter evaluates a navigation through a
null reference to ``None``; the compiled backends *filter out* such rows
(the row cannot satisfy a predicate over missing data).  TPC-H foreign
keys are never null, so the engines agree on every workload in this repo.
"""

from __future__ import annotations

import datetime as _dt
import struct
import threading
from decimal import Decimal
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NullReferenceError
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import FLAG_MASK, INC_MASK
from repro.query import runtime as _runtime
from repro.query.builder import (
    Distinct,
    GroupBy,
    Having,
    OrderBy,
    Query,
    Result,
    Select,
    Take,
    Where,
    WhereIn,
)
from repro.query.expressions import (
    Between,
    BinOp,
    BoolOp,
    CaseWhen,
    Cmp,
    Const,
    Expr,
    FieldRef,
    InSet,
    Not,
    Param,
    RefIdentity,
    StrContains,
    StrPrefix,
    YearOf,
    dtype_of_const,
)
from repro.schema.fields import (
    CharField,
    DateField,
    DecimalField,
    Field,
    Float64Field,
    RefField,
    VarStringField,
    date_to_days,
)

_CACHE: Dict[tuple, "_Compiled"] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


class CompileError(TypeError):
    """Raised when a plan cannot be compiled for the requested backend."""


# ----------------------------------------------------------------------
# Public driver
# ----------------------------------------------------------------------


def flavor_for(source: Any) -> str:
    """Default compiled flavour for a source object."""
    kind = getattr(source, "compiled_flavor", None)
    if kind is not None:
        return kind
    raise CompileError(
        f"source {type(source).__name__} does not support compiled queries"
    )


def run_compiled(
    query: Query,
    params: Dict[str, Any],
    flavor: Optional[str] = None,
    workers: Optional[int] = None,
    prune: bool = True,
    planner: Optional[bool] = None,
) -> Result:
    flavor = flavor or flavor_for(query.source)
    if flavor in ("columnar", "smc-unsafe"):
        # Both SMC layouts run on the vectorised block engine; row blocks
        # are accessed through strided views (see columnar_exec).  The
        # per-row generated-code backend remains available as the
        # "smc-unsafe-scalar" ablation flavour.
        from repro.query.columnar_exec import run_columnar

        return run_columnar(
            query, params, workers=workers, prune=prune, planner=planner
        )
    if flavor == "smc-unsafe-scalar":
        flavor = "smc-unsafe"
    compiled = get_compiled(query, flavor)
    insets = _materialise_insets(query, params, flavor, compiled)
    columns, rows = compiled.fn(query.source, params, insets)
    return Result(columns, rows)


def get_compiled(query: Query, flavor: str) -> "_Compiled":
    direct = bool(getattr(query.source, "manager", None))
    direct = direct and query.source.manager.direct_pointers
    # Dictionary-encoded managers compile to code-space string kernels, so
    # the cached function is specialised on the encoding as well.  The
    # manager-level flag (not the source's own ``strdict``) decides:
    # navigation can reach dict-encoded collections from a source that has
    # no varstring fields of its own.
    dicted = bool(
        getattr(getattr(query.source, "manager", None), "string_dict", False)
    )
    key = (flavor, direct, dicted, query.signature())
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _CACHE_HITS += 1
    if hit is not None:
        return hit
    generator = _Generator(query, flavor, direct, dicted)
    compiled = generator.build()
    with _CACHE_LOCK:
        _CACHE[key] = compiled
        _CACHE_MISSES += 1
    return compiled


def compiled_source(query: Query, flavor: Optional[str] = None) -> str:
    """The generated Python source for *query* (introspection/debugging)."""
    flavor = flavor or flavor_for(query.source)
    return get_compiled(query, flavor).source


def clear_cache() -> None:
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the compiled-function cache."""
    with _CACHE_LOCK:
        return {
            "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES,
            "size": len(_CACHE),
        }


def _materialise_insets(
    query: Query, params: Dict[str, Any], flavor: str, compiled: "_Compiled"
) -> List[frozenset]:
    """Execute WhereIn subqueries and convert their keys to raw form."""
    insets: List[frozenset] = []
    index = 0
    for op in query.ops:
        if not isinstance(op, WhereIn):
            continue
        sub = op.subquery.run(engine="compiled", params=params)
        specs = compiled.probe_specs[index]
        keys = set()
        for row in sub.rows:
            values = row if isinstance(row, tuple) else (row,)
            converted = tuple(
                _to_raw(v, spec) for v, spec in zip(values, specs)
            )
            keys.add(converted if len(converted) > 1 else converted[0])
        insets.append(frozenset(keys))
        index += 1
    return insets


def _to_raw(value: Any, spec: Tuple[str, Any]) -> Any:
    """Convert a decoded query-output value to a backend's raw key form."""
    kind, meta = spec
    if kind == "date" and isinstance(value, _dt.date):
        return date_to_days(value)
    if kind == "decimal" and isinstance(value, Decimal):
        return int(value.scaleb(meta).to_integral_value())
    if kind == "str" and isinstance(meta, int) and isinstance(value, str):
        return value.encode("utf-8").ljust(meta, b"\x00")
    return value


# ----------------------------------------------------------------------
# dtype algebra for the unsafe backend
# ----------------------------------------------------------------------
# dtypes are (kind, meta): ("int", None), ("float", None),
# ("decimal", scale), ("date", None), ("bool", None), ("ref", None),
# ("str", width:int) for padded CHAR bytes, ("str", "py") for Python str,
# ("any", None) for python-object backends.

_PYOBJ = ("any", None)


def _field_dtype(field: Field) -> Tuple[str, Any]:
    if isinstance(field, DecimalField):
        return ("decimal", field.scale)
    if isinstance(field, DateField):
        return ("date", None)
    if isinstance(field, CharField):
        return ("str", field.width)
    if isinstance(field, VarStringField):
        return ("str", "py")
    if isinstance(field, Float64Field):
        return ("float", None)
    if isinstance(field, RefField):
        return ("ref", None)
    return ("int", None)


# ----------------------------------------------------------------------
# Zone-test derivation (block-level pruning, see repro.memory.zonemap)
# ----------------------------------------------------------------------


class ZoneTest:
    """One predicate lowered to an interval test over a block's zone.

    ``admits(lo, hi)`` answers: *may* a value in ``[lo, hi]`` (the
    block's observed bounds for ``name``) satisfy the predicate?  False
    lets the scan skip the block without touching its memory.  Tests are
    derived only from conjunctive predicates over un-navigated fields,
    and raw-value conversion must be exact — anything else simply yields
    no test (pruning is an optimisation, never a semantics change).
    """

    __slots__ = ("name", "vlo", "vhi", "lo_strict", "hi_strict", "negated")

    def __init__(
        self,
        name: str,
        vlo,
        vhi,
        lo_strict: bool = False,
        hi_strict: bool = False,
        negated: bool = False,
    ) -> None:
        self.name = name
        self.vlo = vlo
        self.vhi = vhi
        self.lo_strict = lo_strict
        self.hi_strict = hi_strict
        self.negated = negated

    def admits(self, lo, hi) -> bool:
        if self.negated:
            # `!= v`: only a constant block pinned to v cannot match.
            return not (lo == hi == self.vlo)
        if self.vlo is not None:
            if hi < self.vlo or (self.lo_strict and hi <= self.vlo):
                return False
        if self.vhi is not None:
            if lo > self.vhi or (self.hi_strict and lo >= self.vhi):
                return False
        return True

    def admits_zones(self, zones) -> bool:
        """Interval test against a block's :class:`~repro.memory.zonemap.ZoneMap`."""
        lo = zones.lo.get(self.name)
        if lo is None:
            return True
        return self.admits(lo, zones.hi[self.name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lob = "(" if self.lo_strict else "["
        hib = ")" if self.hi_strict else "]"
        if self.negated:
            return f"<ZoneTest {self.name} != {self.vlo}>"
        return f"<ZoneTest {self.name} in {lob}{self.vlo}, {self.vhi}{hib}>"


class CodeZoneTest:
    """A string predicate lowered to dictionary-code membership.

    Built from the matching-code set of an equality / ``InSet`` /
    ``StrPrefix`` / ``StrContains`` predicate over a dictionary-encoded
    varstring field.  A block is admitted only if its zone statistics may
    contain one of the matching codes: the exact per-block code set when
    the block's domain is small, the code min/max envelope otherwise.
    An empty match set (the literal occurs nowhere in the dictionary)
    admits no block at all.
    """

    __slots__ = ("name", "codes", "_set", "_lo", "_hi")

    def __init__(self, name: str, codes) -> None:
        self.name = name
        self.codes = codes  # sorted int ndarray
        self._set: Optional[frozenset] = None
        self._lo = int(codes[0]) if len(codes) else 0
        self._hi = int(codes[-1]) if len(codes) else -1

    def admits_zones(self, zones) -> bool:
        if self._hi < self._lo:  # empty match set: no block can match
            return False
        exact = zones.codes.get(self.name)
        if exact is not None:
            if self._set is None:
                self._set = frozenset(int(c) for c in self.codes)
            return not exact.isdisjoint(self._set)
        lo = zones.lo.get(self.name)
        if lo is None:
            return True
        return not (zones.hi[self.name] < self._lo or lo > self._hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CodeZoneTest {self.name} in {len(self.codes)} codes>"


class ZoneTemplate:
    """A :class:`ZoneTest` with its literals still open.

    Prepared once per query from one conjunct: the field, its dtype, the
    operator's bounds and strictness, and per bound either the raw image
    of a ``Const`` (converted here, once) or the ``Param`` whose value
    every request supplies.  :meth:`bind` yields the request's test, or
    None when a parameter is absent or has no exact raw image — no test
    is the conservative answer, as it is at derivation.
    """

    __slots__ = ("name", "spec", "lo", "hi", "lo_strict", "hi_strict", "negated")

    def __init__(
        self,
        name: str,
        spec: Tuple[str, Any],
        lo,
        hi,
        lo_strict: bool = False,
        hi_strict: bool = False,
        negated: bool = False,
    ) -> None:
        self.name = name
        self.spec = spec
        #: None (open), a raw value, or a ``Param``; a point test passes
        #: the same operand as both bounds
        self.lo = lo
        self.hi = hi
        self.lo_strict = lo_strict
        self.hi_strict = hi_strict
        self.negated = negated

    def bind(self, params: Dict[str, Any]) -> Optional[ZoneTest]:
        lo, hi = self.lo, self.hi
        point = hi is lo
        if isinstance(lo, Param):
            lo = _zone_raw(params.get(lo.name), self.spec)
            if lo is None:
                return None
        if point:
            hi = lo
        elif isinstance(hi, Param):
            hi = _zone_raw(params.get(hi.name), self.spec)
            if hi is None:
                return None
        return ZoneTest(
            self.name, lo, hi, self.lo_strict, self.hi_strict, self.negated
        )


class CodeZoneTemplate:
    """A :class:`CodeZoneTest` with its code set still open.

    The dictionary moves under writers — a literal absent today is
    interned tomorrow — so the matching codes are looked up by every
    request (the ``StringDict`` caches them per dictionary version),
    never frozen into the prepared scan.  ``arg`` is the constant the
    match kind takes, or the ``Param`` of an equality.
    """

    __slots__ = ("name", "strdict", "kind", "arg")

    def __init__(self, name: str, strdict, kind: str, arg) -> None:
        self.name = name
        self.strdict = strdict
        self.kind = kind
        self.arg = arg

    def bind(self, params: Dict[str, Any]) -> Optional[CodeZoneTest]:
        arg = self.arg
        if isinstance(arg, Param):
            value = params.get(arg.name)
            if not isinstance(value, str):
                return None
            arg = frozenset((value,))
        return CodeZoneTest(self.name, self.strdict.match_codes(self.kind, arg))


def derive_zone_tests(predicates: List[Expr], source: Any = None) -> list:
    """Lower a conjunction of filter predicates to zone-test templates.

    A prepare-time call: the templates depend on the predicates alone,
    and each request binds them to its parameters
    (:meth:`ZoneTemplate.bind`).  *source* (the scanned collection)
    supplies the string dictionary for code-space tests over varstring
    predicates; without it only numeric tests are derived.
    """
    templates: list = []
    strdict = getattr(source, "strdict", None)
    for pred in predicates:
        _derive_zone_test(pred, templates, strdict)
    return templates


def _string_zone_field(expr: Expr) -> Optional[Field]:
    """The un-navigated varstring field *expr* reads, if it is exactly that."""
    if (
        isinstance(expr, FieldRef)
        and not expr.steps
        and isinstance(expr.field, VarStringField)
    ):
        return expr.field
    return None


def _zone_operand(expr: Expr, spec: Tuple[str, Any]):
    """The literal side of a zone-testable conjunct: a ``Param`` as
    itself, a ``Const`` as its exact raw image, else ``_NO_LITERAL``."""
    if isinstance(expr, Param):
        return expr
    if isinstance(expr, Const):
        raw = _zone_raw(expr.value, spec)
        if raw is not None:
            return raw
    return _NO_LITERAL


def _derive_zone_test(expr: Expr, out: list, strdict=None) -> None:
    if isinstance(expr, BoolOp) and expr.op == "and":
        for part in expr.parts:
            _derive_zone_test(part, out, strdict)
        return
    if isinstance(expr, Cmp):
        field, literal, op = None, None, expr.op
        if _zone_field(expr.left) is not None:
            field = _zone_field(expr.left)
            literal = expr.right
        elif _zone_field(expr.right) is not None:
            field = _zone_field(expr.right)
            literal = expr.left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if field is None:
            return
        if isinstance(field, VarStringField):
            if strdict is None or op != "==":
                return
            if isinstance(literal, Const) and isinstance(literal.value, str):
                literal = frozenset((literal.value,))
            elif not isinstance(literal, Param):
                return
            out.append(CodeZoneTemplate(field.name, strdict, "inset", literal))
            return
        spec = _field_dtype(field)
        raw = _zone_operand(literal, spec)
        if raw is _NO_LITERAL:
            return
        name = field.name
        if op == "==":
            out.append(ZoneTemplate(name, spec, raw, raw))
        elif op == "!=":
            out.append(ZoneTemplate(name, spec, raw, raw, negated=True))
        elif op == "<":
            out.append(ZoneTemplate(name, spec, None, raw, hi_strict=True))
        elif op == "<=":
            out.append(ZoneTemplate(name, spec, None, raw))
        elif op == ">":
            out.append(ZoneTemplate(name, spec, raw, None, lo_strict=True))
        elif op == ">=":
            out.append(ZoneTemplate(name, spec, raw, None))
        return
    if isinstance(expr, Between):
        field = _zone_field(expr.inner)
        if field is None or isinstance(field, VarStringField):
            return
        spec = _field_dtype(field)
        rlo, rhi = _zone_operand(expr.lo, spec), _zone_operand(expr.hi, spec)
        if rlo is _NO_LITERAL or rhi is _NO_LITERAL:
            return
        out.append(ZoneTemplate(field.name, spec, rlo, rhi))
        return
    if isinstance(expr, InSet):
        field = _zone_field(expr.inner)
        if field is None or not expr.values:
            return
        if isinstance(field, VarStringField):
            if strdict is not None and all(
                isinstance(v, str) for v in expr.values
            ):
                out.append(
                    CodeZoneTemplate(
                        field.name, strdict, "inset", frozenset(expr.values)
                    )
                )
            return
        spec = _field_dtype(field)
        raws = [_zone_raw(v, spec) for v in expr.values]
        if any(r is None for r in raws):
            return
        # Conservative envelope of the probe set.
        out.append(ZoneTemplate(field.name, spec, min(raws), max(raws)))
        return
    if isinstance(expr, StrPrefix):
        field = _string_zone_field(expr.inner)
        if field is not None and strdict is not None:
            out.append(
                CodeZoneTemplate(field.name, strdict, "prefix", expr.prefix)
            )
        return
    if isinstance(expr, StrContains):
        field = _string_zone_field(expr.inner)
        if field is not None and strdict is not None:
            out.append(
                CodeZoneTemplate(field.name, strdict, "contains", expr.needle)
            )


def _zone_field(expr: Expr) -> Optional[Field]:
    """The un-navigated zoned field *expr* reads, if it is exactly that."""
    from repro.memory.zonemap import is_zoned

    if isinstance(expr, FieldRef) and not expr.steps and is_zoned(expr.field):
        return expr.field
    return None


_NO_LITERAL = object()


def _literal(expr: Expr, params: Dict[str, Any]):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        return params.get(expr.name, _NO_LITERAL)
    return _NO_LITERAL


def _zone_raw(value: Any, spec: Tuple[str, Any]):
    """Exact raw-domain image of a literal, or ``None`` if unconvertible.

    Comparisons must hold in the raw domain exactly; a scaled decimal
    that does not land on an integer is kept as an (exact) ``Decimal``
    so Python's numeric ordering against int bounds stays precise.
    """
    kind, meta = spec
    if isinstance(value, bool):
        value = int(value)
    if kind == "date":
        return date_to_days(value) if isinstance(value, _dt.date) else None
    if kind == "decimal":
        if isinstance(value, Decimal):
            scaled = value.scaleb(meta)
            i = int(scaled)
            return i if scaled == i else scaled
        if isinstance(value, int):
            return value * 10 ** meta
        if isinstance(value, float):
            scaled = Decimal(value).scaleb(meta)
            i = int(scaled)
            return i if scaled == i else scaled
        return None
    if kind in ("int", "float"):
        return value if isinstance(value, (int, float)) else None
    return None


class _Compiled:
    """A cached compiled query: the function plus its metadata."""

    __slots__ = ("fn", "source", "probe_specs", "columns")

    def __init__(self, fn, source: str, probe_specs, columns) -> None:
        self.fn = fn
        self.source = source
        self.probe_specs = probe_specs
        self.columns = columns


def _slow_entry_deref(manager, entry: int, inc: int) -> int:
    """Out-of-line dereference used when the fast incarnation check fails."""
    word = manager.table.incarnation_word(entry)
    if word == inc:
        return manager.table.address_of(entry)
    if (word & ~FLAG_MASK) == (inc & INC_MASK):
        return manager._deref_frozen(entry, inc)
    raise NullReferenceError(f"entry {entry} dereferenced after removal")


def _slow_direct_deref(manager, address: int, inc: int) -> int:
    """Out-of-line slow path for direct in-row pointers."""
    from repro.core.handle import resolve_direct_pointer

    return resolve_direct_pointer(manager, address, inc)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


class _Generator:
    def __init__(
        self, query: Query, flavor: str, direct: bool, dicted: bool = False
    ) -> None:
        if flavor not in ("managed", "smc-safe", "smc-unsafe"):
            raise CompileError(f"unknown compiled flavour {flavor!r}")
        self.query = query
        self.flavor = flavor
        self.direct = direct
        self.dicted = dicted
        self.schema = query.source.schema
        self.layout = self.schema.__layout__
        self.env: Dict[str, Any] = {
            "_Decimal": Decimal,
            "_days_to_date": __import__(
                "repro.schema.fields", fromlist=["days_to_date"]
            ).days_to_date,
            "_date_to_days": date_to_days,
            "_scan": _runtime.scan_blocks,
            "_slow_entry": _slow_entry_deref,
            "_slow_direct": _slow_direct_deref,
            "_NRE": NullReferenceError,
        }
        self._uid = 0
        self.prelude: List[str] = []
        self.body: List[str] = []
        self.finale: List[str] = []
        #: per-row navigation cache: steps tuple -> (bufvar, offvar)
        self._nav_cache: Dict[tuple, Tuple[str, str]] = {}
        self._param_cache: Dict[tuple, str] = {}
        #: per-schema string-dictionary prelude bindings (dict mode)
        self._sdict_vars: Dict[Tuple[str, str], str] = {}
        self.probe_specs: List[List[Tuple[str, Any]]] = []
        self._inset_count = 0

    # -- small helpers ---------------------------------------------------

    def uid(self, prefix: str) -> str:
        self._uid += 1
        return f"_{prefix}{self._uid}"

    def bind(self, value: Any, prefix: str = "c") -> str:
        name = self.uid(prefix)
        self.env[name] = value
        return name

    def unpacker(self, fmt: str) -> str:
        key = f"_u_{fmt}"
        if key not in self.env:
            self.env[key] = struct.Struct("<" + fmt).unpack_from
        return key

    def _sdict_bind(self, cls_name: str, attr: str) -> str:
        """Prelude-bind a schema's string dictionary (or an attribute of
        it), resolved from ``_mgr`` per call — never baked into the env."""
        key = (cls_name, attr)
        var = self._sdict_vars.get(key)
        if var is None:
            var = self.uid("sd")
            expr = f"_mgr.collections[{cls_name!r}].strdict"
            if attr:
                expr += f".{attr}"
            self.prelude.append(f"{var} = {expr}")
            self._sdict_vars[key] = var
        return var

    def _strcode_probe(
        self, inner: Expr, row_lines: List[str]
    ) -> Optional[Tuple[str, str]]:
        """Raw dictionary-code access for code-space string predicates.

        Returns ``(code_expr, class_name)`` when *inner* is a direct
        varstring field read in the unsafe flavour of a dict-encoded
        source, else ``None`` (caller falls back to decoded text).
        """
        if self.flavor != "smc-unsafe" or not self.dicted:
            return None
        if not isinstance(inner, FieldRef) or not isinstance(
            inner.field, VarStringField
        ):
            return None
        bufvar, offvar = self._navigate(inner.steps, row_lines)
        u = self.unpacker("q")
        field = inner.field
        # max(..., 0) folds the NULL_ADDRESS row template to code 0 ("").
        code = f"max({u}({bufvar}, {offvar} + {field.offset})[0], 0)"
        return code, field.owner.__name__

    def _strcode_member(
        self, probe: Tuple[str, str], kind: str, arg: Any
    ) -> Tuple[str, Tuple[str, Any]]:
        """Rewrite a string predicate as code-set membership.

        The matching-code set is fetched once per call in the prelude
        (``StringDict.match_set`` is version-cached, so steady-state cost
        is a dict lookup) and the per-row test collapses to ``code in
        set`` — no heap read, no decode.
        """
        code, cls_name = probe
        matcher = self._sdict_bind(cls_name, "match_set")
        argvar = self.bind(arg, "marg")
        var = self.uid("ms")
        self.prelude.append(f"{var} = {matcher}({kind!r}, {argvar})")
        return f"({code} in {var})", ("bool", None)

    # -- entry point -------------------------------------------------------

    def build(self) -> _Compiled:
        plan = list(self.query.ops)
        filters: List[Expr] = []
        insets: List[WhereIn] = []
        terminal: Optional[Any] = None
        post: List[Any] = []
        for op in plan:
            if isinstance(op, Where):
                if terminal is not None:
                    raise CompileError("where after aggregation not supported")
                filters.append(op.pred)
            elif isinstance(op, WhereIn):
                if terminal is not None:
                    raise CompileError("where_in after aggregation not supported")
                insets.append(op)
            elif isinstance(op, (Select, GroupBy)):
                if terminal is not None:
                    raise CompileError("only one projection/aggregation allowed")
                terminal = op
            elif isinstance(op, (OrderBy, Take, Having, Distinct)):
                post.append(op)
            else:
                raise CompileError(f"cannot compile op {op!r}")

        self._emit_prelude()
        row_lines: List[str] = []
        self._emit_filters(row_lines, filters, insets)
        columns = self._emit_terminal(row_lines, terminal)
        self._emit_loop(row_lines)
        self._emit_post(post, columns, terminal)

        src_lines = ["def __query(source, params, insets):"]
        src_lines += ["    " + ln for ln in self.prelude]
        src_lines += ["    " + ln for ln in self.body]
        src_lines += ["    " + ln for ln in self.finale]
        src_lines.append(f"    return {columns!r}, _rows")
        source = "\n".join(src_lines)
        scope: Dict[str, Any] = dict(self.env)
        exec(compile(source, f"<query:{self.flavor}>", "exec"), scope)
        return _Compiled(scope["__query"], source, self.probe_specs, columns)

    # -- prelude -----------------------------------------------------------

    def _emit_prelude(self) -> None:
        p = self.prelude
        if self.flavor == "managed":
            p.append("_records = source.records_list()")
        else:
            p.append("_mgr = source.manager")
            p.append("_space = _mgr.space")
            p.append("_blocks = _space._blocks")
            p.append("_table = _mgr.table")
            p.append("_tinc = _table._inc")
            p.append("_taddr = _table._addr")
            p.append("_shift = _space.block_shift")
            p.append("_mask = _space.block_size - 1")
            # Resolved per call: compiled functions are cached and shared
            # across managers, so the heap cannot be baked into the env.
            p.append("_heap = _mgr.strings")
        p.append("_rows = []")

    # -- row loop ------------------------------------------------------------

    def _emit_loop(self, row_lines: List[str]) -> None:
        b = self.body
        if self.flavor == "managed":
            b.append("for _r in _records:")
            b += ["    " + ln for ln in row_lines]
            return
        slot_size = self.layout.slot_size
        b.append("_mgr.epochs.enter_critical_section()")
        b.append("try:")
        b.append("    for _blk in _scan(_mgr, source.context):")
        b.append("        buf = _blk.buf")
        b.append("        _bp = _blk.backptrs")
        b.append("        _base = _blk.object_offset")
        b.append("        for _s in _blk.valid_slots().tolist():")
        b.append(f"            off = _base + _s * {slot_size}")
        b += ["            " + ln for ln in row_lines]
        b.append("finally:")
        b.append("    _mgr.epochs.exit_critical_section()")

    # -- filters ----------------------------------------------------------

    def _emit_filters(
        self, row_lines: List[str], filters: List[Expr], insets: List[WhereIn]
    ) -> None:
        for pred in filters:
            code, dtype = self._expr(pred, row_lines)
            row_lines.append(f"if not ({code}): continue")
        for op in insets:
            specs: List[Tuple[str, Any]] = []
            codes: List[str] = []
            for e in op.exprs:
                code, dtype = self._expr(e, row_lines)
                codes.append(code)
                specs.append(dtype)
            self.probe_specs.append(specs)
            set_name = f"insets[{self._inset_count}]"
            self._inset_count += 1
            probe = codes[0] if len(codes) == 1 else "(" + ", ".join(codes) + ")"
            neg = "" if op.negated else "not "
            row_lines.append(f"if {neg}({probe}) in {set_name}: continue")

    # -- terminal op -------------------------------------------------------

    def _emit_terminal(self, row_lines: List[str], terminal) -> List[str]:
        if terminal is None:
            return self._emit_enumeration(row_lines)
        if isinstance(terminal, Select):
            return self._emit_select(row_lines, terminal)
        return self._emit_groupby(row_lines, terminal)

    def _emit_enumeration(self, row_lines: List[str]) -> List[str]:
        if self.flavor == "managed":
            row_lines.append("_rows.append(_r)")
        else:
            # Yield references to qualifying objects, as the paper's
            # generated enumeration code does (section 4 listing).
            self.env["_Ref"] = __import__(
                "repro.memory.reference", fromlist=["Ref"]
            ).Ref
            row_lines.append("_e = int(_bp[_s])")
            row_lines.append(
                f"_rows.append(_Ref(_mgr, _e, int(_tinc[_e]) & {INC_MASK}))"
            )
        return ["*"]

    def _emit_select(self, row_lines: List[str], op: Select) -> List[str]:
        parts = []
        for __, expr in op.outputs:
            code, dtype = self._expr(expr, row_lines)
            parts.append(self._decode(code, dtype))
        row_lines.append("_rows.append((" + ", ".join(parts) + ",))")
        return [name for name, __ in op.outputs]

    def _emit_groupby(self, row_lines: List[str], op: GroupBy) -> List[str]:
        self.prelude.append("_groups = {}")
        key_dtypes: List[Tuple[str, Any]] = []
        key_codes: List[str] = []
        for __, expr in op.keys:
            code, dtype = self._expr(expr, row_lines)
            key_codes.append(code)
            key_dtypes.append(dtype)
        if key_codes:
            key = (
                key_codes[0]
                if len(key_codes) == 1
                else "(" + ", ".join(key_codes) + ")"
            )
        else:
            key = "None"

        agg_updates: List[str] = []
        inits: List[str] = []
        agg_dtypes: List[Tuple[str, Any]] = []
        for i, (__, agg) in enumerate(op.aggs):
            if agg.kind == "count":
                inits.append("0")
                agg_updates.append(f"_acc[{i}] += 1")
                agg_dtypes.append(("int", None))
                continue
            code, dtype = self._expr(agg.expr, row_lines)
            val = self.uid("v")
            row_lines.append(f"{val} = {code}")
            if agg.kind == "sum":
                inits.append("0")
                agg_updates.append(f"_acc[{i}] += {val}")
            elif agg.kind == "avg":
                inits.append("[0, 0]")
                agg_updates.append(
                    f"_acc[{i}][0] += {val}; _acc[{i}][1] += 1"
                )
            elif agg.kind == "min":
                inits.append("None")
                agg_updates.append(
                    f"if _acc[{i}] is None or {val} < _acc[{i}]: _acc[{i}] = {val}"
                )
            elif agg.kind == "max":
                inits.append("None")
                agg_updates.append(
                    f"if _acc[{i}] is None or {val} > _acc[{i}]: _acc[{i}] = {val}"
                )
            agg_dtypes.append(dtype)

        row_lines.append(f"_k = {key}")
        row_lines.append("_acc = _groups.get(_k)")
        row_lines.append("if _acc is None:")
        row_lines.append(f"    _groups[_k] = _acc = [{', '.join(inits)}]")
        row_lines.extend(agg_updates)

        # Finalisation: decode raw keys and aggregate values.
        f = self.finale
        f.append("for _k, _acc in _groups.items():")
        key_parts = []
        if len(op.keys) == 1:
            key_parts.append(self._decode("_k", key_dtypes[0]))
        else:
            for i in range(len(op.keys)):
                key_parts.append(self._decode(f"_k[{i}]", key_dtypes[i]))
        agg_parts = []
        for i, (__, agg) in enumerate(op.aggs):
            dtype = agg_dtypes[i]
            if agg.kind == "count":
                agg_parts.append(f"_acc[{i}]")
            elif agg.kind == "avg":
                agg_parts.append(self._decode_avg(f"_acc[{i}]", dtype))
            elif agg.kind == "sum":
                agg_parts.append(self._decode(f"_acc[{i}]", dtype))
            else:  # min / max
                agg_parts.append(self._decode(f"_acc[{i}]", dtype))
        all_parts = ", ".join(key_parts + agg_parts)
        f.append(f"    _rows.append(({all_parts},))")
        return [name for name, __ in op.keys] + [name for name, __ in op.aggs]

    # -- post ops -----------------------------------------------------------

    def _emit_post(self, post, columns: List[str], terminal) -> None:
        for op in post:
            if isinstance(op, OrderBy):
                for name, desc in reversed(op.items):
                    idx = columns.index(name)
                    self.finale.append(
                        f"_rows.sort(key=lambda r: r[{idx}], reverse={desc})"
                    )
            elif isinstance(op, Take):
                self.finale.append(f"_rows = _rows[:{op.n}]")
            elif isinstance(op, Having):
                fn = self.bind(op, "hv")
                self.finale.append(
                    f"_rows = {fn}.apply({columns!r}, _rows)"
                )
            elif isinstance(op, Distinct):
                self.env.setdefault("_distinct", Distinct.apply)
                self.finale.append("_rows = _distinct(_rows)")

    # -- value decoding (raw -> python) --------------------------------------

    def _decode(self, code: str, dtype: Tuple[str, Any]) -> str:
        if self.flavor != "smc-unsafe":
            return code
        kind, meta = dtype
        if kind == "decimal":
            return f"_Decimal({code}).scaleb(-{meta})"
        if kind == "date":
            return f"_days_to_date({code})"
        if kind == "str" and isinstance(meta, int):
            return f"({code}).rstrip(b' \\x00').decode()"
        return code

    def _decode_avg(self, acc: str, dtype: Tuple[str, Any]) -> str:
        if self.flavor == "smc-unsafe" and dtype[0] == "decimal":
            return (
                f"(_Decimal({acc}[0]) / {acc}[1]).scaleb(-{dtype[1]})"
                f" if {acc}[1] else None"
            )
        return f"({acc}[0] / {acc}[1] if {acc}[1] else None)"

    # ======================================================================
    # Expression compilation
    # ======================================================================

    def _expr(self, expr: Expr, row_lines: List[str]) -> Tuple[str, Tuple[str, Any]]:
        if isinstance(expr, Const):
            return self._const(expr.value)
        if isinstance(expr, Param):
            return f"params[{expr.name!r}]", ("param", expr.name)
        if isinstance(expr, FieldRef):
            return self._field_access(expr, row_lines)
        if isinstance(expr, RefIdentity):
            return self._ref_identity(expr, row_lines)
        if isinstance(expr, BinOp):
            return self._binop(expr, row_lines)
        if isinstance(expr, Cmp):
            return self._cmp(expr, row_lines)
        if isinstance(expr, BoolOp):
            parts = [self._expr(p, row_lines)[0] for p in expr.parts]
            joiner = f" {expr.op} "
            return "(" + joiner.join(parts) + ")", ("bool", None)
        if isinstance(expr, Not):
            inner, __ = self._expr(expr.inner, row_lines)
            return f"(not {inner})", ("bool", None)
        if isinstance(expr, Between):
            value, vdt = self._expr(expr.inner, row_lines)
            lo, ldt = self._expr(expr.lo, row_lines)
            hi, hdt = self._expr(expr.hi, row_lines)
            lo, value1 = self._unify(lo, ldt, value, vdt)
            hi, value2 = self._unify(hi, hdt, value, vdt)
            # value1/value2 identical unless scales differed; recompute value
            return f"({value1} >= {lo} and {value2} <= {hi})", ("bool", None)
        if isinstance(expr, InSet):
            if all(isinstance(v, str) for v in expr.values):
                probe = self._strcode_probe(expr.inner, row_lines)
                if probe is not None:
                    return self._strcode_member(
                        probe, "inset", frozenset(expr.values)
                    )
            inner, dtype = self._expr(expr.inner, row_lines)
            values = frozenset(self._raw_const(v, dtype) for v in expr.values)
            name = self.bind(values, "set")
            return f"({inner} in {name})", ("bool", None)
        if isinstance(expr, CaseWhen):
            cond, __ = self._expr(expr.cond, row_lines)
            then, tdt = self._expr(expr.then, row_lines)
            other, odt = self._expr(expr.otherwise, row_lines)
            then, other, dtype = self._align(then, tdt, other, odt, "+")
            return f"(({then}) if ({cond}) else ({other}))", dtype
        if isinstance(expr, YearOf):
            inner, idt = self._expr(expr.inner, row_lines)
            if self.flavor == "smc-unsafe":
                return f"_days_to_date({inner}).year", ("int", None)
            return f"({inner}).year", ("int", None)
        if isinstance(expr, StrPrefix):
            probe = self._strcode_probe(expr.inner, row_lines)
            if probe is not None:
                return self._strcode_member(probe, "prefix", expr.prefix)
            inner, dtype = self._expr(expr.inner, row_lines)
            if self.flavor == "smc-unsafe" and isinstance(dtype[1], int):
                prefix = self.bind(expr.prefix.encode("utf-8"), "pre")
            else:
                prefix = self.bind(expr.prefix, "pre")
            return f"({inner}.startswith({prefix}))", ("bool", None)
        if isinstance(expr, StrContains):
            probe = self._strcode_probe(expr.inner, row_lines)
            if probe is not None:
                return self._strcode_member(probe, "contains", expr.needle)
            inner, dtype = self._expr(expr.inner, row_lines)
            if self.flavor == "smc-unsafe" and isinstance(dtype[1], int):
                needle = self.bind(expr.needle.encode("utf-8"), "ndl")
            else:
                needle = self.bind(expr.needle, "ndl")
            return f"({needle} in {inner})", ("bool", None)
        raise CompileError(f"cannot compile expression {expr!r}")

    # -- constants / params -------------------------------------------------

    def _const(self, value: Any) -> Tuple[str, Tuple[str, Any]]:
        kind = dtype_of_const(value)
        if self.flavor != "smc-unsafe":
            return self.bind(value), _PYOBJ if kind == "str" else (kind, None)
        if kind == "decimal":
            scale = max(0, -value.as_tuple().exponent)
            raw = int(value.scaleb(scale).to_integral_value())
            return self.bind(raw), ("decimal", scale)
        if kind == "date":
            return self.bind(date_to_days(value)), ("date", None)
        if kind == "str":
            return self.bind(value), ("str", "py")
        if kind == "float":
            return self.bind(value), ("float", None)
        return self.bind(value), ("int", None)

    def _raw_const(self, value: Any, dtype: Tuple[str, Any]) -> Any:
        """Convert a literal to the raw form matching *dtype*."""
        if self.flavor != "smc-unsafe":
            return value
        return _to_raw(value, dtype)

    # -- field access ----------------------------------------------------

    def _field_access(
        self, expr: FieldRef, row_lines: List[str]
    ) -> Tuple[str, Tuple[str, Any]]:
        field = expr.field
        if self.flavor == "managed":
            path = ".".join(s.name for s in expr.steps)
            prefix = f"_r.{path}." if path else "_r."
            dtype = _PYOBJ if not isinstance(field, RefField) else ("ref", None)
            return f"{prefix}{field.name}", dtype
        bufvar, offvar = self._navigate(expr.steps, row_lines)
        return self._read_field(field, bufvar, offvar, row_lines)

    def _read_field(
        self, field: Field, bufvar: str, offvar: str, row_lines: List[str]
    ) -> Tuple[str, Tuple[str, Any]]:
        off = f"{offvar} + {field.offset}"
        if isinstance(field, RefField):
            # The stored reference word is the object's identity token.
            u = self.unpacker("q")
            return f"{u}({bufvar}, {off})[0]", ("ref", None)
        if self.flavor == "smc-safe":
            fname = self.bind(field, "F")
            return f"{fname}.decode_from({bufvar}, {off}, _mgr)", _PYOBJ
        # smc-unsafe: raw representation.
        if isinstance(field, CharField):
            u = self.unpacker(f"{field.width}s")
            return f"{u}({bufvar}, {off})[0]", ("str", field.width)
        if isinstance(field, VarStringField):
            u = self.unpacker("q")
            if self.dicted:
                reader = self._sdict_bind(field.owner.__name__, "text_of")
                return f"{reader}({u}({bufvar}, {off})[0])", ("str", "py")
            return f"_heap.read({u}({bufvar}, {off})[0])", ("str", "py")
        u = self.unpacker(field.fmt)
        return f"{u}({bufvar}, {off})[0]", _field_dtype(field)

    # -- navigation --------------------------------------------------------

    def _navigate(
        self, steps: Tuple[RefField, ...], row_lines: List[str]
    ) -> Tuple[str, str]:
        """Emit reference-navigation code; returns (buf, offset) variables.

        Navigations are cached per path per row, so several fields read
        through the same reference share one dereference — as the paper's
        generated code does.
        """
        if not steps:
            return "buf", "off"
        cached = self._nav_cache.get(steps)
        if cached is not None:
            return cached
        srcbuf, srcoff = self._navigate(steps[:-1], row_lines)
        field = steps[-1]
        uref = self.unpacker("qi")
        w = self.uid("w")
        winc = self.uid("i")
        row_lines.append(
            f"{w}, {winc} = {uref}({srcbuf}, {srcoff} + {field.offset})"
        )
        row_lines.append(f"if {w} == {NULL_ADDRESS}: continue")
        addr = self.uid("a")
        if self.direct:
            blk = self.uid("b")
            row_lines.append(f"{blk} = _blocks[{w} >> _shift]")
            u32 = self.unpacker("I")
            row_lines.append(
                f"if {u32}({blk}.buf, {w} & _mask)[0] != {winc}: "
                f"{w} = _slow_direct(_mgr, {w}, {winc}); "
                f"{blk} = _blocks[{w} >> _shift]"
            )
            bufvar = self.uid("nb")
            offvar = self.uid("no")
            row_lines.append(f"{bufvar} = {blk}.buf")
            row_lines.append(f"{offvar} = {w} & _mask")
        else:
            row_lines.append(
                f"{addr} = _taddr[{w}] if _tinc[{w}] == {winc} "
                f"else _slow_entry(_mgr, {w}, {winc})"
            )
            bufvar = self.uid("nb")
            offvar = self.uid("no")
            row_lines.append(f"{bufvar} = _blocks[{addr} >> _shift].buf")
            row_lines.append(f"{offvar} = {addr} & _mask")
        self._nav_cache[steps] = (bufvar, offvar)
        return bufvar, offvar

    def _ref_identity(
        self, expr: RefIdentity, row_lines: List[str]
    ) -> Tuple[str, Tuple[str, Any]]:
        if self.flavor == "managed":
            path = ".".join(s.name for s in expr.steps)
            return f"_r.{path}", ("ref", None)
        bufvar, offvar = self._navigate(expr.steps[:-1], row_lines)
        return self._read_field(expr.steps[-1], bufvar, offvar, row_lines)

    # -- operators -----------------------------------------------------------

    def _binop(self, expr: BinOp, row_lines: List[str]) -> Tuple[str, Tuple[str, Any]]:
        lcode, ldt = self._expr(expr.left, row_lines)
        rcode, rdt = self._expr(expr.right, row_lines)
        lcode, rcode, dtype = self._align(lcode, ldt, rcode, rdt, expr.op)
        return f"({lcode} {expr.op} {rcode})", dtype

    def _cmp(self, expr: Cmp, row_lines: List[str]) -> Tuple[str, Tuple[str, Any]]:
        lcode, ldt = self._expr(expr.left, row_lines)
        rcode, rdt = self._expr(expr.right, row_lines)
        lcode, rcode, __ = self._align(lcode, ldt, rcode, rdt, "cmp")
        return f"({lcode} {expr.op} {rcode})", ("bool", None)

    def _unify(self, acode, adt, bcode, bdt):
        a2, b2, __ = self._align(acode, adt, bcode, bdt, "cmp")
        return a2, b2

    def _align(
        self,
        lcode: str,
        ldt: Tuple[str, Any],
        rcode: str,
        rdt: Tuple[str, Any],
        op: str,
    ) -> Tuple[str, str, Tuple[str, Any]]:
        """Coerce two compiled operands to a common raw representation."""
        if self.flavor != "smc-unsafe":
            # Python objects interoperate directly; dates/Decimals compare
            # natively and params arrive as the caller's Python values.
            dtype = ldt if ldt != ("param", ldt[1]) else rdt
            return lcode, rcode, _PYOBJ
        # Resolve params against the other side's dtype.
        if ldt[0] == "param" and rdt[0] == "param":
            return lcode, rcode, _PYOBJ
        if ldt[0] == "param":
            lcode = self._param_raw(lcode, ldt[1], rdt)
            ldt = rdt
        if rdt[0] == "param":
            rcode = self._param_raw(rcode, rdt[1], ldt)
            rdt = ldt
        lk, lm = ldt
        rk, rm = rdt
        if lk == "decimal" or rk == "decimal":
            if op == "*":
                if lk == "decimal" and rk == "decimal":
                    return lcode, rcode, ("decimal", lm + rm)
                if lk == "decimal":
                    return lcode, rcode, ("decimal", lm)
                return lcode, rcode, ("decimal", rm)
            if op == "/":
                return (
                    f"(({lcode}) / {10 ** (lm or 0)})"
                    if lk == "decimal"
                    else lcode,
                    f"(({rcode}) / {10 ** (rm or 0)})"
                    if rk == "decimal"
                    else rcode,
                    ("float", None),
                )
            # +, -, comparisons: align scales.
            ls = lm if lk == "decimal" else 0
            rs = rm if rk == "decimal" else 0
            scale = max(ls, rs)
            if ls < scale:
                lcode = f"({lcode} * {10 ** (scale - ls)})"
            if rs < scale:
                rcode = f"({rcode} * {10 ** (scale - rs)})"
            return lcode, rcode, ("decimal", scale)
        if lk == "str" or rk == "str":
            # Align CHAR bytes with Python strings.
            if isinstance(lm, int) and rm == "py":
                rcode = f"({rcode}).encode().ljust({lm}, b'\\x00')"
                return lcode, rcode, ("str", lm)
            if isinstance(rm, int) and lm == "py":
                lcode = f"({lcode}).encode().ljust({rm}, b'\\x00')"
                return lcode, rcode, ("str", rm)
            return lcode, rcode, ldt
        if lk == "float" or rk == "float":
            return lcode, rcode, ("float", None)
        return lcode, rcode, ldt

    def _param_raw(self, code: str, name: str, target: Tuple[str, Any]) -> str:
        """Bind a raw-converted parameter in the prelude (cached per use)."""
        key = (name, target)
        cached = self._param_cache.get(key)
        if cached is not None:
            return cached
        var = self.uid("p")
        kind, meta = target
        if kind == "date":
            self.prelude.append(f"{var} = _date_to_days(params[{name!r}])")
        elif kind == "decimal":
            self.env.setdefault("_dec_raw", _decimal_raw)
            self.prelude.append(f"{var} = _dec_raw(params[{name!r}], {meta})")
        elif kind == "str" and isinstance(meta, int):
            self.prelude.append(
                f"{var} = str(params[{name!r}]).encode().ljust({meta}, b'\\x00')"
            )
        else:
            self.prelude.append(f"{var} = params[{name!r}]")
        self._param_cache[key] = var
        return var


def _decimal_raw(value: Any, scale: int) -> int:
    if isinstance(value, Decimal):
        return int(value.scaleb(scale).to_integral_value())
    if isinstance(value, int):
        return value * 10**scale
    if isinstance(value, float):
        return round(value * 10**scale)
    return int(Decimal(str(value)).scaleb(scale).to_integral_value())
