"""Query compilation: logical plans → specialised imperative functions.

The paper transforms every statically-known LINQ query over an SMC into a
generated imperative function with the dynamic parameters as arguments
(section 2), and the generated code scans the collection's memory blocks
directly (section 4).  This module does the same: it fingerprints
(engine, query structure and source kind), generates Python source
specialised to the schema's slot layout, compiles it once, and caches the
function.  Subsequent executions only re-bind parameters.

Engines, mirroring the evaluation series of the paper's Figure 11:

``managed``
    attribute-access loop over plain Python record objects — the paper's
    *compiled C# over managed collections* (the ``List<T>`` /
    ``ConcurrentDictionary`` series); a managed collection's compiled
    engine.
``smc-safe``
    scans SMC row blocks via the slot directory but decodes every field
    into Python objects (Decimal, date, str) — the paper's *SMC (C#)*
    series: compiled code equivalent to the managed one except for
    enumeration.  It is written for row blocks whose references go
    through the indirection table; any other source is refused.
``smc-unsafe``
    the raw stored representation (scaled-int64 decimals, day-number
    dates, padded bytes, dictionary codes) in vectorised NumPy kernels
    over row or columnar blocks — the paper's *SMC (unsafe C#)* series
    and section 4.1 — dispatched to :mod:`repro.query.columnar_exec`;
    an SMC's compiled engine, whatever its layout or pointer mode.  No
    source is generated for it; this module supplies its zone tests and
    literal conversions.

Both generated engines operate on Python values, so they need no raw
dtype algebra.

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


class CompileError(TypeError):
    """Raised when a plan cannot be compiled for the requested backend."""


# ----------------------------------------------------------------------
# Public driver
# ----------------------------------------------------------------------


def run_compiled(
    query: Query,
    params: Dict[str, Any],
    engine: str = "compiled",
    workers: Optional[int] = None,
) -> Result:
    """Run *query* on a compiled engine.

    ``"compiled"`` is the source's own (its ``compiled_flavor``): the
    vectorised engine over an SMC of either layout, generated
    ``managed`` code over a managed collection.  ``"smc-safe"`` is the
    generated slot-decoding code, refused before a byte is decoded on
    any source but a row-layout SMC with indirect references.
    """
    source = query.source
    kind = getattr(source, "compiled_flavor", None)
    if engine == "smc-safe":
        from repro.core.columnar import ColumnarCollection

        if (
            kind != "smc-unsafe"
            or isinstance(source, ColumnarCollection)
            or source.manager.direct_pointers
        ):
            raise CompileError(
                f"smc-safe code reads row blocks through the indirection "
                f"table and cannot run over this {type(source).__name__}"
            )
    elif kind == "smc-unsafe":
        from repro.query.columnar_exec import run_columnar

        return run_columnar(query, params, workers=workers)
    elif kind == "managed":
        engine = "managed"
    else:
        raise CompileError(
            f"source {type(source).__name__} does not support compiled queries"
        )
    compiled = get_compiled(query, engine)
    columns, rows = compiled.fn(
        source, params, _materialise_insets(query, params)
    )
    return Result(columns, rows)


def get_compiled(query: Query, engine: str) -> "_Compiled":
    key = (engine, query.signature())
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit
    compiled = _Generator(query, engine).build()
    with _CACHE_LOCK:
        _CACHE[key] = compiled
    return compiled


def compiled_source(query: Query, engine: str) -> str:
    """The generated Python source for *query* (introspection/debugging)."""
    return get_compiled(query, engine).source


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _materialise_insets(query: Query, params: Dict[str, Any]) -> List[frozenset]:
    """Run each WhereIn subquery; its rows as a set (one-column rows as
    their value, which is what a single-expression probe yields)."""
    return [
        frozenset(
            row[0] if isinstance(row, tuple) and len(row) == 1 else row
            for row in op.subquery.run(engine="compiled", params=params).rows
        )
        for op in query.ops
        if isinstance(op, WhereIn)
    ]


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
# Raw dtypes (the vectorised engine's and the zone tests')
# ----------------------------------------------------------------------
# dtypes are (kind, meta): ("int", None), ("float", None),
# ("decimal", scale), ("date", None), ("bool", None), ("ref", None),
# ("str", width:int) for padded CHAR bytes, ("str", "py") for Python str.


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
    (:meth:`ZoneTemplate.bind`).  *source* is the scanned collection: a
    varstring predicate becomes a code-space test over its field's
    dictionary there.
    """
    templates: list = []
    for pred in predicates:
        _derive_zone_test(pred, templates, source.manager)
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


def _derive_zone_test(expr: Expr, out: list, manager) -> None:
    if isinstance(expr, BoolOp) and expr.op == "and":
        for part in expr.parts:
            _derive_zone_test(part, out, manager)
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
            if op != "==":
                return
            if isinstance(literal, Const) and isinstance(literal.value, str):
                literal = frozenset((literal.value,))
            elif not isinstance(literal, Param):
                return
            out.append(_code_template(field, manager, "inset", literal))
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
            if all(isinstance(v, str) for v in expr.values):
                out.append(
                    _code_template(field, manager, "inset", frozenset(expr.values))
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
        if field is not None:
            out.append(_code_template(field, manager, "prefix", expr.prefix))
        return
    if isinstance(expr, StrContains):
        field = _string_zone_field(expr.inner)
        if field is not None:
            out.append(_code_template(field, manager, "contains", expr.needle))


def _code_template(field, manager, kind: str, arg) -> CodeZoneTemplate:
    return CodeZoneTemplate(field.name, field.dictionary(manager), kind, arg)


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
    """A cached compiled query: the function plus its source."""

    __slots__ = ("fn", "source")

    def __init__(self, fn, source: str) -> None:
        self.fn = fn
        self.source = source


def _slow_entry_deref(manager, entry: int, inc: int) -> int:
    """Out-of-line dereference used when the fast incarnation check fails."""
    word = manager.table.incarnation_word(entry)
    if word == inc:
        return manager.table.address_of(entry)
    if (word & ~FLAG_MASK) == (inc & INC_MASK):
        return manager._deref_frozen(entry, inc)
    raise NullReferenceError(f"entry {entry} dereferenced after removal")


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------


class _Generator:
    def __init__(self, query: Query, engine: str) -> None:
        if engine not in ("managed", "smc-safe"):
            raise CompileError(f"no generated code for engine {engine!r}")
        self.query = query
        self.engine = engine
        self.schema = query.source.schema
        self.layout = self.schema.__layout__
        self.env: Dict[str, Any] = {
            "_scan": _runtime.scan_blocks,
            "_slow_entry": _slow_entry_deref,
        }
        self._uid = 0
        self.prelude: List[str] = []
        self.body: List[str] = []
        self.finale: List[str] = []
        #: per-row navigation cache: steps tuple -> (bufvar, offvar)
        self._nav_cache: Dict[tuple, Tuple[str, str]] = {}
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
        self._emit_post(post, columns)

        src_lines = ["def __query(source, params, insets):"]
        src_lines += ["    " + ln for ln in self.prelude]
        src_lines += ["    " + ln for ln in self.body]
        src_lines += ["    " + ln for ln in self.finale]
        src_lines.append(f"    return {columns!r}, _rows")
        source = "\n".join(src_lines)
        scope: Dict[str, Any] = dict(self.env)
        exec(compile(source, f"<query:{self.engine}>", "exec"), scope)
        return _Compiled(scope["__query"], source)

    # -- prelude -----------------------------------------------------------

    def _emit_prelude(self) -> None:
        p = self.prelude
        if self.engine == "managed":
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
        p.append("_rows = []")

    # -- row loop ------------------------------------------------------------

    def _emit_loop(self, row_lines: List[str]) -> None:
        b = self.body
        if self.engine == "managed":
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
            row_lines.append(f"if not ({self._expr(pred, row_lines)}): continue")
        for op in insets:
            codes = [self._expr(e, row_lines) for e in op.exprs]
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
        if self.engine == "managed":
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
        parts = [self._expr(expr, row_lines) for __, expr in op.outputs]
        row_lines.append("_rows.append((" + ", ".join(parts) + ",))")
        return [name for name, __ in op.outputs]

    def _emit_groupby(self, row_lines: List[str], op: GroupBy) -> List[str]:
        self.prelude.append("_groups = {}")
        key_codes = [self._expr(expr, row_lines) for __, expr in op.keys]
        if len(key_codes) == 1:
            key, key_parts = key_codes[0], ["_k"]
        else:
            key = "(" + ", ".join(key_codes) + ",)" if key_codes else "None"
            key_parts = [f"_k[{i}]" for i in range(len(key_codes))]

        agg_updates: List[str] = []
        inits: List[str] = []
        for i, (__, agg) in enumerate(op.aggs):
            if agg.kind == "count":
                inits.append("0")
                agg_updates.append(f"_acc[{i}] += 1")
                continue
            val = self.uid("v")
            row_lines.append(f"{val} = {self._expr(agg.expr, row_lines)}")
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

        row_lines.append(f"_k = {key}")
        row_lines.append("_acc = _groups.get(_k)")
        row_lines.append("if _acc is None:")
        row_lines.append(f"    _groups[_k] = _acc = [{', '.join(inits)}]")
        row_lines.extend(agg_updates)

        agg_parts = [
            f"(_acc[{i}][0] / _acc[{i}][1] if _acc[{i}][1] else None)"
            if agg.kind == "avg"
            else f"_acc[{i}]"
            for i, (__, agg) in enumerate(op.aggs)
        ]
        self.finale.append("for _k, _acc in _groups.items():")
        self.finale.append(
            f"    _rows.append(({', '.join(key_parts + agg_parts)},))"
        )
        return [name for name, __ in op.keys] + [name for name, __ in op.aggs]

    # -- post ops -----------------------------------------------------------

    def _emit_post(self, post, columns: List[str]) -> None:
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

    # ======================================================================
    # Expression compilation: operands are Python values, so an
    # expression lowers to the same Python operator it describes.
    # ======================================================================

    def _expr(self, expr: Expr, row_lines: List[str]) -> str:
        if isinstance(expr, Const):
            return self.bind(expr.value)
        if isinstance(expr, Param):
            return f"params[{expr.name!r}]"
        if isinstance(expr, FieldRef):
            return self._field_access(expr, row_lines)
        if isinstance(expr, RefIdentity):
            return self._ref_identity(expr, row_lines)
        if isinstance(expr, (BinOp, Cmp)):
            left = self._expr(expr.left, row_lines)
            right = self._expr(expr.right, row_lines)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, BoolOp):
            parts = [self._expr(p, row_lines) for p in expr.parts]
            return "(" + f" {expr.op} ".join(parts) + ")"
        if isinstance(expr, Not):
            return f"(not {self._expr(expr.inner, row_lines)})"
        if isinstance(expr, Between):
            value = self._expr(expr.inner, row_lines)
            lo = self._expr(expr.lo, row_lines)
            hi = self._expr(expr.hi, row_lines)
            return f"({lo} <= {value} <= {hi})"
        if isinstance(expr, InSet):
            inner = self._expr(expr.inner, row_lines)
            return f"({inner} in {self.bind(frozenset(expr.values), 'set')})"
        if isinstance(expr, CaseWhen):
            cond = self._expr(expr.cond, row_lines)
            then = self._expr(expr.then, row_lines)
            other = self._expr(expr.otherwise, row_lines)
            return f"(({then}) if ({cond}) else ({other}))"
        if isinstance(expr, YearOf):
            return f"({self._expr(expr.inner, row_lines)}).year"
        if isinstance(expr, StrPrefix):
            inner = self._expr(expr.inner, row_lines)
            return f"({inner}.startswith({self.bind(expr.prefix, 'pre')}))"
        if isinstance(expr, StrContains):
            inner = self._expr(expr.inner, row_lines)
            return f"({self.bind(expr.needle, 'ndl')} in {inner})"
        raise CompileError(f"cannot compile expression {expr!r}")

    # -- field access ----------------------------------------------------

    def _field_access(self, expr: FieldRef, row_lines: List[str]) -> str:
        if self.engine == "managed":
            path = ".".join(s.name for s in expr.steps)
            prefix = f"_r.{path}." if path else "_r."
            return f"{prefix}{expr.field.name}"
        bufvar, offvar = self._navigate(expr.steps, row_lines)
        return self._read_field(expr.field, bufvar, offvar)

    def _read_field(self, field: Field, bufvar: str, offvar: str) -> str:
        off = f"{offvar} + {field.offset}"
        if isinstance(field, RefField):
            # The stored reference word is the object's identity token.
            return f"{self.unpacker('q')}({bufvar}, {off})[0]"
        return f"{self.bind(field, 'F')}.decode_from({bufvar}, {off}, _mgr)"

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

    def _ref_identity(self, expr: RefIdentity, row_lines: List[str]) -> str:
        if self.engine == "managed":
            return "_r." + ".".join(s.name for s in expr.steps)
        bufvar, offvar = self._navigate(expr.steps[:-1], row_lines)
        return self._read_field(expr.steps[-1], bufvar, offvar)
