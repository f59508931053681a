"""The fluent query builder — the LINQ surface of the reproduction.

A :class:`Query` wraps a data source (a self-managed collection, a
columnar collection, or one of the managed baseline collections) and
accumulates a logical plan::

    q = (lineitems.query()
         .where(Lineitem.shipdate <= param("date"))
         .group_by(flag=Lineitem.returnflag, status=Lineitem.linestatus)
         .aggregate(sum_qty=Sum(Lineitem.quantity),
                    count_order=Count())
         .order_by("flag", "status"))
    rows = q.run(date=datetime.date(1998, 9, 2))

Execution engines (mirroring the paper's evaluation series):

``interpreted``
    pull-based iterator evaluation over row objects — the paper's
    LINQ-to-objects baseline;
``compiled``
    a specialised imperative Python function generated per (query
    structure, source kind) and cached — the paper's query compilation.
    The compiled flavour is chosen from the source: attribute loops for
    managed collections, raw-block scans for SMCs ("unsafe"), handle-level
    scans (``smc-safe``, the paper's "SMC (C#)" series), vectorised NumPy
    kernels for columnar collections, and direct-pointer navigation when
    the memory manager runs in direct mode.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.query.expressions import Expr, FieldRef, RefIdentity, Signed
from repro.schema.fields import Field


class Agg(Signed):
    """An aggregate specification: kind + optional input expression."""

    __slots__ = ("kind", "expr")

    KINDS = ("sum", "count", "avg", "min", "max")

    def __init__(self, kind: str, expr: Optional[Expr]) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown aggregate {kind!r}")
        if kind != "count" and expr is None:
            raise ValueError(f"aggregate {kind} requires an expression")
        self.kind = kind
        self.expr = expr

    def _signature(self) -> str:
        inner = self.expr.signature() if self.expr is not None else ""
        return f"{self.kind}({inner})"


def Sum(expr) -> Agg:
    return Agg("sum", Expr.wrap(expr))


def Count() -> Agg:
    return Agg("count", None)


def Avg(expr) -> Agg:
    return Agg("avg", Expr.wrap(expr))


def Min(expr) -> Agg:
    return Agg("min", Expr.wrap(expr))


def Max(expr) -> Agg:
    return Agg("max", Expr.wrap(expr))


# ----------------------------------------------------------------------
# Logical plan operators
# ----------------------------------------------------------------------


class Op(Signed):
    __slots__ = ()


class Where(Op):
    __slots__ = ("pred",)

    def __init__(self, pred: Expr) -> None:
        self.pred = pred

    def _signature(self) -> str:
        return f"where[{self.pred.signature()}]"


class WhereIn(Op):
    """Membership of an expression tuple in a subquery's result.

    The subquery runs first (with the same engine) and the main query
    probes its result — the semi-join that implements EXISTS-style TPC-H
    predicates (e.g. Query 4).  The vectorised engine keeps the result
    as raw key columns and probes them with one array membership test
    per block; the scalar flavours build a hash set of key tuples.
    """

    __slots__ = ("exprs", "subquery", "negated")

    def __init__(self, exprs: Tuple[Expr, ...], subquery: "Query", negated: bool) -> None:
        self.exprs = exprs
        self.subquery = subquery
        self.negated = negated

    def _signature(self) -> str:
        inner = ",".join(e.signature() for e in self.exprs)
        return f"wherein[{inner};{self.subquery.signature()};{self.negated}]"


class Select(Op):
    __slots__ = ("outputs",)

    def __init__(self, outputs: Sequence[Tuple[str, Expr]]) -> None:
        self.outputs = list(outputs)

    def _signature(self) -> str:
        inner = ",".join(f"{n}={e.signature()}" for n, e in self.outputs)
        return f"select[{inner}]"


class GroupBy(Op):
    __slots__ = ("keys", "aggs")

    def __init__(
        self,
        keys: Sequence[Tuple[str, Expr]],
        aggs: Sequence[Tuple[str, Agg]],
    ) -> None:
        self.keys = list(keys)
        self.aggs = list(aggs)

    def _signature(self) -> str:
        keys = ",".join(f"{n}={e.signature()}" for n, e in self.keys)
        aggs = ",".join(f"{n}={a.signature()}" for n, a in self.aggs)
        return f"groupby[{keys};{aggs}]"


class OrderBy(Op):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Tuple[str, bool]]) -> None:
        #: (output column name, descending?) pairs
        self.items = list(items)

    def _signature(self) -> str:
        inner = ",".join(f"{n}:{'d' if d else 'a'}" for n, d in self.items)
        return f"orderby[{inner}]"


class Take(Op):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def _signature(self) -> str:
        return f"take[{self.n}]"


class Having(Op):
    """Post-aggregation filter on one output column."""

    __slots__ = ("column", "op", "value")

    _OPS = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, column: str, op: str, value: Any) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown having operator {op!r}")
        self.column = column
        self.op = op
        self.value = value

    def apply(self, columns: List[str], rows: List[tuple]) -> List[tuple]:
        idx = columns.index(self.column)
        fn = self._OPS[self.op]
        return [r for r in rows if fn(r[idx], self.value)]

    def _signature(self) -> str:
        return f"having[{self.column}{self.op}{self.value!r}]"


class Distinct(Op):
    """Deduplicate projected rows (SQL DISTINCT)."""

    __slots__ = ()

    @staticmethod
    def apply(rows: List[tuple]) -> List[tuple]:
        seen = set()
        out = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out

    def _signature(self) -> str:
        return "distinct[]"


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class Result:
    """Query result: column names plus row tuples."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: List[str], rows: List[tuple]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Result {self.columns} x {len(self.rows)} rows>"


# ----------------------------------------------------------------------
# The Query
# ----------------------------------------------------------------------


class _Grouped:
    """Intermediate returned by :meth:`Query.group_by`; call ``aggregate``."""

    __slots__ = ("_query", "_keys")

    def __init__(self, query: "Query", keys: Sequence[Tuple[str, Expr]]) -> None:
        self._query = query
        self._keys = list(keys)

    def aggregate(self, **aggs: Agg) -> "Query":
        for name, agg in aggs.items():
            if not isinstance(agg, Agg):
                raise TypeError(f"{name} must be an Agg (Sum/Count/Avg/Min/Max)")
        return self._query._extend(GroupBy(self._keys, list(aggs.items())))


class Query(Signed):
    """An immutable logical query over one source."""

    #: ``_prepared`` memoises the vectorised engine's prepared scan on
    #: the node (``columnar_exec.build_scan_plan``), as ``_sig`` does the
    #: signature
    __slots__ = ("source", "ops", "_prepared")

    def __init__(self, source: Any, ops: Tuple[Op, ...] = ()) -> None:
        self.source = source
        self.ops = ops

    def _extend(self, op: Op) -> "Query":
        return Query(self.source, self.ops + (op,))

    # -- plan construction ----------------------------------------------

    def where(self, pred: Union[Expr, Field]) -> "Query":
        return self._extend(Where(Expr.wrap(pred)))

    def where_in(self, exprs, subquery: "Query", negated: bool = False) -> "Query":
        if not isinstance(exprs, (tuple, list)):
            exprs = (exprs,)
        wrapped = tuple(Expr.wrap(e) for e in exprs)
        return self._extend(WhereIn(wrapped, subquery, negated))

    def select(self, **outputs) -> "Query":
        items = [(name, Expr.wrap(expr)) for name, expr in outputs.items()]
        return self._extend(Select(items))

    def group_by(self, **keys) -> _Grouped:
        items = [(name, Expr.wrap(expr)) for name, expr in keys.items()]
        return _Grouped(self, items)

    def aggregate(self, **aggs: Agg) -> "Query":
        """Global (ungrouped) aggregation."""
        return self._extend(GroupBy([], list(aggs.items())))

    def order_by(self, *items: Union[str, Tuple[str, bool]]) -> "Query":
        normalised: List[Tuple[str, bool]] = []
        for item in items:
            if isinstance(item, str):
                if item.startswith("-"):
                    normalised.append((item[1:], True))
                else:
                    normalised.append((item, False))
            else:
                normalised.append((item[0], bool(item[1])))
        return self._extend(OrderBy(normalised))

    def take(self, n: int) -> "Query":
        return self._extend(Take(n))

    def having(self, column: str, op: str, value: Any) -> "Query":
        """Filter aggregated rows on one output column (SQL HAVING)."""
        return self._extend(Having(column, op, value))

    def distinct(self) -> "Query":
        """Deduplicate projected rows (SQL DISTINCT)."""
        return self._extend(Distinct())

    # -- execution --------------------------------------------------------

    def _signature(self) -> str:
        source_kind = type(self.source).__name__
        schema = getattr(self.source, "schema", None)
        schema_name = schema.__name__ if schema is not None else "?"
        ops = ";".join(op.signature() for op in self.ops)
        return f"{source_kind}<{schema_name}>:{ops}"

    def run(
        self,
        engine: str = "compiled",
        params: Optional[Dict[str, Any]] = None,
        flavor: Optional[str] = None,
        workers: Optional[int] = None,
        **kwparams: Any,
    ) -> Result:
        """Execute the query and return a :class:`Result`.

        ``engine`` is ``"compiled"`` (default — the paper's approach) or
        ``"interpreted"`` (the LINQ-to-objects baseline).  ``flavor``
        overrides the compiled backend (e.g. ``"smc-safe"`` to model the
        paper's SMC (C#) series on a collection that defaults to the
        unsafe backend).  ``workers`` > 1 fans the scan out over the
        manager's process pool (``exec_pool``) when one is attached and
        takes the plan (vectorised SMC backends only); without one the
        scan runs serially, with the same result.  Dynamic
        parameters may be passed via ``params=`` or as keyword
        arguments.
        """
        merged = dict(params or {})
        merged.update(kwparams)
        if engine == "interpreted":
            from repro.query.interpreter import run_interpreted

            return run_interpreted(self, merged)
        if engine == "compiled":
            from repro.query.compiler import run_compiled

            return run_compiled(self, merged, flavor=flavor, workers=workers)
        raise ValueError(f"unknown engine {engine!r}")

    def explain(
        self,
        flavor: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Human-readable plan: source, operators, compiled backend, and
        (for the vectorised SMC backends) the cost-based planner's
        ordered conjuncts with estimated selectivities, the chosen
        access path, and — once the query has executed — estimated vs
        actual rows from the feedback registry."""
        from repro.query.compiler import flavor_for

        try:
            backend = flavor or flavor_for(self.source)
        except Exception:
            backend = "interpreted-only"
        lines = [
            f"Query over {type(self.source).__name__}"
            f"<{getattr(self.source, 'schema', type(None)).__name__}>",
            f"  backend: {backend}",
        ]
        for op in self.ops:
            lines.append(f"  -> {op.signature()}")
        if backend in ("columnar", "smc-unsafe"):
            from repro.query import planner as _planner

            filters = [op.pred for op in self.ops if isinstance(op, Where)]
            try:
                __, info = _planner.plan_scan(
                    self.signature(), filters, dict(params or {}),
                    self.source,
                )
            except Exception:
                info = None
            if info is not None:
                lines.extend(info.explain_lines())
                obs = _planner.observation(self.signature())
                if obs is not None:
                    lines.append(
                        f"  last run: {obs['rows_matched']} rows matched "
                        f"of {obs['rows_scanned']} scanned "
                        f"(est {obs['est_rows']}), "
                        f"{obs['blocks_pruned']} blocks pruned / "
                        f"{obs['blocks_scanned']} scanned"
                    )
        return "\n".join(lines)

    def count(self, **kwparams: Any) -> int:
        """Number of rows the query produces."""
        plan_has_agg = any(isinstance(op, GroupBy) for op in self.ops)
        if plan_has_agg:
            return len(self.run(**kwparams))
        counted = self.aggregate(n=Count()).run(**kwparams)
        return counted.rows[0][0] if counted.rows else 0

    def sum(self, expr, **kwparams: Any):
        """Scalar sum of *expr* over the qualifying rows."""
        result = self.aggregate(v=Sum(Expr.wrap(expr))).run(**kwparams)
        return result.rows[0][0] if result.rows else 0

    def avg(self, expr, **kwparams: Any):
        """Scalar average of *expr* over the qualifying rows."""
        result = self.aggregate(v=Avg(Expr.wrap(expr))).run(**kwparams)
        return result.rows[0][0] if result.rows else None

    def min(self, expr, **kwparams: Any):
        """Scalar minimum of *expr* over the qualifying rows."""
        result = self.aggregate(v=Min(Expr.wrap(expr))).run(**kwparams)
        return result.rows[0][0] if result.rows else None

    def max(self, expr, **kwparams: Any):
        """Scalar maximum of *expr* over the qualifying rows."""
        result = self.aggregate(v=Max(Expr.wrap(expr))).run(**kwparams)
        return result.rows[0][0] if result.rows else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Query {self.signature()}>"


def query(source: Any) -> Query:
    """Start a query over *source* (collections expose ``.query()`` too)."""
    return Query(source)


def ref_key(field_or_expr) -> RefIdentity:
    """Group/join key based on reference identity (reference-based joins)."""
    from repro.query.expressions import ref_identity

    return ref_identity(field_or_expr)
