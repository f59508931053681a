"""Wire encoding of scan plans and partial accumulators.

The process executor (``repro.query.procexec``) ships a query's scan
plan to forked worker processes and receives partial accumulators back.
Expression trees cannot be pickled directly — field descriptors carry
schema-class and manager back-references, and ``Expr.__eq__`` builds
``Cmp`` nodes instead of comparing — so plans travel as explicit tagged
tuples and are re-bound against the worker's (fork-inherited) manager:
a field is named by ``(owner schema name, field name)`` and resolved
through ``manager.collections`` on arrival.

Accumulators travel as one folded chunk of raw NumPy columns (keys and
per-group cells, see ``columnar_exec._Accumulator``), semi-join keys as
the raw columns the subquery's kernels produced: arrays and their
``(kind, meta)`` dtypes, never Python rows.  The only
non-picklable piece of either is the ``("strcode", StringDict)`` dtype
metadata; it is translated to ``("strcode", collection_name)`` on the
wire and re-bound to the receiving process's dictionary — safe because
worker dictionaries are copy-on-write snapshots of the parent's and the
executor's fingerprint protocol discards results whenever a dictionary
changed mid-query.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.query.builder import Agg, GroupBy, Select
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


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def _enc_field(field) -> Tuple[str, str]:
    return (field.owner.__name__, field.name)


def encode_expr(e: Expr):
    if isinstance(e, Const):
        return ("const", e.value)
    if isinstance(e, Param):
        return ("param", e.name)
    if isinstance(e, FieldRef):
        return (
            "field",
            _enc_field(e.field),
            [_enc_field(s) for s in e.steps],
        )
    if isinstance(e, RefIdentity):
        return ("refid", [_enc_field(s) for s in e.steps])
    if isinstance(e, BinOp):
        return ("bin", e.op, encode_expr(e.left), encode_expr(e.right))
    if isinstance(e, Cmp):
        return ("cmp", e.op, encode_expr(e.left), encode_expr(e.right))
    if isinstance(e, BoolOp):
        return ("bool", e.op, [encode_expr(p) for p in e.parts])
    if isinstance(e, Not):
        return ("not", encode_expr(e.inner))
    if isinstance(e, InSet):
        return ("inset", encode_expr(e.inner), sorted(e.values, key=repr))
    if isinstance(e, Between):
        return (
            "between",
            encode_expr(e.inner),
            encode_expr(e.lo),
            encode_expr(e.hi),
        )
    if isinstance(e, StrPrefix):
        return ("prefix", encode_expr(e.inner), e.prefix)
    if isinstance(e, StrContains):
        return ("contains", encode_expr(e.inner), e.needle)
    if isinstance(e, CaseWhen):
        return (
            "case",
            encode_expr(e.cond),
            encode_expr(e.then),
            encode_expr(e.otherwise),
        )
    if isinstance(e, YearOf):
        return ("year", encode_expr(e.inner))
    raise TypeError(f"cannot encode expression {e!r} for the wire")


def _schema_map(manager) -> Dict[str, Any]:
    return {c.schema.__name__: c for c in manager.collections.values()}


def _dec_field(schemas, spec):
    owner, name = spec
    coll = schemas.get(owner)
    if coll is None:
        raise ValueError(f"unknown schema {owner!r} in plan wire")
    field = coll.layout.by_name.get(name)
    if field is None:
        raise ValueError(f"{owner} has no field {name!r}")
    return field


def decode_expr(schemas, enc) -> Expr:
    tag = enc[0]
    if tag == "const":
        return Const(enc[1])
    if tag == "param":
        return Param(enc[1])
    if tag == "field":
        steps = tuple(_dec_field(schemas, s) for s in enc[2])
        return FieldRef(_dec_field(schemas, enc[1]), steps)
    if tag == "refid":
        return RefIdentity(tuple(_dec_field(schemas, s) for s in enc[1]))
    if tag == "bin":
        return BinOp(enc[1], decode_expr(schemas, enc[2]), decode_expr(schemas, enc[3]))
    if tag == "cmp":
        return Cmp(enc[1], decode_expr(schemas, enc[2]), decode_expr(schemas, enc[3]))
    if tag == "bool":
        return BoolOp(enc[1], tuple(decode_expr(schemas, p) for p in enc[2]))
    if tag == "not":
        return Not(decode_expr(schemas, enc[1]))
    if tag == "inset":
        return InSet(decode_expr(schemas, enc[1]), frozenset(enc[2]))
    if tag == "between":
        return Between(
            decode_expr(schemas, enc[1]),
            decode_expr(schemas, enc[2]),
            decode_expr(schemas, enc[3]),
        )
    if tag == "prefix":
        return StrPrefix(decode_expr(schemas, enc[1]), enc[2])
    if tag == "contains":
        return StrContains(decode_expr(schemas, enc[1]), enc[2])
    if tag == "case":
        return CaseWhen(
            decode_expr(schemas, enc[1]),
            decode_expr(schemas, enc[2]),
            decode_expr(schemas, enc[3]),
        )
    if tag == "year":
        return YearOf(decode_expr(schemas, enc[1]))
    raise ValueError(f"unknown expression tag {tag!r}")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


def encode_plan(manager, plan) -> dict:
    """Encode a ``_ScanPlan`` for shipping to a worker process.

    Zone tests are deliberately dropped: the parent prunes with its
    authoritative zone maps before dispatching, so workers scan exactly
    the admitted blocks and never consult (possibly stale copy-on-write)
    block statistics.
    """
    source_name = None
    for name, coll in manager.collections.items():
        if coll is plan.source:
            source_name = name
            break
    if source_name is None:
        raise ValueError("scan source is not a registered collection")
    names = _strdict_names(manager)
    return {
        "source": source_name,
        "params": plan.params,
        "filters": [encode_expr(f) for f in plan.filters],
        "insets": [
            (
                [encode_expr(e) for e in op.exprs],
                bool(op.negated),
                keys.columns,
                [_enc_dtype(d, names) for d in keys.dtypes],
            )
            for op, keys in plan.inset_ops
        ],
        "terminal": _encode_terminal(plan.terminal),
    }


def _encode_terminal(terminal):
    if terminal is None:
        return None
    if isinstance(terminal, Select):
        return ("select", [(n, encode_expr(e)) for n, e in terminal.outputs])
    if isinstance(terminal, GroupBy):
        return (
            "groupby",
            [(n, encode_expr(e)) for n, e in terminal.keys],
            [
                (n, a.kind, None if a.expr is None else encode_expr(a.expr))
                for n, a in terminal.aggs
            ],
        )
    raise TypeError(f"cannot encode terminal {terminal!r}")


def decode_plan(manager, wire: dict):
    """Rebuild a ``_ScanPlan`` against the worker's manager."""
    from repro.query.columnar_exec import _KeyColumns, _ScanPlan

    schemas = _schema_map(manager)
    source = manager.collections[wire["source"]]
    filters = [decode_expr(schemas, f) for f in wire["filters"]]
    inset_ops = [
        (
            SimpleNamespace(
                exprs=tuple(decode_expr(schemas, e) for e in exprs),
                negated=negated,
            ),
            _KeyColumns(columns, [_dec_dtype(d, manager) for d in dtypes]),
        )
        for exprs, negated, columns, dtypes in wire["insets"]
    ]
    terminal = _decode_terminal(schemas, wire["terminal"])
    return _ScanPlan(
        manager, source, wire["params"], filters, inset_ops, terminal, []
    )


def _decode_terminal(schemas, enc):
    if enc is None:
        return None
    if enc[0] == "select":
        return Select([(n, decode_expr(schemas, e)) for n, e in enc[1]])
    keys = [(n, decode_expr(schemas, e)) for n, e in enc[1]]
    aggs = [
        (n, Agg(kind, None if e is None else decode_expr(schemas, e)))
        for n, kind, e in enc[2]
    ]
    return GroupBy(keys, aggs)


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------


def _strdict_names(manager) -> Dict[int, str]:
    return {
        id(sd): name
        for name, coll in manager.collections.items()
        if (sd := coll.strdict) is not None
    }


def _enc_dtype(dtype, names: Dict[int, str]):
    if dtype[0] == "strcode":
        # A real strcode meta is a StringDict instance, never a str, so
        # the collection name is an unambiguous wire stand-in.
        return ("strcode", names[id(dtype[1])])
    return dtype


def _dec_dtype(dtype, manager):
    if dtype[0] == "strcode" and isinstance(dtype[1], str):
        return ("strcode", manager.collections[dtype[1]].strdict)
    return dtype


def encode_accumulator(manager, acc) -> dict:
    """A worker's partial: its unit folded to one chunk of arrays (None
    when no row matched), the chunk's dtypes and the scan counters."""
    names = _strdict_names(manager)
    wire = {
        "chunk": None,
        "rows_scanned": acc.rows_scanned,
        "rows_matched": acc.rows_matched,
    }
    if acc.chunks:
        wire["chunk"] = acc.fold()
        wire["key_dtypes"] = [_enc_dtype(d, names) for d in acc.key_dtypes]
        wire["agg_dtypes"] = [_enc_dtype(d, names) for d in acc.agg_dtypes]
    return wire


def decode_accumulator(manager, terminal, wire: dict):
    from repro.query.columnar_exec import _Accumulator

    acc = _Accumulator(terminal)
    if wire["chunk"] is not None:
        acc.chunks.append(wire["chunk"])
        acc.key_dtypes = [_dec_dtype(d, manager) for d in wire["key_dtypes"]]
        acc.agg_dtypes = [_dec_dtype(d, manager) for d in wire["agg_dtypes"]]
    acc.rows_scanned = int(wire["rows_scanned"])
    acc.rows_matched = int(wire["rows_matched"])
    return acc
