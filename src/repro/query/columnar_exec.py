"""Vectorised query execution over SMC blocks (row and columnar layouts).

The paper's generated query code iterates a block's slot directory and
touches raw object fields directly (section 4); for the columnar layout it
accesses per-field columns (section 4.1).  In Python the realisation of
"tight compiled loops over raw memory" is a vectorised NumPy kernel per
plan stage: predicates become boolean masks over whole column views,
aggregation becomes ``np.add.at``/``bincount`` over group codes, and
reference navigation becomes gathers from the target contexts'
entry-indexed navigation columns (:mod:`repro.memory.navigation`), or
index gathers grouped by target block where those cannot answer.

Both SMC layouts share this engine through one abstraction — the column
accessor.  Columnar blocks expose real per-field arrays (contiguous, the
fastest case); row blocks expose *strided* views into the slot bytes, so
the row layout pays the cache-unfriendly stride the paper's Figure 12
measures against true columnar storage.  The logical plans, parameters
and results are exactly those of the generated ``managed`` / ``smc-safe``
code and the interpreter, so all engines stay interchangeable and
cross-checkable.

Results stay raw until the end: every executor hands the driver chunks
of NumPy columns (:class:`_Accumulator`) — a process worker folds its
unit and ships arrays — and :meth:`_Accumulator.finish` folds them once
and decodes each output column once.

Scaled-decimal arithmetic note: decimal columns hold int64 fixed-point
values; products of two decimals carry the summed scale.  TPC-H's
``price * (1-disc) * (1+tax)`` reaches scale 6 (~1e11 per row), far inside
int64, and grouped sums fold in int64 (through float64 ``bincount`` only
while that is exact).
"""

from __future__ import annotations

import datetime as _dt
import operator
import os
from collections import Counter
from decimal import Decimal
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import NullReferenceError
from repro.memory import zonemap
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import INC_MASK
from repro.memory.navigation import NavColumns
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
from repro.query.compiler import (
    CompileError,
    _field_dtype,
    _to_raw,
    derive_zone_tests,
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
from repro.query import planner as _planner
from repro.query.runtime import scan_blocks
from repro.sanitizer import hooks as _san
from repro.schema.fields import (
    RefField,
    VarStringField,
    date_to_days,
    days_to_date,
)

_PYOBJ = ("any", None)

def build_scan_plan(
    query: Query, params: Dict[str, Any]
) -> Tuple["_ScanPlan", List[Any]]:
    """Lower *query* to a scan plan plus its post-scan operator list.

    The plan is what executors (serial, process pool) consume; the post
    ops (order/limit/having/distinct) always run on the requesting
    thread after the merge.

    Two steps, the paper's compile-once-run-many (section 4): the query
    is *prepared* once — everything that does not depend on the
    parameters, memoised on the ``Query`` node — and every request only
    *binds* its parameters to that.  Binding runs no scan: semi-join
    subqueries run when the plan executes (:func:`_execute`).
    """
    stamp = _planner.stats_stamp(query.source.manager)
    prepared = getattr(query, "_prepared", None)
    if prepared is None or (
        prepared.stamp is not stamp and prepared.stamp != stamp
    ):
        # The statistics moved since it was made (or it never was).
        # Racing threads may both prepare; the plans are equivalent and
        # the last one stays.
        prepared = query._prepared = _PreparedScan(query, params, stamp)
    return prepared.bind(params), prepared.post


class _PreparedScan:
    """The part of a scan plan that no request's parameters change.

    Made once per query and shared by every thread that runs it, so it
    holds no per-request state: the walk of the ops, the split and
    cost-ordered conjuncts (ranked with the parameters of the first
    request — order never changes a result, only how early rows drop
    out), the zone tests as templates, the planner's estimates for the
    feedback registry.  Semi-join subqueries are ``Query`` nodes with
    prepared scans of their own.
    """

    __slots__ = (
        "stamp",
        "source",
        "filters",
        "semijoins",
        "terminal",
        "post",
        "zone_templates",
        "info",
        "uses",
        "routes",
    )

    def __init__(self, query: Query, params, stamp) -> None:
        self.stamp = stamp
        self.source = source = query.source
        filters: List[Expr] = []
        self.semijoins: List[WhereIn] = []
        self.terminal = None
        self.post: List[Any] = []
        for op in query.ops:
            if isinstance(op, Where):
                filters.append(op.pred)
            elif isinstance(op, WhereIn):
                self.semijoins.append(op)
            elif isinstance(op, (Select, GroupBy)):
                if self.terminal is not None:
                    raise CompileError(
                        "only one projection/aggregation allowed"
                    )
                self.terminal = op
            elif isinstance(op, (OrderBy, Take, Having, Distinct)):
                self.post.append(op)
            else:
                raise CompileError(
                    f"cannot run op {op!r} on the columnar engine"
                )
        # Cost-based filter ordering (repro.query.planner): conjunctions
        # are split and conjuncts ranked cheapest-and-most-selective-
        # first from zone-map / dictionary statistics, so expensive
        # navigating kernels see already-reduced row sets.
        #: ``info`` is the planner's estimates (``planner.PlanInfo``)
        self.filters, self.info = _planner.plan_scan(
            query.signature(), filters, params, source
        )
        self.zone_templates = derive_zone_tests(self.filters, source)
        #: how often each distinct expression is referenced, for lowering
        self.uses = _expr_uses(
            _roots(self.filters, [op.exprs for op in self.semijoins], self.terminal)
        )
        #: where its navigated reads go (:class:`_Routes`), set by the
        #: first request that lowers them
        self.routes: Optional[_Routes] = None

    def bind(self, params: Dict[str, Any]) -> "_ScanPlan":
        """This request's plan: the zone bounds and dictionary code sets
        its parameters name."""
        zone_tests = []
        for template in self.zone_templates:
            test = template.bind(params)
            if test is not None:
                zone_tests.append(test)
        source = self.source
        return _ScanPlan(
            source.manager,
            source,
            params,
            self.filters,
            [],
            self.terminal,
            zone_tests,
            self.info,
            self.semijoins,
            self.uses,
            self,
        )


def run_columnar(
    query: Query, params: Dict[str, Any], workers: Optional[int] = None
) -> Result:
    # One critical section spans the whole query (paper section 3.4):
    # the scan and the decoding of its dictionary codes, which a writer
    # could otherwise retire and rebind to another text in between.
    with query.source.manager.critical_section():
        plan, post = build_scan_plan(query, params)
        acc = _execute(plan, max(1, int(workers or 1)))
        return _finish(plan, acc, post)


def _subquery_keys(subquery: Query, params: Dict[str, Any]) -> "_KeyColumns":
    """Run a semi-join subquery; its result as raw key columns.

    Over an SMC source it scans on this engine (through :func:`_execute`,
    feeding the same telemetry as any scan, under a prepared scan of its
    own) and hands over the arrays the kernels produced.  A result that
    only exists as decoded rows (post-scan operators, a managed source)
    converts back to raw columns once, so the probe has a single input
    form.
    """
    if getattr(subquery.source, "compiled_flavor", None) != "smc-unsafe":
        result = subquery.run(engine="compiled", params=params)
        return _KeyColumns.from_rows(result.rows)
    plan, post = build_scan_plan(subquery, params)
    acc = _execute(plan, 1)
    keys = None if post else acc.raw_columns()
    if keys is None:
        keys = _KeyColumns.from_rows(_finish(plan, acc, post).rows)
    return keys


def _execute(plan: "_ScanPlan", nworkers: int) -> "_Accumulator":
    """Scan *plan* — serially, or through :func:`run_parallel` when
    *nworkers* asks for more than one — and record telemetry."""
    plan.run_subqueries()
    manager = plan.manager
    zone_tests = plan.zone_tests
    if nworkers > 1:
        from repro.query.parallel import run_parallel

        acc, pruned, scanned = run_parallel(plan)
    else:
        acc, pruned, scanned = _run_serial(plan)

    extra = manager.stats.extra
    extra["scan_rows"] = extra.get("scan_rows", 0) + acc.rows_scanned
    extra["scan_rows_matched"] = (
        extra.get("scan_rows_matched", 0) + acc.rows_matched
    )
    extra["scan_blocks"] = extra.get("scan_blocks", 0) + scanned
    # Pruning telemetry distinguishes "zone tests ran, nothing prunable"
    # (tested blocks grow, pruned may stay 0) from "no zone test could
    # be derived" (untested blocks grow).
    if zone_tests:
        extra["zone_tested_blocks"] = (
            extra.get("zone_tested_blocks", 0) + scanned + pruned
        )
        extra["zone_pruned_blocks"] = (
            extra.get("zone_pruned_blocks", 0) + pruned
        )
        extra["zone_scanned_blocks"] = (
            extra.get("zone_scanned_blocks", 0) + scanned
        )
    else:
        extra["zone_untested_blocks"] = (
            extra.get("zone_untested_blocks", 0) + scanned
        )
    # Observed per-query selectivity (ppm), for the feedback loop and
    # the metrics bridge.
    if acc.rows_scanned:
        extra["last_scan_selectivity_ppm"] = int(
            1_000_000 * acc.rows_matched / acc.rows_scanned
        )
    _planner.record_observation(
        plan.info,
        rows_scanned=acc.rows_scanned,
        rows_matched=acc.rows_matched,
        blocks_scanned=scanned,
        blocks_pruned=pruned,
    )
    return acc


def _finish(plan: "_ScanPlan", acc: "_Accumulator", post: List[Any]) -> Result:
    """Decode the scan's output and run the post-scan operators."""
    columns, rows = acc.finish(plan.manager)
    for op in post:
        if isinstance(op, OrderBy):
            for name, desc in reversed(op.items):
                i = columns.index(name)
                rows.sort(key=lambda r, i=i: r[i], reverse=desc)
        elif isinstance(op, Take):
            rows = rows[: op.n]
        elif isinstance(op, Having):
            rows = op.apply(columns, rows)
        elif isinstance(op, Distinct):
            rows = Distinct.apply(rows)
    return Result(columns, rows)


class _ScanPlan:
    """Everything a scan worker needs to process one block.

    One request's binding of a :class:`_PreparedScan`: made per request
    and run by that request's thread alone, its semi-join keys filled in
    once when it executes.  Its expressions are lowered once, at the
    first admitted block (:meth:`program`).  A process-pool worker
    unpickles its own copy and folds its blocks into its own partial
    :class:`_Accumulator`.
    """

    __slots__ = (
        "manager",
        "source",
        "params",
        "filters",
        "inset_ops",
        "terminal",
        "zone_tests",
        "info",
        "semijoins",
        "uses",
        "prepared",
        "_program",
    )

    def __init__(
        self,
        manager,
        source,
        params,
        filters,
        inset_ops,
        terminal,
        zone_tests,
        info=None,
        semijoins=(),
        uses=None,
        prepared=None,
    ) -> None:
        self.manager = manager
        self.source = source
        self.params = params
        self.filters = filters
        self.inset_ops = inset_ops
        self.terminal = terminal
        self.zone_tests = zone_tests
        #: the prepared scan's estimates (``planner.PlanInfo``, shared and
        #: read-only) — None on a process worker's copy
        self.info = info
        #: the ``WhereIn`` ops whose subqueries :meth:`run_subqueries`
        #: resolves into ``inset_ops`` (``(op, _KeyColumns)`` pairs)
        self.semijoins = semijoins
        #: the prepared scan's reference counts of the expressions (None:
        #: counted when the plan is lowered, as on a process worker)
        self.uses = uses
        #: the :class:`_PreparedScan` it binds (None on a process worker)
        self.prepared = prepared
        self._program: Optional[_Program] = None

    def run_subqueries(self) -> None:
        """Run each semi-join subquery once, before any executor or the
        process pool's pickler reads ``inset_ops``."""
        if self.semijoins and not self.inset_ops:
            self.inset_ops = [
                (op, _subquery_keys(op.subquery, self.params))
                for op in self.semijoins
            ]

    def program(self) -> "_Program":
        """This request's lowered expressions, made by the first caller."""
        program = self._program
        if program is None:
            program = self._program = _Program(self)
        return program

    def make_accumulator(self) -> "_Accumulator":
        return _Accumulator(self.terminal)

    def admits(self, block) -> bool:
        """Zone-map test: may *block* contain rows satisfying the filters?

        Blocks without current statistics (blocks being filled, empty
        blocks, builds raced by a writer) are always admitted — zone
        pruning is strictly an optimisation over the conservative answer.
        The map itself is built lazily here, amortised across scans:
        writers only bump the block's version counter.  The first
        admitted block lowers the plan, so a fully pruned request lowers
        nothing; the parent of a process-pool scan lowers too, though it
        may ship every block, since it scans pinned pre-states and a dead
        worker's units itself.
        """
        if self.zone_tests:
            zones = zonemap.ensure(self.manager, block)
            if zones is not None:
                for test in self.zone_tests:
                    if not test.admits_zones(zones):
                        return False
        if self._program is None:
            self.program()
        return True

    def process_block(self, block, acc: "_Accumulator") -> None:
        """Run the lowered filters and probes over *block*, folding rows
        into *acc*."""
        program = self._program or self.program()
        ctx = _BlockCtx(self.manager, block, program.slots, program.nav)
        if ctx.idx.size == 0:
            return
        acc.rows_scanned += int(ctx.idx.size)
        for mask in program.filters:
            ctx.refine(mask(ctx))
            if ctx.idx.size == 0:
                return
        for probe in program.probes:
            ctx.refine(probe.mask(ctx))
            if ctx.idx.size == 0:
                return
        acc.rows_matched += int(ctx.idx.size)
        acc.absorb(ctx, program)

    def scan(self, block, acc: "_Accumulator") -> bool:
        """One block of a scan, the step every executor runs: the zone
        test, the residency count, the kernels.  False if pruned — a
        pruned block is never admitted, so a fully-pruned scan over a
        cold context reads zero cold blocks."""
        if not self.admits(block):
            return False
        pager = self.manager.pager
        if pager is not None:
            pager.touch(block)  # counts; the block is read where it lies
        self.process_block(block, acc)
        return True


def _run_serial(plan: _ScanPlan) -> Tuple["_Accumulator", int, int]:
    """Single-threaded scan: one critical section over all blocks.

    Returns ``(accumulator, pruned_blocks, scanned_blocks)``, the shape
    every executor returns.
    """
    manager = plan.manager
    acc = plan.make_accumulator()
    visited = scanned = 0
    manager.epochs.enter_critical_section()
    try:
        for block in scan_blocks(manager, plan.source.context):
            visited += 1
            scanned += plan.scan(block, acc)
    finally:
        manager.epochs.exit_critical_section()
    return acc, visited - scanned, scanned


class _KeyColumns:
    """A semi-join subquery's result: one raw NumPy column per output,
    with the engine's ``(kind, meta)`` dtype of each — what the kernels
    produced (dictionary codes, scaled decimals, day numbers, reference
    words), never Python row objects."""

    __slots__ = ("columns", "dtypes")

    def __init__(self, columns: List[np.ndarray], dtypes: List[tuple]) -> None:
        self.columns = columns
        self.dtypes = dtypes

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @classmethod
    def from_rows(cls, rows: List[Any]) -> "_KeyColumns":
        """Raw columns of decoded result rows: the one conversion point
        for a subquery whose output only exists decoded."""
        if not rows:
            return cls([], [])
        if not isinstance(rows[0], tuple):
            rows = [(row,) for row in rows]
        pairs = [_raw_column(list(values)) for values in zip(*rows)]
        return cls([col for col, __ in pairs], [dtype for __, dtype in pairs])


def _raw_column(values: List[Any]) -> Tuple[np.ndarray, Tuple[str, Any]]:
    """Inverse of :func:`_decode_column` for one column of Python values."""
    first = values[0]
    if isinstance(first, Decimal):
        scale = max(0, *(-v.as_tuple().exponent for v in values))
        raw = [int(v.scaleb(scale).to_integral_value()) for v in values]
        return np.array(raw, dtype=np.int64), ("decimal", scale)
    if isinstance(first, _dt.date):
        days = [date_to_days(v) for v in values]
        return np.array(days, dtype=np.int64), ("date", None)
    arr = np.asarray(values)
    kinds = {"U": ("str", "py"), "f": ("float", None), "O": _PYOBJ}
    return arr, kinds.get(arr.dtype.kind, ("int", None))


def _key_bytes(col: np.ndarray, dtype: Tuple[str, Any]) -> np.ndarray:
    """A string key column as UTF-8 bytes, in the form a CHAR slot
    stores: NUL padding is the only padding (S-dtype compares ignore it),
    and trailing spaces were stripped when the value was written."""
    kind, meta = dtype
    if kind == "strcode":
        col = meta.decode_array(col)
    if col.dtype.kind != "S":
        return np.char.encode(col.astype(str), "utf-8")
    return col


def _common_form(dtype, other) -> Optional[Any]:
    """The transform putting a column of *dtype* into the raw form in
    which it compares equal, value for value, to a column of dtype
    *other* put through this same function (None: as it is): strings as
    bytes, decimals at the wider of the two scales."""
    kind, meta = dtype
    okind, ometa = other
    if kind in ("str", "strcode") or okind in ("str", "strcode"):
        return lambda col: _key_bytes(col, dtype)
    if kind == "decimal" or okind == "decimal":
        mine = meta if kind == "decimal" else 0
        scale = max(mine, ometa if okind == "decimal" else 0)
        if scale != mine:
            factor = 10 ** (scale - mine)
            return lambda col: col * factor
    return None


def _translate_codes(col: np.ndarray, dtype, strdict) -> np.ndarray:
    """Key column *col* as codes of *strdict*, one lookup per unique key
    (``-2``, which no stored code equals, for a string it lacks)."""
    if dtype[0] != "strcode":
        uniq, inverse = np.unique(_key_bytes(col, dtype), return_inverse=True)
        texts = np.char.decode(uniq, "utf-8").tolist()
    elif dtype[1] is strdict:
        return col
    else:
        present = np.flatnonzero(np.bincount(col))
        inverse = np.searchsorted(present, col)
        texts = dtype[1].decode_array(present).tolist()
    codes = [strdict.code_of(text) for text in texts]
    return np.array([-2 if c is None else c for c in codes], np.int64)[inverse]


def _record(cols: List[np.ndarray], dtype: np.dtype) -> np.ndarray:
    out = np.empty(len(cols[0]), dtype=dtype)
    for name, col in zip(dtype.names, cols):
        out[name] = col
    return out


class _InsetProbe:
    """One WhereIn probe, lowered: a vectorised membership test of the
    block's key columns in the subquery's raw key columns.

    The key columns move into the probe columns' raw domain once, when
    the plan is lowered (the probe expressions' dtypes are known then);
    every block is then one array test, never a per-row loop.  Only
    :attr:`_records` is filled in while blocks run, one entry per record
    dtype, built at its first use.
    """

    def __init__(self, op: WhereIn, keys: _KeyColumns, nodes) -> None:
        self.negated = bool(op.negated)
        self.empty = not len(keys)
        self.columns = [_column(node) for node in nodes]
        specs = [node.dtype for node in nodes]
        #: per probe column, its move into the keys' common form
        self.forms = [
            None if spec[0] == "strcode" else _common_form(spec, dtype)
            for spec, dtype in zip(specs, keys.dtypes)
        ]
        #: ``(lo, bool table)`` for a single integer key of small span:
        #: ``np.isin``'s table method, built once instead of per block
        self._table: Optional[Tuple[int, np.ndarray]] = None
        #: multi-column keys as one record array per record dtype
        self._records: Dict[np.dtype, np.ndarray] = {}
        if self.empty:
            return
        aligned = []
        for col, dtype, spec in zip(keys.columns, keys.dtypes, specs):
            if spec[0] == "strcode":
                aligned.append(_translate_codes(col, dtype, spec[1]))
            else:
                form = _common_form(dtype, spec)
                aligned.append(col if form is None else form(col))
        self.aligned = aligned
        if len(aligned) == 1 and aligned[0].dtype.kind in "iu":
            col = aligned[0]
            lo, hi = int(col.min()), int(col.max())
            if hi - lo < max(8 * col.size, _DENSE_FLOOR):
                table = np.zeros(hi - lo + 1, dtype=bool)
                table[col - lo] = True
                self._table = (lo, table)

    def mask(self, ctx: "_BlockCtx") -> np.ndarray:
        if self.empty:
            return np.full(ctx.idx.size, self.negated)
        arrays = [
            column(ctx) if form is None else form(column(ctx))
            for column, form in zip(self.columns, self.forms)
        ]
        aligned = self.aligned
        if self._table is not None:
            lo, table = self._table
            rel = arrays[0].astype(np.int64, copy=False) - lo
            inside = (rel >= 0) & (rel < table.size)
            hit = inside & table[np.where(inside, rel, 0)]
        elif len(arrays) == 1:
            hit = np.isin(arrays[0], aligned[0])
        else:
            dtype = np.dtype(
                [
                    (f"f{j}", np.result_type(arr.dtype, key.dtype))
                    for j, (arr, key) in enumerate(zip(arrays, aligned))
                ]
            )
            record = self._records.get(dtype)
            if record is None:
                record = self._records[dtype] = _record(aligned, dtype)
            hit = np.isin(_record(arrays, dtype), record)
        return ~hit if self.negated else hit


# ----------------------------------------------------------------------
# Per-block evaluation context
# ----------------------------------------------------------------------


class _BlockCtx:
    """One block's candidate rows while a lowered program runs over it:
    the row selection, the navigation caches and the value cache slots
    of the expressions the program shares."""

    def __init__(self, manager, block, slots: int = 0, nav=None) -> None:
        self.manager = manager
        self.block = block
        self.idx = idx = block.valid_slots()
        #: the valid slots as one ``lo:hi`` run while they are unbroken
        #: (every loaded or bulk-filled block) and unrefined: base columns
        #: are then strided views of the block, not ``idx`` gathers
        self._run: Optional[slice] = None
        if idx.size and int(idx[-1]) - int(idx[0]) + 1 == idx.size:
            self._run = slice(int(idx[0]), int(idx[-1]) + 1)
        #: the request's :class:`_Navigator` (None: it navigates nothing)
        self.nav = nav
        #: the navigator's snapshots for this block, read at first use
        self._nav_state = None
        #: fallback reasons already counted for this block
        self._fell: Dict[str, bool] = {}
        #: navigation through navigation columns: steps tuple ->
        #: (row positions in the last target's snapshot, version), or
        #: None where the block takes the address path
        self._pos: Dict[tuple, Optional[Tuple[np.ndarray, int]]] = {}
        #: address-path navigation cache: steps tuple -> (address array,
        #: version)
        self._addrs: Dict[tuple, Tuple[np.ndarray, int]] = {}
        #: per-navigation-path target-block grouping of the address
        #: array, shared by every field gathered through the same path
        self._groupings: Dict[tuple, "_AddressGrouping"] = {}
        #: per shared expression (its lowered slot): (array, version)
        self._vals: List[Optional[Tuple[np.ndarray, int]]] = [None] * slots
        #: keep masks applied by refine(); cached arrays record the
        #: version (keep count) they are aligned to and catch up lazily
        #: on access, so a predicate value that is never reused costs
        #: nothing when later predicates shrink the candidate set.
        self._keeps: List[np.ndarray] = []

    def refine(self, keep: np.ndarray) -> None:
        self.idx = self.idx[keep]
        self._run = None
        self._keeps.append(keep)
        self._groupings.clear()  # groupings index the pre-refine arrays

    def detach(self) -> None:
        """Stop handing out views of the block: whatever is evaluated
        from here on may outlive the scan's critical section (the
        accumulator keeps it), so it must be a gathered copy."""
        self._run = None

    def _catch_up(self, arr: np.ndarray, version: int) -> np.ndarray:
        for i in range(version, len(self._keeps)):
            arr = arr[self._keeps[i]]
        return arr

    def _cached(self, cache: dict, steps: tuple):
        """*cache*'s array for *steps*, caught up with every refine."""
        arr, version = cache[steps]
        if version != len(self._keeps):
            arr = self._catch_up(arr, version)
            cache[steps] = (arr, len(self._keeps))
        return arr

    # -- navigation -----------------------------------------------------

    def _base(self, name: str) -> np.ndarray:
        """Column *name* of the scanned block at the candidate rows."""
        column = self.block.column(name)
        return column[self.idx] if self._run is None else column[self._run]

    def _gather(
        self, addrs: np.ndarray, steps: Tuple[RefField, ...], name: Optional[str]
    ) -> np.ndarray:
        """Column *name* (None: the slot incarnation words) of the
        objects at *addrs*, which navigating *steps* led to."""
        grouping = self._groupings.get(steps)
        if grouping is None:
            grouping = _AddressGrouping(self.manager.space, addrs)
            self._groupings[steps] = grouping
        if grouping.runs:
            return grouping.fetch(name)
        if name is None:
            return np.empty(0, dtype=np.uint32)
        target = steps[-1].resolve_target().__name__
        context = self.manager.collections[target].context
        if name in context.dict_fields:
            return np.empty(0, dtype=np.int32)
        return np.empty(0, dtype=context.layout.columns[name][0])

    def _base_words(self, field: RefField) -> Tuple[np.ndarray, np.ndarray]:
        """The scanned rows' ``(word, incarnation)`` of reference *field*."""
        w = self._base(field.name + "__w").astype(np.int64)
        return w, self._base(field.name + "__i")

    def _entry_words(self, field: RefField, w, inc) -> np.ndarray:
        """Entry words *w* of reference *field*, once each passed the
        null and the incarnation check (a failure raises)."""
        _check_words(field, w)
        entry_inc = self.manager.table._inc[w] & INC_MASK
        if not np.array_equal(entry_inc, inc & INC_MASK):
            raise NullReferenceError("reference incarnation mismatch")
        return w

    def addresses(self, steps: Tuple[RefField, ...]) -> Optional[np.ndarray]:
        """Target addresses after navigating *steps* (None = base block)."""
        if not steps:
            return None
        if steps in self._addrs:
            return self._cached(self._addrs, steps)
        parent = self.addresses(steps[:-1])
        field = steps[-1]
        if parent is None:
            w, inc = self._base_words(field)
        else:
            w = self._gather(parent, steps[:-1], field.name + "__w")
            inc = self._gather(parent, steps[:-1], field.name + "__i")
        if self.manager.direct_pointers:
            _check_words(field, w)
            addrs = w
            live = self._gather(addrs, steps, None) & INC_MASK
            if not np.array_equal(live, inc & INC_MASK):
                raise NullReferenceError("direct pointer incarnation mismatch")
        else:
            addrs = self.manager.table._addr[self._entry_words(field, w, inc)]
        self._addrs[steps] = (addrs, len(self._keeps))
        return addrs

    def _fallback(self, reason: str) -> None:
        """Count this block once per *reason* it took the address path."""
        if reason not in self._fell:
            self._fell[reason] = True
            self.nav.home.fallbacks[reason] += 1

    def positions(self, steps: Tuple[RefField, ...]) -> Optional[np.ndarray]:
        """Row positions in the navigation columns of *steps*' last
        target, or None: this block navigates *steps* by address."""
        if steps in self._pos:
            return None if self._pos[steps] is None else self._cached(self._pos, steps)
        nav = self.nav
        if nav is None:
            return None  # a bare block context: the address path
        pos = None
        if nav.reason is not None:
            self._fallback(nav.reason)
        else:
            state = self._nav_state
            if state is None:
                state = self._nav_state = nav.state()
            __, snaps, hops = state
            if len(steps) == 1:
                snap = snaps[nav.paths[steps]]
                if snap is not None:
                    words = self._entry_words(steps[0], *self._base_words(steps[0]))
                    pos = snap.locate(words)
                if pos is None:
                    self._fallback("stale")
            else:
                parent = self.positions(steps[:-1])
                hop = None
                if parent is not None:
                    hop = hops.get((nav.paths[steps[:-1]], steps[-1].name))
                    if hop is None:
                        self._fallback("stale")
                if hop is not None:
                    pos = hop[parent]
                    if pos.size and int(pos.min()) < 0:
                        self._fallback("sentinel")
                        pos = None
        self._pos[steps] = None if pos is None else (pos, len(self._keeps))
        return pos

    def column(self, steps: Tuple[RefField, ...], name: str) -> np.ndarray:
        if not steps:
            return self._base(name)
        pos = self.positions(steps)
        if pos is None:
            return self._gather(self.addresses(steps), steps, name)
        snap = self._nav_state[1][self.nav.paths[steps]]
        values = snap.values[name][pos]
        if _san.SANITIZER is not None:
            self._cross_check(steps, name, values)
        return values

    def _cross_check(self, steps, name: str, values: np.ndarray) -> None:
        """Sanitizer: the address path must answer what the navigation
        columns answered, unless a writer moved a version since the
        block read its snapshots (a race the answer may reflect)."""
        try:
            expected = self._gather(self.addresses(steps), steps, name)
        except NullReferenceError:
            expected = None
        stamps = self._nav_state[0]
        moved = [nav.context.version for nav in self.nav.routes.navs] != stamps
        equal = expected is not None and np.array_equal(
            expected, values, equal_nan=values.dtype.kind == "f"
        )
        _san.SANITIZER.event(
            "nav.check",
            equal=equal,
            moved=moved,
            context=self.nav.paths[steps].context.name,
            column=name,
        )


def _check_words(field: RefField, words: np.ndarray) -> None:
    if np.any(words == NULL_ADDRESS):
        raise NullReferenceError(
            f"null reference navigating {field.name} (columnar engine "
            f"requires non-null paths)"
        )


class _Routes:
    """Where one prepared scan's navigated reads go — the same for every
    request that binds it: each path prefix's last target context, and
    per target context the value columns and hop fields read there.
    It holds no snapshot, so a query that is not asked again keeps no
    column alive."""

    __slots__ = ("paths", "needs", "navs")

    def __init__(self, manager, reads: Dict[tuple, dict]) -> None:
        #: steps prefix -> its last target's navigation columns
        self.paths: Dict[tuple, NavColumns] = {}
        #: navigation columns -> (value names, {hop field: target columns})
        self.needs: Dict[NavColumns, Tuple[dict, Dict[str, NavColumns]]] = {}
        collections = manager.collections
        for steps, names in reads.items():
            navs = [
                collections[step.resolve_target().__name__].context.nav
                for step in steps
            ]
            for i, nav in enumerate(navs):
                self.paths[steps[: i + 1]] = nav
                need = self.needs.setdefault(nav, ({}, {}))
                if i + 1 < len(steps):
                    need[1][steps[i + 1].name] = navs[i + 1]
            self.needs[navs[-1]][0].update(names)
        self.navs: List[NavColumns] = list(self.needs)


class _Navigator:
    """One request's reference navigation through navigation columns
    (:mod:`repro.memory.navigation`), along its prepared scan's
    :class:`_Routes`.

    A block answers from the columns only while every navigated context
    is at its snapshot's stamp, checked per block (:meth:`state`).  A
    context is (re)built at most once per request, so a writer that
    keeps changing it sends the request's later blocks down the address
    path instead of into a rebuild per block.
    """

    def __init__(self, manager, scanned, routes: _Routes) -> None:
        self.table = manager.table
        #: the scanned context's columns, which count its fallbacks
        self.home: NavColumns = scanned.nav
        #: why no block of this request can use the columns (None: any may)
        self.reason: Optional[str] = None
        if manager.direct_pointers:
            self.reason = "direct"
        elif manager.owner_pid != os.getpid():
            self.reason = "worker"
        self.routes = routes
        self.paths = routes.paths
        #: contexts and (context, hop field) pairs built by this request
        self._tried: Dict[Any, bool] = {}
        self._state = None

    def state(self):
        """``(stamps, snapshots, hops)`` for a block: each target
        context's current snapshot (None: stale beyond this request's
        one rebuild) and each usable hop column."""
        state = self._state
        if state is None or state[0] != [
            nav.context.version for nav in self.routes.navs
        ]:
            state = self._state = self._resolve()
        return state

    def _resolve(self):
        needs, navs = self.routes.needs, self.routes.navs
        snaps: Dict[NavColumns, Any] = {}
        raws: Dict[NavColumns, dict] = {}
        for nav in navs:
            names, hops = needs[nav]
            snap = nav.current()
            if snap is None or not (
                names.keys() <= snap.values.keys()
                and hops.keys() <= snap.hops.keys()
            ):
                snap = None
                if nav not in self._tried:
                    self._tried[nav] = True
                    snap, raws[nav] = nav.build(names, hops)
            snaps[nav] = snap
        hop_cols: Dict[tuple, np.ndarray] = {}
        for nav in navs:
            snap = snaps[nav]
            if snap is None:
                continue
            for field, target_nav in needs[nav][1].items():
                target = snaps[target_nav]
                if target is None:
                    continue
                hop = snap.hops.get(field)
                if hop is None or hop[0] is not target:
                    raw = raws.get(nav, {}).get(field)
                    if raw is None and (nav, field) not in self._tried:
                        self._tried[(nav, field)] = True
                        again, got = nav.build((), (field,))
                        raw = got.get(field) if again is snap else None
                    if raw is None:
                        continue
                    hop = snap.hops[field] = (target, nav.hop(self.table, raw, target))
                hop_cols[(nav, field)] = hop[1]
        stamps = [None if snaps[nav] is None else snaps[nav].stamp for nav in navs]
        return stamps, snaps, hop_cols


# ----------------------------------------------------------------------
# Lowering: a request's expressions, resolved once
# ----------------------------------------------------------------------
# The paper compiles a query into one function over raw block fields
# (section 4).  Here every distinct expression of a bound plan becomes,
# once per request, a closure over the block context whose dtypes,
# decimal scales, parameter raws, CHAR probe bytes and dictionary code
# sets are already resolved: a block runs array operations only.

_BOOL = ("bool", None)

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}
_CMP_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Node:
    """One lowered expression: ``fn(ctx)`` is its value over a block's
    candidate rows, ``dtype`` its raw ``(kind, meta)`` dtype.  A literal
    or a bound parameter is a constant: no ``fn``, ``const`` holds its
    raw value, and operators fold it in at lowering."""

    __slots__ = ("dtype", "fn", "is_const", "const")

    def __init__(self, dtype, fn=None, const: Any = None) -> None:
        self.dtype = dtype
        self.fn = fn
        self.is_const = fn is None
        self.const = const


def _raw_const(value: Any) -> _Node:
    if isinstance(value, Decimal):
        scale = max(0, -value.as_tuple().exponent)
        raw = int(value.scaleb(scale).to_integral_value())
        return _Node(("decimal", scale), const=raw)
    if isinstance(value, _dt.date):
        return _Node(("date", None), const=date_to_days(value))
    if isinstance(value, str):
        return _Node(("str", "py-bytes"), const=value.encode("utf-8"))
    if isinstance(value, float):
        return _Node(("float", None), const=value)
    return _Node(("int", None), const=value)


def _map(node: _Node, func, dtype) -> _Node:
    """*func* applied to *node*'s value (at lowering, for a constant)."""
    if node.is_const:
        return _Node(dtype, const=func(node.const))
    fn = node.fn
    return _Node(dtype, lambda ctx: func(fn(ctx)))


def _combine(func, left: _Node, right: _Node, dtype) -> _Node:
    """The binary *func* over two nodes, constants folded in."""
    if left.is_const and right.is_const:
        return _Node(dtype, const=func(left.const, right.const))
    if right.is_const:
        lf, c = left.fn, right.const
        return _Node(dtype, lambda ctx: func(lf(ctx), c))
    if left.is_const:
        c, rf = left.const, right.fn
        return _Node(dtype, lambda ctx: func(c, rf(ctx)))
    lf, rf = left.fn, right.fn
    return _Node(dtype, lambda ctx: func(lf(ctx), rf(ctx)))


def _column(node: _Node):
    """``fn(ctx)`` giving *node* as a column of the candidate rows (a
    constant broadcasts)."""
    if not node.is_const:
        return node.fn
    value = node.const
    return lambda ctx: np.full(ctx.idx.size, value)


def _operand(node: _Node):
    """``fn(ctx)`` giving *node*'s value: a column, or a constant as the
    scalar NumPy broadcasts."""
    if not node.is_const:
        return node.fn
    value = node.const
    return lambda ctx: value


def _align(left: _Node, right: _Node, op: str):
    """``(left, right, dtype)``: the operands of *op* in a common raw
    form — decimals at one scale (summed for a product, floats for a
    division) — and the result dtype."""
    lk, lm = left.dtype
    rk, rm = right.dtype
    if lk == "decimal" or rk == "decimal":
        ls = lm if lk == "decimal" else 0
        rs = rm if rk == "decimal" else 0
        if op == "*":
            return left, right, ("decimal", ls + rs)
        if op == "/":
            if lk == "decimal":
                ld = 10 ** ls
                left = _map(left, lambda v: v / ld, ("float", None))
            if rk == "decimal":
                rd = 10 ** rs
                right = _map(right, lambda v: v / rd, ("float", None))
            return left, right, ("float", None)
        scale = max(ls, rs)
        return (
            _scaled(left, 10 ** (scale - ls)),
            _scaled(right, 10 ** (scale - rs)),
            ("decimal", scale),
        )
    if lk == "str" or rk == "str":
        # NumPy S-columns compare against plain byte literals directly.
        return left, right, left.dtype if lk == "str" else right.dtype
    if lk == "float" or rk == "float":
        return left, right, ("float", None)
    return left, right, left.dtype


def _scaled(node: _Node, factor: int) -> _Node:
    if factor == 1:
        return node
    return _map(node, lambda v: v * factor, node.dtype)


def _decoded(node: _Node) -> _Node:
    """A dictionary-coded string node as text (for ordering compares)."""
    decode = node.dtype[1].decode_array
    return _map(node, lambda v: decode(np.asarray(v)), ("str", "py"))


def _years(days) -> np.ndarray:
    days = np.asarray(days, dtype="datetime64[D]")
    return days.astype("datetime64[Y]").astype(np.int64) + 1970


def _outputs(terminal) -> Tuple[list, list]:
    """``(keys, aggregates)`` of a terminal: a projection's outputs are
    its keys."""
    if isinstance(terminal, Select):
        return terminal.outputs, []
    if terminal is None:
        return [], []
    return terminal.keys, terminal.aggs


def _roots(filters: List[Expr], probes, terminal) -> List[Expr]:
    """Every expression a scan evaluates: its filters, each probe's
    columns, the terminal's keys and aggregate inputs."""
    keys, aggs = _outputs(terminal)
    roots = list(filters)
    for exprs in probes:
        roots.extend(exprs)
    roots.extend(e for __, e in keys)
    roots.extend(agg.expr for __, agg in aggs if agg.expr is not None)
    return roots


def _expr_uses(roots: List[Expr]) -> Counter:
    """How many parents (or roots) reference each distinct expression:
    those referenced more than once keep their value for the block."""
    uses: Counter = Counter()

    def walk(expr: Expr) -> None:
        sig = expr.signature()
        uses[sig] += 1
        if uses[sig] == 1:
            for child in expr.children():
                walk(child)

    for root in roots:
        walk(root)
    return uses


class _Lowering:
    """Lowers one request's expressions, each distinct one once."""

    def __init__(self, manager, params, uses: Counter) -> None:
        self.manager = manager
        self.params = params
        self.uses = uses
        #: expression signature -> its lowered node
        self.nodes: Dict[str, _Node] = {}
        #: value cache slots handed out (one per shared array node)
        self.slots = 0
        #: navigated reads: steps tuple -> the column names read there
        #: (a dict used as an ordered set)
        self.reads: Dict[tuple, Dict[str, None]] = {}

    def __call__(self, expr: Expr) -> _Node:
        sig = expr.signature()
        node = self.nodes.get(sig)
        if node is not None:
            return node
        try:
            lower = self._LOWER[type(expr)]
        except KeyError:
            raise CompileError(
                f"cannot evaluate {expr!r} on the columnar engine"
            ) from None
        node = lower(self, expr)
        if not node.is_const and self.uses[sig] > 1:
            node = _Node(node.dtype, self._cached(node.fn))
        self.nodes[sig] = node
        return node

    def mask(self, expr: Expr):
        """``fn(ctx)`` giving *expr* as a boolean row mask."""
        node = self(expr)
        if node.dtype == _BOOL and not node.is_const:
            return node.fn
        column = _column(node)
        return lambda ctx: np.asarray(column(ctx), dtype=bool)

    def _cached(self, fn):
        """*fn* computed once per block and caught up with each refine."""
        slot = self.slots
        self.slots += 1

        def cached(ctx):
            hit = ctx._vals[slot]
            version = len(ctx._keeps)
            if hit is None:
                value = fn(ctx)
            elif hit[1] == version:
                return hit[0]
            else:
                value = ctx._catch_up(*hit)
            ctx._vals[slot] = (value, version)
            return value

        return cached

    # -- one method per expression type ------------------------------

    def _const(self, expr: Const) -> _Node:
        return _raw_const(expr.value)

    def _param(self, expr: Param) -> _Node:
        return _raw_const(self.params[expr.name])

    def _read(self, steps, name: str) -> None:
        if steps:
            self.reads.setdefault(steps, {})[name] = None

    def _field(self, expr: FieldRef) -> _Node:
        field, steps = expr.field, expr.steps
        if isinstance(field, RefField):
            return self._words(steps, field.name + "__w")
        name = field.name
        self._read(steps, name)
        if not isinstance(field, VarStringField):
            return _Node(_field_dtype(field), lambda ctx: ctx.column(steps, name))

        def codes(ctx):
            # Row templates store NULL_ADDRESS (-1) for unset strings;
            # fold to code 0 ("").
            codes = ctx.column(steps, name).astype(np.int64, copy=False)
            if codes.size and int(codes.min()) < 0:
                codes = np.maximum(codes, 0)
            return codes

        return _Node(("strcode", field.dictionary(self.manager)), codes)

    def _refid(self, expr: RefIdentity) -> _Node:
        return self._words(expr.steps[:-1], expr.steps[-1].name + "__w")

    def _words(self, steps, name: str) -> _Node:
        self._read(steps, name)
        return _Node(
            ("ref", None),
            lambda ctx: ctx.column(steps, name).astype(np.int64, copy=False),
        )

    def _binop(self, expr: BinOp) -> _Node:
        left, right, dtype = _align(self(expr.left), self(expr.right), expr.op)
        return _combine(_ARITH[expr.op], left, right, dtype)

    def _cmp(self, expr: Cmp) -> _Node:
        left, right, op = self(expr.left), self(expr.right), expr.op
        if right.dtype[0] == "strcode" and left.dtype[0] != "strcode":
            left, right, op = right, left, _MIRRORED.get(op, op)
        if left.dtype[0] == "strcode":
            return self._cmp_strcode(op, left, right)
        left, right, __ = _align(left, right, "cmp")
        return _combine(_CMP_OPS[op], left, right, _BOOL)

    def _cmp_strcode(self, op: str, left: _Node, right: _Node) -> _Node:
        """A compare of a dictionary-coded *left*.

        Equality against a literal is one ``code_of`` lookup, here,
        and an integer compare per block; ordering compares run on
        decoded text (codes are allocation-ordered, not collation-
        ordered).
        """
        sd = left.dtype[1]
        if right.dtype[0] == "strcode":
            if right.dtype[1] is sd and op in ("==", "!="):
                return _combine(_CMP_OPS[op], left, right, _BOOL)
            return _combine(_CMP_OPS[op], _decoded(left), _decoded(right), _BOOL)
        if not right.is_const:
            raise CompileError(
                "a dictionary-coded string compares with a literal or "
                "another dictionary-coded string"
            )
        value = right.const
        text = value.decode("utf-8") if isinstance(value, bytes) else str(value)
        if op in ("==", "!="):
            code = sd.code_of(text)
            if code is None:
                # The literal is not in the dictionary: nothing matches.
                fill = op == "!="
                return _Node(_BOOL, lambda ctx: np.full(ctx.idx.size, fill))
            return _combine(_CMP_OPS[op], left, _Node(("int", None), const=code), _BOOL)
        text_node = _Node(("str", "py"), const=text)
        return _combine(_CMP_OPS[op], _decoded(left), text_node, _BOOL)

    def _boolop(self, expr: BoolOp) -> _Node:
        masks = [self.mask(part) for part in expr.parts]
        first, rest = masks[0], masks[1:]
        join = operator.and_ if expr.op == "and" else operator.or_

        def fn(ctx):
            out = first(ctx)
            for mask in rest:
                out = join(out, mask(ctx))
            return out

        return _Node(_BOOL, fn)

    def _not(self, expr: Not) -> _Node:
        mask = self.mask(expr.inner)
        return _Node(_BOOL, lambda ctx: ~mask(ctx))

    def _between(self, expr: Between) -> _Node:
        inner = self(expr.inner)
        if inner.dtype[0] == "strcode":
            inner = _decoded(inner)
        lo, v1, __ = _align(self(expr.lo), inner, "cmp")
        hi, v2, __ = _align(self(expr.hi), inner, "cmp")
        if v1 is v2 is inner and lo.is_const and hi.is_const and not inner.is_const:
            # The usual window: the value read once, two compares.
            fn, lo, hi = inner.fn, lo.const, hi.const

            def window(ctx):
                value = fn(ctx)
                return (value >= lo) & (value <= hi)

            return _Node(_BOOL, window)
        return _combine(
            operator.and_,
            _combine(np.greater_equal, v1, lo, _BOOL),
            _combine(np.less_equal, v2, hi, _BOOL),
            _BOOL,
        )

    def _inset(self, expr: InSet) -> _Node:
        inner = self(expr.inner)
        kind, meta = inner.dtype
        if kind == "strcode":
            probe = meta.match_codes("inset", frozenset(str(v) for v in expr.values))
        else:
            raw = [_to_raw(v, inner.dtype) for v in expr.values]
            if kind == "str" and isinstance(meta, int):
                # SQL CHAR comparison ignores trailing spaces: CHAR slots
                # store values without them, so the probe drops them too.
                raw = [v.rstrip(b" \x00") for v in raw]
            probe = np.array(raw)
        return _map(inner, lambda arr: np.isin(arr, probe), _BOOL)

    def _case(self, expr: CaseWhen) -> _Node:
        cond = self.mask(expr.cond)
        then, other = self(expr.then), self(expr.otherwise)
        if then.dtype[0] == "strcode":
            then = _decoded(then)
        if other.dtype[0] == "strcode":
            other = _decoded(other)
        then, other, dtype = _align(then, other, "+")
        tf, of = _operand(then), _operand(other)
        return _Node(dtype, lambda ctx: np.where(cond(ctx), tf(ctx), of(ctx)))

    def _year(self, expr: YearOf) -> _Node:
        return _map(self(expr.inner), _years, ("int", None))

    def _prefix(self, expr: StrPrefix) -> _Node:
        inner = self(expr.inner)
        kind, meta = inner.dtype
        if kind == "strcode":
            # Evaluated once over the dictionary's distinct values, then
            # reduced to an int-code membership test.
            codes = meta.match_codes("prefix", expr.prefix)
            return _map(inner, lambda arr: np.isin(arr, codes), _BOOL)
        prefix = expr.prefix
        if isinstance(meta, int):
            raw = prefix.encode()
            return _map(inner, lambda arr: np.char.startswith(arr, raw), _BOOL)
        return _map(
            inner,
            lambda arr: np.array([s.startswith(prefix) for s in arr], dtype=bool),
            _BOOL,
        )

    def _contains(self, expr: StrContains) -> _Node:
        inner = self(expr.inner)
        kind, meta = inner.dtype
        if kind == "strcode":
            codes = meta.match_codes("contains", expr.needle)
            return _map(inner, lambda arr: np.isin(arr, codes), _BOOL)
        needle = expr.needle
        if isinstance(meta, int):
            raw = needle.encode()
            return _map(inner, lambda arr: np.char.find(arr, raw) >= 0, _BOOL)
        return _map(
            inner,
            lambda arr: np.array([needle in s for s in arr], dtype=bool),
            _BOOL,
        )

    _LOWER = {
        Const: _const,
        Param: _param,
        FieldRef: _field,
        RefIdentity: _refid,
        BinOp: _binop,
        Cmp: _cmp,
        BoolOp: _boolop,
        Not: _not,
        Between: _between,
        InSet: _inset,
        CaseWhen: _case,
        YearOf: _year,
        StrPrefix: _prefix,
        StrContains: _contains,
    }


class _Program:
    """A bound plan's filters, probes, group keys and aggregates lowered
    for one request (:meth:`_ScanPlan.program`).

    Read-only once made; a process worker lowers its decoded copy of the
    plan for itself.
    """

    __slots__ = (
        "filters",
        "probes",
        "keys",
        "key_dtypes",
        "cells",
        "agg_dtypes",
        "slots",
        "nav",
    )

    def __init__(self, plan: _ScanPlan) -> None:
        keys, aggs = _outputs(plan.terminal)
        uses = plan.uses
        if uses is None:
            probes = [op.exprs for op, __ in plan.inset_ops]
            uses = _expr_uses(_roots(plan.filters, probes, plan.terminal))
        lower = _Lowering(plan.manager, plan.params, uses)
        self.filters = [lower.mask(pred) for pred in plan.filters]
        self.probes = [
            _InsetProbe(op, sub, [lower(e) for e in op.exprs])
            for op, sub in plan.inset_ops
        ]
        nodes = [lower(e) for __, e in keys]
        self.keys = [_column(node) for node in nodes]
        self.key_dtypes = [node.dtype for node in nodes]
        #: per aggregate, ``fn(ctx)`` of its input column (None: a count)
        self.cells: List[Any] = []
        self.agg_dtypes: List[Tuple[str, Any]] = []
        for __, agg in aggs:
            if agg.kind == "count":
                self.cells.append(None)
                self.agg_dtypes.append(("int", None))
                continue
            node = lower(agg.expr)
            if node.dtype[0] == "strcode":
                if agg.kind in ("sum", "avg"):
                    raise CompileError(f"cannot {agg.kind} a string field")
                # min/max order by text, not by allocation-ordered code.
                node = _decoded(node)
            self.cells.append(_column(node))
            self.agg_dtypes.append(node.dtype)
        self.slots = lower.slots
        #: the request's navigation (None: it reads no reference path)
        self.nav = None
        if lower.reads:
            prepared = plan.prepared
            routes = None if prepared is None else prepared.routes
            if routes is None:
                routes = _Routes(plan.manager, lower.reads)
                if prepared is not None:
                    prepared.routes = routes
            self.nav = _Navigator(plan.manager, plan.source.context, routes)
        extra = plan.manager.stats.extra
        extra["scan_lowerings"] = extra.get("scan_lowerings", 0) + len(lower.nodes)


class _AddressGrouping:
    """An address array split by target block, reused across gathers.

    No sort: target blocks are peeled off one comparison pass at a time
    (``ids == first remaining id``).  A hop whose references all land in
    one block — the common case: rows loaded together point at rows
    loaded together — costs one compare and gathers as ``column[slots]``
    with no permutation; ``k`` target blocks cost ``k`` shrinking passes
    and no table is ever sized by the id span.  A run is ``(block,
    positions it fills or None for all, slot ids)``, shared by every
    field fetched through the same navigation path.
    """

    __slots__ = ("size", "runs")

    def __init__(self, space, addrs: np.ndarray) -> None:
        offsets = addrs & (space.block_size - 1)
        self.size = len(addrs)
        self.runs: List[tuple] = []
        left = addrs >> space.block_shift  # ids of the ungrouped positions
        rest = None  # ... and the positions themselves (None: all)
        while left.size:
            blk = space.block_by_id(int(left[0]))
            same = left == left[0]
            if same.all():
                slots = offsets if rest is None else offsets[rest]
                self.runs.append((blk, rest, blk.slot_of_offset(slots)))
                break
            pos = np.flatnonzero(same) if rest is None else rest[same]
            self.runs.append((blk, pos, blk.slot_of_offset(offsets[pos])))
            other = ~same
            left = left[other]
            rest = np.flatnonzero(other) if rest is None else rest[other]

    def fetch(self, name: Optional[str]) -> np.ndarray:
        """Column *name* (None: slot incarnation words) at the addresses."""
        out = None
        for blk, pos, slots in self.runs:
            col = blk.slot_incs if name is None else blk.column(name)
            if pos is None:
                return col[slots]
            if out is None:
                out = np.empty(self.size, dtype=col.dtype)
            out[pos] = col[slots]
        return out


# ----------------------------------------------------------------------
# Accumulation across blocks
# ----------------------------------------------------------------------


def _concat(chunks: List[np.ndarray]) -> np.ndarray:
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


#: Tables the sort-free kernels index by key value (offset codes, the
#: presence/remap tables, the semi-join lookup) stay within the row count
#: they serve, or this floor when that is smaller.
_DENSE_FLOOR = 1 << 12


def _offset_codes(col: np.ndarray, limit: int):
    """``(lo, span, col - lo)`` when *col* holds integers — CHAR(1) bytes
    count — spanning at most *limit* values, else None.

    The codes are order-preserving like ``np.unique``'s ranks, and cost
    a min/max instead of a sort.
    """
    if col.dtype == np.dtype("S1"):
        ints = np.ascontiguousarray(col).view(np.uint8)
    elif col.dtype.kind == "i" or (col.dtype.kind == "u" and col.itemsize < 8):
        ints = col
    else:
        return None
    lo, hi = int(ints.min()), int(ints.max())
    if hi - lo >= limit:
        return None
    return lo, hi - lo + 1, ints.astype(np.int64) - lo


def _group_factorize(
    cols: List[np.ndarray],
) -> Tuple[List[np.ndarray], np.ndarray]:
    """``(unique key columns, inverse)`` lexicographic grouping of *cols*.

    Each column becomes order-preserving integer codes — offsets from the
    column minimum when its domain is small (dictionary codes, CHAR(1),
    years, priorities, dense keys), ``np.unique`` ranks otherwise — which
    combine into one integer key space (sizes multiply).  A space no
    larger than the input is compacted through a presence table and its
    running count, a larger one is sorted once; groups come out in
    ascending raw-key order either way.  Only a (pathological) space that
    could overflow int64 falls back to the record sort.
    """
    n = len(cols[0])
    if n == 0:
        return [col[:0] for col in cols], np.zeros(0, dtype=np.int64)
    limit = max(n, _DENSE_FLOOR)
    codes, sizes, decoders = [], [], []
    for col in cols:
        dense = _offset_codes(col, limit)
        if dense is None:
            uniq, inverse = np.unique(col, return_inverse=True)
            if len(cols) == 1:
                return [uniq], inverse
            codes.append(inverse.astype(np.int64, copy=False))
            sizes.append(len(uniq))
            decoders.append(uniq)
        else:
            lo, span, code = dense
            codes.append(code)
            sizes.append(span)
            decoders.append(lo)
    total = 1
    for size in sizes:
        total *= size
    if total >= 2 ** 62:
        rec = np.rec.fromarrays(cols)
        uniq, inverse = np.unique(rec, return_inverse=True)
        return [uniq[name] for name in uniq.dtype.names], inverse
    combined = codes[0]
    for code, size in zip(codes[1:], sizes[1:]):
        combined = combined * size + code
    if total <= limit:
        present = np.zeros(total, dtype=bool)
        present[combined] = True
        ucodes = np.flatnonzero(present)
        inverse = (np.cumsum(present) - 1)[combined]
    else:
        ucodes, inverse = np.unique(combined, return_inverse=True)
    uniq_cols = []
    rem = ucodes
    for col, size, decoder in zip(cols[::-1], sizes[::-1], decoders[::-1]):
        part, rem = rem % size, rem // size
        if isinstance(decoder, np.ndarray):
            uniq_cols.append(decoder[part])
        elif col.dtype.kind == "S":
            uniq_cols.append((part + decoder).astype(np.uint8).view("S1"))
        else:
            uniq_cols.append((part + decoder).astype(col.dtype))
    return uniq_cols[::-1], inverse


def _grouped_sums(
    chunks: List[np.ndarray], inverse: np.ndarray, nuniq: int
) -> np.ndarray:
    """Per-group sums of the chunks (a chunk is one scanned block or a
    folded unit of blocks).

    Dense-group-code scatter: ``np.add.at`` is an unbuffered (hence
    slow) scatter; bincount-with-weights is the vectorised fast path.
    Weights accumulate in float64, exact only below 2**53: an integer
    column whose worst-case sum ``n * max|v|`` stays below that folds in
    one ``bincount``, else chunk by chunk, each chunk guarded on its own
    worst case.  Float chunks always fold chunk by chunk in scan order,
    so their sums reproduce the serial per-block addition order bit for
    bit.
    """
    if chunks and all(arr.dtype.kind in "iu" for arr in chunks):
        whole = _concat(chunks)
        if whole.size == 0:
            return np.zeros(nuniq, dtype=np.int64)
        amax = max(abs(int(whole.min())), abs(int(whole.max())))
        if whole.size * max(amax, 1) < 2 ** 53:
            return np.bincount(inverse, weights=whole, minlength=nuniq).astype(
                np.int64
            )
    total = None
    pos = 0
    for arr in chunks:
        inv = inverse[pos : pos + arr.size]
        pos += arr.size
        if arr.dtype.kind in "iu":
            amax = (
                max(abs(int(arr.min())), abs(int(arr.max())))
                if arr.size
                else 0
            )
            if arr.size * max(amax, 1) < 2 ** 53:
                part = np.bincount(
                    inv, weights=arr, minlength=nuniq
                ).astype(np.int64)
            else:
                part = np.zeros(nuniq, dtype=np.int64)
                np.add.at(part, inv, arr)
        else:
            part = np.bincount(inv, weights=arr, minlength=nuniq)
        total = part if total is None else total + part
    if total is None:
        return np.zeros(nuniq, dtype=np.int64)
    return total


def _grouped_extremes(
    kind: str, arr: np.ndarray, inverse: np.ndarray, nuniq: int
) -> np.ndarray:
    """Per-group minimum (*kind* ``"min"``) or maximum of *arr*."""
    if arr.dtype.kind in "iuf":
        if arr.dtype.kind == "f":
            lowest, highest = -np.inf, np.inf
        else:
            info = np.iinfo(arr.dtype)
            lowest, highest = info.min, info.max
        fold = np.minimum if kind == "min" else np.maximum
        out = np.full(nuniq, highest if kind == "min" else lowest, dtype=arr.dtype)
        fold.at(out, inverse, arr)
        return out
    # Strings (text or bytes): per-row Python fold.
    cells: List[Any] = [None] * nuniq
    lt = kind == "min"
    for g, v in zip(inverse.tolist(), arr.tolist()):
        cur = cells[g]
        if cur is None or (v < cur if lt else v > cur):
            cells[g] = v
    return np.array(cells)


class _Accumulator:
    """A scan's output, kept as raw column chunks until :meth:`finish`.

    A chunk is ``(rows, key columns, cells)`` — one absorbed block, or
    the fold of many.  A projection's outputs are its key columns and it
    has no cells; a group-by has one cell per aggregate: a count's
    weights (None: one per row), the values of a sum, min or max, an
    average's ``(values, weights)``.  :meth:`fold` returns a chunk of the
    same shape with one row per group, so its output folds again: a
    process worker folds its unit and ships the arrays, :meth:`merge`
    appends chunk lists in sequence order, and :meth:`finish` folds once
    and decodes each output column once.
    """

    def __init__(self, terminal) -> None:
        self.terminal = terminal
        #: the key expressions (a projection's outputs) and the aggregates
        self.keys, self.aggs = _outputs(terminal)
        #: an enumeration's live references (never cross a process)
        self.refs: List[Any] = []
        self.chunks: List[tuple] = []
        #: raw dtypes of the key columns and the aggregates, set by the
        #: first block that matched a row
        self.key_dtypes: Optional[List[Tuple[str, Any]]] = None
        self.agg_dtypes: Optional[List[Tuple[str, Any]]] = None
        #: Valid rows examined before filtering (scan-volume telemetry).
        self.rows_scanned = 0
        #: Rows surviving every filter/probe (observed selectivity).
        self.rows_matched = 0

    def absorb(self, ctx: _BlockCtx, program: _Program) -> None:
        """Append a block's matched rows as a chunk of raw columns."""
        ctx.detach()  # what is kept from here on outlives the scan
        if self.terminal is None:
            from repro.memory.reference import Ref

            table = ctx.manager.table
            for entry in ctx.block.backptrs[ctx.idx].tolist():
                self.refs.append(Ref(ctx.manager, entry, table.incarnation(entry)))
            return
        keys = [column(ctx) for column in program.keys]
        cells = []
        for (__, agg), column in zip(self.aggs, program.cells):
            if column is None:
                cells.append(None)
            elif agg.kind == "avg":
                cells.append((column(ctx), None))
            else:
                cells.append(column(ctx))
        self.key_dtypes = program.key_dtypes
        self.agg_dtypes = program.agg_dtypes
        self.chunks.append((int(ctx.idx.size), keys, cells))

    def fold(self) -> tuple:
        """The chunks as one: a projection's concatenated, a group-by's
        with one row per group, in ascending raw-key order.

        One key factorization plus one vectorised fold per aggregate.
        Sums fold chunk by chunk in sequence order, so float sums add in
        the order a serial per-block fold adds them whether a chunk is one
        block or a worker's folded unit.  A sum and an average of the same
        input share one grouped sum, and the unweighted group count is
        computed once and shared by the count and every average.
        """
        chunks = self.chunks
        rows = sum(chunk[0] for chunk in chunks)
        cols = [
            _concat([chunk[1][i] for chunk in chunks])
            for i in range(len(self.keys))
        ]
        if isinstance(self.terminal, Select):
            return rows, cols, []
        if cols:
            keys, inverse = _group_factorize(cols)
            nuniq = len(keys[0])
        else:
            keys, inverse, nuniq = [], np.zeros(rows, dtype=np.int64), 1
        counts = None

        def weights(parts):
            nonlocal counts
            if any(w is not None for w in parts):
                return _grouped_sums(
                    [
                        np.ones(chunk[0], dtype=np.int64) if w is None else w
                        for w, chunk in zip(parts, chunks)
                    ],
                    inverse,
                    nuniq,
                )
            if counts is None:
                counts = np.bincount(inverse, minlength=nuniq)
            return counts

        sums: Dict[str, np.ndarray] = {}  # aggregate input -> grouped sums

        def grouped_sums(agg, parts):
            sig = agg.expr.signature()
            if sig not in sums:
                sums[sig] = _grouped_sums(parts, inverse, nuniq)
            return sums[sig]

        cells: List[Any] = []
        for i, (__, agg) in enumerate(self.aggs):
            parts = [chunk[2][i] for chunk in chunks]
            if agg.kind == "count":
                cells.append(weights(parts))
            elif agg.kind == "avg":
                total = grouped_sums(agg, [p[0] for p in parts])
                cells.append((total, weights([p[1] for p in parts])))
            elif agg.kind == "sum":
                cells.append(grouped_sums(agg, parts))
            else:
                cells.append(
                    _grouped_extremes(agg.kind, _concat(parts), inverse, nuniq)
                )
        return nuniq, keys, cells

    def raw_columns(self) -> Optional[_KeyColumns]:
        """The scan's whole output as raw columns — what a semi-join
        probes — or None when only decoded rows can express it (an
        enumeration's references, an average's totals and weights)."""
        if self.terminal is None or any(a.kind == "avg" for __, a in self.aggs):
            return None
        if not self.chunks:
            return _KeyColumns([], [])
        __, keys, cells = self.fold()
        return _KeyColumns(keys + cells, self.key_dtypes + self.agg_dtypes)

    def merge(self, other: "_Accumulator") -> None:
        """Append another partial's output (barrier merge).

        The executors merge partials in block (sequence) order, so the
        chunk list is the serial scan's and :meth:`finish` produces
        exactly its rows, in its order.
        """
        self.refs.extend(other.refs)
        self.chunks.extend(other.chunks)
        self.rows_scanned += other.rows_scanned
        self.rows_matched += other.rows_matched
        if other.key_dtypes is not None:
            self.key_dtypes = other.key_dtypes
            self.agg_dtypes = other.agg_dtypes

    def finish(self, manager) -> Tuple[List[str], List[tuple]]:
        """Column names and decoded rows: one fold, one decode per column."""
        if self.terminal is None:
            return ["*"], self.refs
        names = [name for name, __ in self.keys] + [n for n, __ in self.aggs]
        if not self.chunks:
            return names, []
        __, keys, cells = self.fold()
        columns = [_decode_column(c, d) for c, d in zip(keys, self.key_dtypes)]
        for (__, agg), cell, dtype in zip(self.aggs, cells, self.agg_dtypes):
            if agg.kind == "count":
                columns.append(cell.tolist())
            elif agg.kind == "avg":
                columns.append(_decode_column(cell[0], dtype, cell[1]))
            else:
                columns.append(_decode_column(cell, dtype))
        return names, list(zip(*columns))


def _decode_column(
    arr: np.ndarray, dtype: Tuple[str, Any], counts: Optional[np.ndarray] = None
) -> List[Any]:
    """Decode a whole output column to Python values (vectorised paths
    for the common types).  With *counts*, *arr* holds an average's
    per-group totals and the column is their means."""
    kind, meta = dtype
    if counts is not None:
        pairs = zip(arr.tolist(), counts.tolist())
        if kind == "decimal":
            return [
                (Decimal(int(t)) / c).scaleb(-meta) if c else None
                for t, c in pairs
            ]
        return [t / c if c else None for t, c in pairs]
    if kind == "strcode":
        return meta.decode_array(arr).tolist()
    if kind == "decimal":
        quantum = Decimal(1).scaleb(-meta)
        return [Decimal(v) * quantum for v in arr.tolist()]
    if kind == "date":
        return [days_to_date(v) for v in arr.tolist()]
    if kind == "str" and isinstance(meta, int):
        return [v.rstrip(b" \x00").decode("utf-8") for v in arr.tolist()]
    if kind == "str":
        return [
            v.rstrip(b" \x00").decode("utf-8") if isinstance(v, bytes) else v
            for v in arr.tolist()
        ]
    return arr.tolist()
