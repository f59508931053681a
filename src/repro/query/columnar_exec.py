"""Vectorised query execution over SMC blocks (row and columnar layouts).

The paper's generated query code iterates a block's slot directory and
touches raw object fields directly (section 4); for the columnar layout it
accesses per-field columns (section 4.1).  In Python the realisation of
"tight compiled loops over raw memory" is a vectorised NumPy kernel per
plan stage: predicates become boolean masks over whole column views,
aggregation becomes ``np.add.at``/``bincount`` over group codes, and
reference navigation becomes index gathers grouped by target block.

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
from decimal import Decimal
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import NullReferenceError
from repro.memory import zonemap
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.indirection import INC_MASK
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
    flavor_for,
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

    The plan is what executors (serial, thread pool, process pool)
    consume; the post ops (order/limit/having/distinct) always run on
    the driver after the merge.

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
    out), the access-path candidate, the zone tests as templates, the
    planner's estimates for the feedback registry.  Semi-join
    subqueries are ``Query`` nodes with prepared scans of their own.
    """

    __slots__ = (
        "stamp",
        "source",
        "filters",
        "semijoins",
        "terminal",
        "post",
        "zone_templates",
        "index_choice",
        "info",
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
        #: ``index_choice`` is the access-path candidate
        #: (``planner.IndexChoice``), ``info`` the estimates
        #: (``planner.PlanInfo``)
        self.filters, self.index_choice, self.info = _planner.plan_scan(
            query.signature(), filters, params, source
        )
        self.zone_templates = derive_zone_tests(self.filters, source)

    def bind(self, params: Dict[str, Any]) -> "_ScanPlan":
        """This request's plan: the zone bounds, dictionary code sets
        and index key its parameters name."""
        zone_tests = []
        for template in self.zone_templates:
            test = template.bind(params)
            if test is not None:
                zone_tests.append(test)
        choice = self.index_choice
        if choice is not None:
            choice = choice.bind(params)
        source = self.source
        return _ScanPlan(
            source.manager,
            source,
            params,
            self.filters,
            [],
            self.terminal,
            zone_tests,
            choice,
            self.info,
            self.semijoins,
        )


def run_columnar(
    query: Query, params: Dict[str, Any], workers: Optional[int] = None
) -> Result:
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
    if flavor_for(subquery.source) not in ("columnar", "smc-unsafe"):
        result = subquery.run(engine="compiled", params=params)
        return _KeyColumns.from_rows(result.rows)
    plan, post = build_scan_plan(subquery, params)
    acc = _execute(plan, 1)
    keys = None if post else acc.raw_columns()
    if keys is None:
        keys = _KeyColumns.from_rows(_finish(plan, acc, post).rows)
    return keys


def _execute(plan: "_ScanPlan", nworkers: int) -> "_Accumulator":
    """Scan *plan* on the executor its shape selects; record telemetry."""
    plan.run_subqueries()
    manager = plan.manager
    zone_tests = plan.zone_tests
    if plan.index_choice is not None:
        # Access-path substitution: the hash index names the candidate
        # rows, only their blocks are touched, every filter re-applies.
        acc, pruned, scanned = _run_index_lookup(plan)
        extra = manager.stats.extra
        extra["index_lookup_queries"] = (
            extra.get("index_lookup_queries", 0) + 1
        )
        extra["index_skipped_blocks"] = (
            extra.get("index_skipped_blocks", 0) + pruned
        )
    elif nworkers > 1:
        # Engine choice: a process pool attached to the manager handles
        # eligible scans (aggregating/projecting terminals); anything it
        # declines — enumeration, a busy pool, a mid-query mutation, a
        # worker failure — falls back to the thread executor, which is
        # always correct.
        result = None
        pool = getattr(manager, "exec_pool", None)
        if pool is not None:
            from repro.query.procexec import run_process_scan

            result = run_process_scan(plan, pool)
        extra = manager.stats.extra
        if result is not None:
            acc, pruned, scanned = result
            extra["exec_process_queries"] = (
                extra.get("exec_process_queries", 0) + 1
            )
        else:
            from repro.query.parallel import run_parallel

            acc, pruned, scanned = run_parallel(plan, nworkers)
            extra["exec_thread_queries"] = (
                extra.get("exec_thread_queries", 0) + 1
            )
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

    One request's binding of a :class:`_PreparedScan`: made per request,
    its semi-join keys filled in once when it executes, and from then on
    shared (read-only) between the serial path and the parallel scan
    workers; the only per-worker state is the ``_InsetProbe`` list (its
    lazily aligned key arrays are not thread-safe) and the partial
    :class:`_Accumulator` each worker folds blocks into.
    """

    __slots__ = (
        "manager",
        "source",
        "params",
        "filters",
        "inset_ops",
        "terminal",
        "zone_tests",
        "index_choice",
        "info",
        "semijoins",
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
        index_choice=None,
        info=None,
        semijoins=(),
    ) -> None:
        self.manager = manager
        self.source = source
        self.params = params
        self.filters = filters
        self.inset_ops = inset_ops
        self.terminal = terminal
        self.zone_tests = zone_tests
        #: planner access-path substitution (``planner.IndexChoice``
        #: bound to this request's key)
        self.index_choice = index_choice
        #: the prepared scan's estimates (``planner.PlanInfo``, shared and
        #: read-only) — None on a process worker's decoded plan
        self.info = info
        #: the ``WhereIn`` ops whose subqueries :meth:`run_subqueries`
        #: resolves into ``inset_ops`` (``(op, _KeyColumns)`` pairs)
        self.semijoins = semijoins

    def run_subqueries(self) -> None:
        """Run each semi-join subquery once, on the driver thread,
        before any executor, ``plansnap`` or the index lookup reads
        ``inset_ops``; each scan worker then probes its own
        ``_InsetProbe`` over the shared (read-only) raw key columns."""
        if self.semijoins and not self.inset_ops:
            self.inset_ops = [
                (op, _subquery_keys(op.subquery, self.params))
                for op in self.semijoins
            ]

    def make_probes(self) -> List["_InsetProbe"]:
        return [_InsetProbe(op, sub) for op, sub in self.inset_ops]

    def make_accumulator(self) -> "_Accumulator":
        return _Accumulator(self.terminal)

    def admits(self, block) -> bool:
        """Zone-map test: may *block* contain rows satisfying the filters?

        Blocks without current statistics (blocks being filled, empty
        blocks, builds raced by a writer) are always admitted — zone
        pruning is strictly an optimisation over the conservative answer.
        The map itself is built lazily here, amortised across scans:
        writers only bump the block's version counter.
        """
        if not self.zone_tests:
            return True
        zones = zonemap.ensure(self.manager, block)
        if zones is None:
            return True
        for test in self.zone_tests:
            if not test.admits_zones(zones):
                return False
        return True

    def process_block(
        self, block, probes, acc: "_Accumulator", slots=None
    ) -> None:
        """Run the filter kernels over *block* (only its candidate
        *slots*, when an index named them), folding rows into *acc*."""
        ctx = _BlockCtx(self.manager, self.source, block, self.params)
        if slots is not None and ctx.idx.size:
            ctx.refine(np.isin(ctx.idx, slots))
        if ctx.idx.size == 0:
            return
        acc.rows_scanned += int(ctx.idx.size)
        for pred in self.filters:
            arr, __ = ctx.eval(pred)
            ctx.refine(np.asarray(arr, dtype=bool))
            if ctx.idx.size == 0:
                return
        for probe in probes:
            ctx.refine(probe.mask(ctx))
            if ctx.idx.size == 0:
                return
        acc.rows_matched += int(ctx.idx.size)
        acc.absorb(ctx)

    def scan(self, block, probes, acc: "_Accumulator") -> bool:
        """One block of a scan, the step every executor runs: the zone
        test, the residency count, the kernels.  False if pruned — a
        pruned block is never admitted, so a fully-pruned scan over a
        cold context reads zero cold blocks."""
        if not self.admits(block):
            return False
        pager = self.manager.pager
        if pager is not None:
            pager.touch(block)  # counts; the block is read where it lies
        self.process_block(block, probes, acc)
        return True


def _run_serial(plan: _ScanPlan) -> Tuple["_Accumulator", int, int]:
    """Single-threaded scan: one critical section over all blocks.

    Returns ``(accumulator, pruned_blocks, scanned_blocks)``, the shape
    every executor returns.
    """
    manager = plan.manager
    acc = plan.make_accumulator()
    probes = plan.make_probes()
    visited = scanned = 0
    manager.epochs.enter_critical_section()
    try:
        for block in scan_blocks(manager, plan.source.context):
            visited += 1
            scanned += plan.scan(block, probes, acc)
    finally:
        manager.epochs.exit_critical_section()
    return acc, visited - scanned, scanned


def _run_index_lookup(plan: _ScanPlan) -> Tuple["_Accumulator", int, int]:
    """Execute *plan* through its hash-index point lookup.

    The index resolves the candidate rows' indirection entries; their
    current addresses group into per-block candidate slot sets, and the
    scan enumerator is then driven normally but only candidate blocks
    build kernels (restricted to the candidate slots, with **all**
    filters re-applied — the index is an access path, not a semantics
    change).  Driving ``scan_blocks`` keeps the compaction-group
    protocol identical to a full scan, and visiting blocks in scan
    order keeps row order identical to the serial scan's.  Like any
    scan, concurrent-mutation visibility follows bag semantics.
    """
    manager = plan.manager
    space = manager.space
    acc = plan.make_accumulator()
    probes = plan.make_probes()
    choice = plan.index_choice
    scanned = 0
    total = 0
    manager.epochs.enter_critical_section()
    try:
        handles = choice.index.get(choice.key)
        table = manager.table
        shift = space.block_shift
        mask = space.block_size - 1
        by_block: Dict[int, List[int]] = {}
        for handle in handles:
            addr = table._addr[handle.ref.entry]
            if addr == NULL_ADDRESS:
                continue
            by_block.setdefault(int(addr) >> shift, []).append(
                int(addr) & mask
            )
        for block in scan_blocks(manager, plan.source.context):
            total += 1
            offsets = by_block.get(block.block_id)
            if offsets is None:
                continue
            scanned += 1
            slots = block.slot_of_offset(np.array(offsets, dtype=np.int64))
            plan.process_block(block, probes, acc, slots)
    finally:
        manager.epochs.exit_critical_section()
    return acc, total - scanned, scanned


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
    """A string key column as padding-free UTF-8 bytes."""
    kind, meta = dtype
    if kind == "strcode":
        col = meta.decode_array(col)
    if col.dtype.kind != "S":
        return np.char.encode(col.astype(str), "utf-8")
    if isinstance(meta, int) and meta < 0:
        return col  # batch-decoded varstring: trailing spaces are data
    return np.char.rstrip(col, b" \x00")


def _common_form(col: np.ndarray, dtype, other) -> np.ndarray:
    """*col* in the raw form in which it compares equal, value for value,
    to a column of dtype *other* put through this same function: strings
    as bytes, decimals at the wider of the two scales."""
    kind, meta = dtype
    okind, ometa = other
    if kind in ("str", "strcode") or okind in ("str", "strcode"):
        return _key_bytes(col, dtype)
    if kind == "decimal" or okind == "decimal":
        mine = meta if kind == "decimal" else 0
        scale = max(mine, ometa if okind == "decimal" else 0)
        if scale != mine:
            return col * 10 ** (scale - mine)
    return col


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
    """One WhereIn probe: a vectorised membership test of the block's
    key columns in the subquery's raw key columns.

    The key columns move into the probe columns' raw domain once, on the
    first block (where the probe expressions' dtypes are known); every
    block is then one array test, never a per-row loop.
    """

    def __init__(self, op: WhereIn, keys: _KeyColumns) -> None:
        self.op = op
        self.keys = keys
        self._aligned: Optional[List[np.ndarray]] = None
        #: ``(lo, bool table)`` for a single integer key of small span:
        #: ``np.isin``'s table method, built once instead of per block
        self._table: Optional[Tuple[int, np.ndarray]] = None
        #: multi-column keys as one record array per record dtype
        self._records: Dict[np.dtype, np.ndarray] = {}

    def _align(self, specs: List[Tuple[str, Any]]) -> None:
        keys = self.keys
        self._aligned = aligned = [
            _translate_codes(col, dtype, spec[1])
            if spec[0] == "strcode"
            else _common_form(col, dtype, spec)
            for col, dtype, spec in zip(keys.columns, keys.dtypes, specs)
        ]
        if len(aligned) == 1 and aligned[0].dtype.kind in "iu":
            col = aligned[0]
            lo, hi = int(col.min()), int(col.max())
            if hi - lo < max(8 * col.size, _DENSE_FLOOR):
                table = np.zeros(hi - lo + 1, dtype=bool)
                table[col - lo] = True
                self._table = (lo, table)

    def mask(self, ctx: "_BlockCtx") -> np.ndarray:
        n = ctx.idx.size
        keys = self.keys
        if not len(keys):
            return np.full(n, bool(self.op.negated))
        arrays: List[np.ndarray] = []
        specs: List[Tuple[str, Any]] = []
        for e in self.op.exprs:
            arr, spec = ctx.eval(e)
            arrays.append(_as_column(arr, n))
            specs.append(spec)
        if self._aligned is None:
            self._align(specs)
        aligned = self._aligned
        arrays = [
            arr if spec[0] == "strcode" else _common_form(arr, spec, dtype)
            for arr, spec, dtype in zip(arrays, specs, keys.dtypes)
        ]
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
        return ~hit if self.op.negated else hit


# ----------------------------------------------------------------------
# Per-block evaluation context
# ----------------------------------------------------------------------


class _BlockCtx:
    def __init__(self, manager, source, block, params) -> None:
        self.manager = manager
        self.source = source
        self.block = block
        self.params = params
        self.idx = idx = block.valid_slots()
        #: the valid slots as one ``lo:hi`` run while they are unbroken
        #: (every loaded or bulk-filled block) and unrefined: base columns
        #: are then strided views of the block, not ``idx`` gathers
        self._run: Optional[slice] = None
        if idx.size and int(idx[-1]) - int(idx[0]) + 1 == idx.size:
            self._run = slice(int(idx[0]), int(idx[-1]) + 1)
        #: navigation cache: steps tuple -> (address array, version)
        self._addrs: Dict[tuple, Tuple[np.ndarray, int]] = {}
        #: per-navigation-path target-block grouping of the address
        #: array, shared by every field gathered through the same path
        self._groupings: Dict[tuple, "_AddressGrouping"] = {}
        #: value cache: expr signature -> (array, dtype, version)
        self._vals: Dict[str, Tuple[np.ndarray, Any, int]] = {}
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

    def _strdict_for(self, field):
        """String dictionary of the collection owning *field*, if any."""
        coll = self.manager.collections.get(field.owner.__name__)
        return getattr(coll, "strdict", None)

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

    def addresses(self, steps: Tuple[RefField, ...]) -> Optional[np.ndarray]:
        """Target addresses after navigating *steps* (None = base block)."""
        if not steps:
            return None
        cached = self._addrs.get(steps)
        if cached is not None:
            arr, version = cached
            if version != len(self._keeps):
                arr = self._catch_up(arr, version)
                self._addrs[steps] = (arr, len(self._keeps))
            return arr
        parent = self.addresses(steps[:-1])
        field = steps[-1]
        if parent is None:
            w = self._base(field.name + "__w").astype(np.int64)
            inc = self._base(field.name + "__i")
        else:
            w = self._gather(parent, steps[:-1], field.name + "__w")
            inc = self._gather(parent, steps[:-1], field.name + "__i")
        if np.any(w == NULL_ADDRESS):
            raise NullReferenceError(
                f"null reference navigating {field.name} (columnar engine "
                f"requires non-null paths)"
            )
        table = self.manager.table
        if self.manager.direct_pointers:
            addrs = w
            live = self._gather(addrs, steps, None) & INC_MASK
            if not np.array_equal(live, inc & INC_MASK):
                raise NullReferenceError("direct pointer incarnation mismatch")
        else:
            entry_inc = table._inc[w] & INC_MASK
            if not np.array_equal(entry_inc, inc & INC_MASK):
                raise NullReferenceError("reference incarnation mismatch")
            addrs = table._addr[w]
        self._addrs[steps] = (addrs, len(self._keeps))
        return addrs

    def column(self, steps: Tuple[RefField, ...], name: str) -> np.ndarray:
        addrs = self.addresses(steps)
        if addrs is None:
            return self._base(name)
        return self._gather(addrs, steps, name)

    # -- expression evaluation ---------------------------------------------

    def eval(self, expr: Expr) -> Tuple[Any, Tuple[str, Any]]:
        sig = expr.signature()
        cached = self._vals.get(sig)
        if cached is not None:
            value, dtype, version = cached
            if version != len(self._keeps):
                value = self._catch_up(value, version)
                self._vals[sig] = (value, dtype, len(self._keeps))
            return value, dtype
        value, dtype = self._eval(expr)
        if isinstance(value, np.ndarray):
            self._vals[sig] = (value, dtype, len(self._keeps))
        return value, dtype

    def _eval(self, expr: Expr) -> Tuple[Any, Tuple[str, Any]]:
        if isinstance(expr, Const):
            return self._const(expr.value)
        if isinstance(expr, Param):
            return self._const(self.params[expr.name])
        if isinstance(expr, FieldRef):
            field = expr.field
            if isinstance(field, RefField):
                arr = self.column(expr.steps, field.name + "__w")
                return np.asarray(arr, dtype=np.int64), ("ref", None)
            if isinstance(field, VarStringField):
                raw = np.asarray(self.column(expr.steps, field.name))
                sd = self._strdict_for(field)
                if sd is not None:
                    # Dictionary codes: row templates store NULL_ADDRESS
                    # (-1) for unset strings; fold to code 0 ("").
                    codes = raw.astype(np.int64, copy=False)
                    if codes.size and int(codes.min()) < 0:
                        codes = np.maximum(codes, 0)
                    return codes, ("strcode", sd)
                # Ablation path: batch-decode the block's records into one
                # NumPy bytes array so string kernels stay vectorised.
                strings = self.manager.strings
                texts = [strings.read_bytes(int(a)) for a in raw]
                width = max(map(len, texts), default=1) or 1
                return np.array(texts, dtype=f"S{width}"), ("str", -width)
            return np.asarray(self.column(expr.steps, field.name)), _field_dtype(
                field
            )
        if isinstance(expr, RefIdentity):
            arr = self.column(expr.steps[:-1], expr.steps[-1].name + "__w")
            return np.asarray(arr, dtype=np.int64), ("ref", None)
        if isinstance(expr, BinOp):
            (l, ldt) = self.eval(expr.left)
            (r, rdt) = self.eval(expr.right)
            l, r, dtype = _align(l, ldt, r, rdt, expr.op)
            if expr.op == "+":
                return l + r, dtype
            if expr.op == "-":
                return l - r, dtype
            if expr.op == "*":
                return l * r, dtype
            return l / r, dtype
        if isinstance(expr, Cmp):
            (l, ldt) = self.eval(expr.left)
            (r, rdt) = self.eval(expr.right)
            if ldt[0] == "strcode" or rdt[0] == "strcode":
                return self._cmp_strcode(expr.op, l, ldt, r, rdt)
            l, r, __ = _align(l, ldt, r, rdt, "cmp")
            return self._CMP_OPS[expr.op](l, r), ("bool", None)
        if isinstance(expr, BoolOp):
            result = None
            for part in expr.parts:
                arr, __ = self.eval(part)
                arr = np.asarray(arr, dtype=bool)
                if result is None:
                    result = arr
                elif expr.op == "and":
                    result = result & arr
                else:
                    result = result | arr
            return result, ("bool", None)
        if isinstance(expr, Not):
            arr, __ = self.eval(expr.inner)
            return ~np.asarray(arr, dtype=bool), ("bool", None)
        if isinstance(expr, Between):
            v, vdt = self.eval(expr.inner)
            if vdt[0] == "strcode":
                v, vdt = vdt[1].decode_array(np.asarray(v)), ("str", "py")
            lo, ldt = self.eval(expr.lo)
            hi, hdt = self.eval(expr.hi)
            lo2, v1, __ = _align(lo, ldt, v, vdt, "cmp")
            hi2, v2, __ = _align(hi, hdt, v, vdt, "cmp")
            return (v1 >= lo2) & (v2 <= hi2), ("bool", None)
        if isinstance(expr, InSet):
            arr, dtype = self.eval(expr.inner)
            if dtype[0] == "strcode":
                codes = dtype[1].match_codes(
                    "inset", frozenset(str(v) for v in expr.values)
                )
                return np.isin(arr, codes), ("bool", None)
            raw = [_to_raw(v, dtype) for v in expr.values]
            if dtype[0] == "str" and isinstance(dtype[1], int) and dtype[1] > 0:
                # SQL CHAR comparison ignores trailing spaces; strip the
                # padding from *both* sides (probes carry NUL padding from
                # _to_raw, the column carries whatever was stored).
                raw = [v.rstrip(b" \x00") for v in raw]
                arr = np.char.rstrip(arr, b" \x00")
            probe = np.array(raw)
            return np.isin(arr, probe), ("bool", None)
        if isinstance(expr, CaseWhen):
            cond, __ = self.eval(expr.cond)
            then, tdt = self.eval(expr.then)
            other, odt = self.eval(expr.otherwise)
            if tdt[0] == "strcode":
                then, tdt = tdt[1].decode_array(np.asarray(then)), ("str", "py")
            if odt[0] == "strcode":
                other, odt = odt[1].decode_array(np.asarray(other)), ("str", "py")
            then, other, dtype = _align(then, tdt, other, odt, "+")
            return (
                np.where(np.asarray(cond, dtype=bool), then, other),
                dtype,
            )
        if isinstance(expr, YearOf):
            arr, __ = self.eval(expr.inner)
            days = np.asarray(arr, dtype="datetime64[D]")
            years = days.astype("datetime64[Y]").astype(np.int64) + 1970
            return years, ("int", None)
        if isinstance(expr, StrPrefix):
            arr, dtype = self.eval(expr.inner)
            if dtype[0] == "strcode":
                # Evaluated once over the dictionary's distinct values,
                # then reduced to an int-code membership test.
                codes = dtype[1].match_codes("prefix", expr.prefix)
                return np.isin(arr, codes), ("bool", None)
            if isinstance(dtype[1], int):
                return (
                    np.char.startswith(arr, expr.prefix.encode()),
                    ("bool", None),
                )
            return (
                np.array([s.startswith(expr.prefix) for s in arr], dtype=bool),
                ("bool", None),
            )
        if isinstance(expr, StrContains):
            arr, dtype = self.eval(expr.inner)
            if dtype[0] == "strcode":
                codes = dtype[1].match_codes("contains", expr.needle)
                return np.isin(arr, codes), ("bool", None)
            if isinstance(dtype[1], int):
                return np.char.find(arr, expr.needle.encode()) >= 0, ("bool", None)
            return (
                np.array([expr.needle in s for s in arr], dtype=bool),
                ("bool", None),
            )
        raise CompileError(f"cannot evaluate {expr!r} on the columnar engine")

    _CMP_OPS = {
        "==": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }

    def _cmp_strcode(self, op, l, ldt, r, rdt):
        """Comparison with at least one dictionary-coded operand.

        Equality against a literal is a single ``code_of`` lookup followed
        by an integer compare; ordering comparisons fall back to decoded
        text (codes are allocation-ordered, not collation-ordered).
        """
        if ldt[0] != "strcode":
            l, ldt, r, rdt = r, rdt, l, ldt
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        sd = ldt[1]
        if rdt[0] == "strcode":
            if rdt[1] is sd and op in ("==", "!="):
                return self._CMP_OPS[op](l, r), ("bool", None)
            lv = sd.decode_array(np.asarray(l))
            rv = rdt[1].decode_array(np.asarray(r))
            return self._CMP_OPS[op](lv, rv), ("bool", None)
        rv = r.decode("utf-8") if isinstance(r, bytes) else str(r)
        if op in ("==", "!="):
            code = sd.code_of(rv)
            if code is None:
                # The literal is not in the dictionary: nothing matches.
                empty = np.zeros(np.asarray(l).shape, dtype=bool)
                return (empty if op == "==" else ~empty), ("bool", None)
            return self._CMP_OPS[op](l, code), ("bool", None)
        texts = sd.decode_array(np.asarray(l))
        return self._CMP_OPS[op](texts, rv), ("bool", None)

    def _const(self, value: Any) -> Tuple[Any, Tuple[str, Any]]:
        if isinstance(value, Decimal):
            scale = max(0, -value.as_tuple().exponent)
            return int(value.scaleb(scale).to_integral_value()), ("decimal", scale)
        if isinstance(value, _dt.date):
            return date_to_days(value), ("date", None)
        if isinstance(value, str):
            return value.encode("utf-8"), ("str", "py-bytes")
        if isinstance(value, float):
            return value, ("float", None)
        return value, ("int", None)


def _align(l, ldt, r, rdt, op):
    """Scaled-decimal / string alignment for vectorised operands."""
    lk, lm = ldt
    rk, rm = rdt
    if lk == "decimal" or rk == "decimal":
        if op == "*":
            scale = (lm if lk == "decimal" else 0) + (
                rm if rk == "decimal" else 0
            )
            return l, r, ("decimal", scale)
        if op == "/":
            lf = l / 10 ** lm if lk == "decimal" else l
            rf = r / 10 ** rm if rk == "decimal" else r
            return lf, rf, ("float", None)
        ls = lm if lk == "decimal" else 0
        rs = rm if rk == "decimal" else 0
        scale = max(ls, rs)
        if ls < scale:
            l = l * 10 ** (scale - ls)
        if rs < scale:
            r = r * 10 ** (scale - rs)
        return l, r, ("decimal", scale)
    if lk == "str" or rk == "str":
        # NumPy S-columns compare against plain byte literals directly.
        return l, r, ldt if lk == "str" else rdt
    if lk == "float" or rk == "float":
        return l, r, ("float", None)
    return l, r, ldt


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


def _as_column(arr, n: int) -> np.ndarray:
    """*arr* as an ``n``-row column (a constant broadcasts)."""
    arr = np.asarray(arr)
    return np.full(n, arr[()]) if arr.ndim == 0 else arr


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
    """Per-group sums folded chunk by chunk (a chunk is one scanned block
    or a folded unit of blocks).

    Dense-group-code scatter: ``np.add.at`` is an unbuffered (hence
    slow) scatter; bincount-with-weights is the vectorised fast path.
    Weights accumulate in float64, exact only below 2**53, so each
    chunk guards on its worst-case partial-sum magnitude.  Chunks fold
    in scan order, so float sums reproduce the serial per-block
    addition order bit for bit.
    """
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
        self.keys = []
        self.aggs = []
        if isinstance(terminal, Select):
            self.keys = terminal.outputs
        elif terminal is not None:
            self.keys, self.aggs = terminal.keys, terminal.aggs
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

    def absorb(self, ctx: _BlockCtx) -> None:
        """Append a block's matched rows as a chunk of raw columns."""
        ctx.detach()  # what is kept from here on outlives the scan
        if self.terminal is None:
            from repro.memory.reference import Ref

            table = ctx.manager.table
            for entry in ctx.block.backptrs[ctx.idx].tolist():
                self.refs.append(Ref(ctx.manager, entry, table.incarnation(entry)))
            return
        n = ctx.idx.size
        keys = []
        key_dtypes = []
        for __, e in self.keys:
            arr, dtype = ctx.eval(e)
            keys.append(_as_column(arr, n))
            key_dtypes.append(dtype)
        cells = []
        agg_dtypes = []
        for __, agg in self.aggs:
            if agg.kind == "count":
                cells.append(None)
                agg_dtypes.append(("int", None))
                continue
            arr, dtype = ctx.eval(agg.expr)
            arr = np.asarray(arr)
            if dtype[0] == "strcode":
                if agg.kind in ("sum", "avg"):
                    raise CompileError(f"cannot {agg.kind} a string field")
                # min/max order by text, not by allocation-ordered code.
                arr = dtype[1].decode_array(arr)
                dtype = ("str", "py")
            arr = _as_column(arr, n)
            cells.append((arr, None) if agg.kind == "avg" else arr)
            agg_dtypes.append(dtype)
        self.key_dtypes = key_dtypes
        self.agg_dtypes = agg_dtypes
        self.chunks.append((n, keys, cells))

    def fold(self) -> tuple:
        """The chunks as one: a projection's concatenated, a group-by's
        with one row per group, in ascending raw-key order.

        One key factorization plus one vectorised fold per aggregate.
        Sums fold chunk by chunk in sequence order, so float sums add in
        the order a serial per-block fold adds them whether a chunk is one
        block or a worker's folded unit.  The unweighted group count is
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

        cells: List[Any] = []
        for i, (__, agg) in enumerate(self.aggs):
            parts = [chunk[2][i] for chunk in chunks]
            if agg.kind == "count":
                cells.append(weights(parts))
            elif agg.kind == "avg":
                sums = _grouped_sums([p[0] for p in parts], inverse, nuniq)
                cells.append((sums, weights([p[1] for p in parts])))
            elif agg.kind == "sum":
                cells.append(_grouped_sums(parts, inverse, nuniq))
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
        if meta < 0:
            # Batch-decoded varstring bytes: trailing spaces are data;
            # only the S-dtype NUL padding is insignificant.
            return [v.rstrip(b"\x00").decode("utf-8") for v in arr.tolist()]
        return [v.rstrip(b" \x00").decode("utf-8") for v in arr.tolist()]
    if kind == "str":
        return [
            v.rstrip(b" \x00").decode("utf-8") if isinstance(v, bytes) else v
            for v in arr.tolist()
        ]
    return arr.tolist()
