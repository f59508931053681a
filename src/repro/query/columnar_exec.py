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
and results are exactly those of the scalar backends, so all engines stay
interchangeable and cross-checkable (the per-row scalar code generator
remains available as the ``smc-unsafe-scalar`` ablation flavour).

Scaled-decimal arithmetic note: decimal columns hold int64 fixed-point
values; products of two decimals carry the summed scale.  TPC-H's
``price * (1-disc) * (1+tax)`` reaches scale 6 (~1e11 per row), far inside
int64, and per-block partial sums are accumulated in Python ints, which
are unbounded.
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
    query: Query,
    params: Dict[str, Any],
    prune: bool = True,
    planner: Optional[bool] = None,
) -> Tuple["_ScanPlan", List[Any]]:
    """Lower *query* to a scan plan plus its post-scan operator list.

    The plan is what executors (serial, thread pool, process pool)
    consume; the post ops (order/limit/having/distinct) always run on
    the driver after the merge.  ``planner`` toggles cost-based conjunct
    splitting/ordering and access-path choice (None = process default);
    with the planner off, predicates run in declaration order — the
    ablation baseline.
    """
    source = query.source
    manager = source.manager

    filters: List[Expr] = []
    inset_ops: List[Tuple[WhereIn, Result]] = []
    terminal = None
    post: List[Any] = []
    for op in query.ops:
        if isinstance(op, Where):
            filters.append(op.pred)
        elif isinstance(op, WhereIn):
            # Subqueries are materialised up front on the driver thread;
            # each scan worker probes its own _InsetProbe over the shared
            # (read-only) subquery result.
            sub = op.subquery.run(engine="compiled", params=params)
            inset_ops.append((op, sub))
        elif isinstance(op, (Select, GroupBy)):
            if terminal is not None:
                raise CompileError("only one projection/aggregation allowed")
            terminal = op
        elif isinstance(op, (OrderBy, Take, Having, Distinct)):
            post.append(op)
        else:
            raise CompileError(f"cannot run op {op!r} on the columnar engine")

    # Cost-based filter ordering (repro.query.planner): conjunctions are
    # split and conjuncts ranked cheapest-and-most-selective-first from
    # zone-map / dictionary statistics, so expensive navigating kernels
    # see already-reduced row sets.  With the planner disabled (the
    # ablation) predicates run exactly as declared.
    use_planner = _planner.enabled() if planner is None else bool(planner)
    index_choice = None
    info = None
    if use_planner:
        filters, index_choice, info = _planner.plan_scan(
            query.signature(), filters, params, source, prune=prune
        )

    zone_tests = derive_zone_tests(filters, params, source) if prune else []
    plan = _ScanPlan(
        manager,
        source,
        params,
        filters,
        inset_ops,
        terminal,
        zone_tests,
        index_choice,
        info,
    )
    return plan, post


def run_columnar(
    query: Query,
    params: Dict[str, Any],
    workers: Optional[int] = None,
    prune: bool = True,
    planner: Optional[bool] = None,
) -> Result:
    plan, post = build_scan_plan(query, params, prune=prune, planner=planner)
    manager = plan.manager
    zone_tests = plan.zone_tests

    nworkers = max(1, int(workers or 1))
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
    if plan.info is not None:
        _planner.record_observation(
            plan.info,
            rows_scanned=acc.rows_scanned,
            rows_matched=acc.rows_matched,
            blocks_scanned=scanned,
            blocks_pruned=pruned,
            block_count=plan.source.context.block_count(),
            workers=nworkers,
        )

    columns, rows = acc.finish(manager)
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

    Shared (read-only) between the serial path and the parallel morsel
    workers; the only per-worker state is the ``_InsetProbe`` list (its
    lazily materialised key sets are not thread-safe) and the partial
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
    ) -> None:
        self.manager = manager
        self.source = source
        self.params = params
        self.filters = filters
        self.inset_ops = inset_ops
        self.terminal = terminal
        self.zone_tests = zone_tests
        #: planner access-path substitution (``planner.IndexChoice``)
        self.index_choice = index_choice
        #: planner estimates (``planner.PlanInfo``) — None with planner off
        self.info = info

    @property
    def morsel_hint(self):
        """Adaptive morsel width from execution feedback (None = default)."""
        return self.info.morsel_hint if self.info is not None else None

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

    def process_block(self, block, probes, acc: "_Accumulator") -> None:
        """Run the filter kernels over *block*, folding rows into *acc*."""
        ctx = _BlockCtx(self.manager, self.source, block, self.params)
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


def _run_serial(plan: _ScanPlan) -> Tuple["_Accumulator", int, int]:
    """Single-threaded scan: one critical section over all blocks."""
    manager = plan.manager
    acc = plan.make_accumulator()
    probes = plan.make_probes()
    pager = manager.pager
    pruned = scanned = 0
    manager.epochs.enter_critical_section()
    try:
        for block in scan_blocks(manager, plan.source.context):
            if not plan.admits(block):
                # Pruned blocks are never admitted: a fully-pruned scan
                # over a cold context reads zero cold blocks.
                pruned += 1
                continue
            scanned += 1
            if pager is not None:
                pager.touch(block)  # counts; the block is read where it lies
            plan.process_block(block, probes, acc)
    finally:
        manager.epochs.exit_critical_section()
    return acc, pruned, scanned


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
            ctx = _BlockCtx(manager, plan.source, block, plan.params)
            if ctx.idx.size == 0:
                continue
            slots = block.slot_of_offset(np.array(offsets, dtype=np.int64))
            ctx.refine(np.isin(ctx.idx, slots))
            if ctx.idx.size == 0:
                continue
            acc.rows_scanned += int(ctx.idx.size)
            empty = False
            for pred in plan.filters:
                arr, __ = ctx.eval(pred)
                ctx.refine(np.asarray(arr, dtype=bool))
                if ctx.idx.size == 0:
                    empty = True
                    break
            if empty:
                continue
            for probe in probes:
                ctx.refine(probe.mask(ctx))
                if ctx.idx.size == 0:
                    empty = True
                    break
            if empty:
                continue
            acc.rows_matched += int(ctx.idx.size)
            acc.absorb(ctx)
    finally:
        manager.epochs.exit_critical_section()
    return acc, total - scanned, scanned


def _nav_depth(expr: Expr) -> int:
    """Deepest reference navigation inside *expr* (filter-ordering key)."""
    depth = 0
    if isinstance(expr, FieldRef):
        depth = len(expr.steps)
    elif isinstance(expr, RefIdentity):
        depth = len(expr.steps) - 1
    for child in expr.children():
        depth = max(depth, _nav_depth(child))
    return depth


class _InsetProbe:
    """One WhereIn probe with its key set materialised exactly once."""

    def __init__(self, op: WhereIn, sub: Result) -> None:
        self.op = op
        self.sub = sub
        self._keys = None
        self._probe_array = None

    def _materialise(self, specs) -> None:
        rows = self.sub.rows
        if len(specs) == 1 and specs[0][0] in ("int", "ref"):
            # Fast path: plain integer keys need no raw conversion.
            self._keys = {
                (row[0] if isinstance(row, tuple) else row) for row in rows
            }
            return
        keys = set()
        for row in rows:
            values = row if isinstance(row, tuple) else (row,)
            converted = tuple(_raw_key(v, s) for v, s in zip(values, specs))
            keys.add(converted if len(converted) > 1 else converted[0])
        self._keys = keys

    def mask(self, ctx: "_BlockCtx") -> np.ndarray:
        op = self.op
        specs: List[Tuple[str, Any]] = []
        arrays: List[np.ndarray] = []
        for e in op.exprs:
            arr, dtype = ctx.eval(e)
            arrays.append(np.asarray(arr))
            specs.append(dtype)
        if self._keys is None:
            self._materialise(specs)
        keys = self._keys
        if len(arrays) == 1:
            if keys:
                if self._probe_array is None:
                    self._probe_array = np.array(
                        sorted(keys), dtype=arrays[0].dtype
                    )
                mask = np.isin(arrays[0], self._probe_array)
            else:
                mask = np.zeros(ctx.idx.size, dtype=bool)
        else:
            mask = np.fromiter(
                (
                    tuple(a[i] for a in arrays) in keys
                    for i in range(ctx.idx.size)
                ),
                dtype=bool,
                count=ctx.idx.size,
            )
        return ~mask if op.negated else mask


def _raw_key(value, spec):
    """Like :func:`_to_raw` but NUL-padded for NumPy ``S`` columns.

    Columnar char columns are NUL-padded by NumPy, unlike the
    space-padded row-layout CHAR slots; plain bytes keys let ``np.isin``
    apply the correct padding.  Dictionary-coded probe columns translate
    subquery strings to codes (``-2`` for strings absent from the
    dictionary, which no stored code can equal).
    """
    kind, meta = spec
    if kind == "strcode":
        code = meta.code_of(value if isinstance(value, str) else str(value))
        return -2 if code is None else code
    if kind == "str" and isinstance(meta, int) and isinstance(value, str):
        return value.encode("utf-8")
    return _to_raw(value, spec)


# ----------------------------------------------------------------------
# Per-block evaluation context
# ----------------------------------------------------------------------


class _BlockCtx:
    def __init__(self, manager, source, block, params) -> None:
        self.manager = manager
        self.source = source
        self.block = block
        self.params = params
        self.idx = block.valid_slots()
        #: navigation cache: steps tuple -> (address array, version)
        self._addrs: Dict[tuple, Tuple[np.ndarray, int]] = {}
        #: per-address-array block grouping (argsort + slot ids), shared by
        #: every field gathered through the same navigation path
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
        self._keeps.append(keep)
        self._groupings.clear()  # groupings index the pre-refine arrays

    def _catch_up(self, arr: np.ndarray, version: int) -> np.ndarray:
        for i in range(version, len(self._keeps)):
            arr = arr[self._keeps[i]]
        return arr

    def _strdict_for(self, field):
        """String dictionary of the collection owning *field*, if any."""
        coll = self.manager.collections.get(field.owner.__name__)
        return getattr(coll, "strdict", None)

    # -- navigation -----------------------------------------------------

    def _grouping(self, key: tuple, addrs: np.ndarray) -> "_AddressGrouping":
        grouping = self._groupings.get(key)
        if grouping is None:
            grouping = _AddressGrouping(self.manager.space, addrs)
            self._groupings[key] = grouping
        return grouping

    def _gather(self, addrs: np.ndarray, getter, key: tuple = None) -> np.ndarray:
        """Fetch per-object data across target blocks by address."""
        if key is None:
            key = ("adhoc", id(addrs))
        return self._grouping(key, addrs).fetch(self.manager, getter)

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
            w = self.block.column(field.name + "__w")[self.idx].astype(np.int64)
            inc = self.block.column(field.name + "__i")[self.idx]
        else:
            w = self._gather(
                parent, lambda b: b.column(field.name + "__w"), key=steps[:-1]
            )
            inc = self._gather(
                parent, lambda b: b.column(field.name + "__i"), key=steps[:-1]
            )
        if np.any(w == NULL_ADDRESS):
            raise NullReferenceError(
                f"null reference navigating {field.name} (columnar engine "
                f"requires non-null paths)"
            )
        table = self.manager.table
        if self.manager.direct_pointers:
            addrs = w
            live = self._gather(addrs, lambda b: b.slot_incs, key=steps) & INC_MASK
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
            return self.block.column(name)[self.idx]
        return self._gather(addrs, lambda b: b.column(name), key=steps)

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
            ops = {
                "==": np.equal,
                "!=": np.not_equal,
                "<": np.less,
                "<=": np.less_equal,
                ">": np.greater,
                ">=": np.greater_equal,
            }
            return ops[expr.op](l, r), ("bool", None)
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
    """Sorted block grouping of an address array, reused across gathers.

    Grouping costs one argsort; each subsequent field fetched through the
    same navigation path reuses the per-block slot indices, making a
    k-field navigation O(n log n + k·n) instead of O(k·#blocks·n).
    """

    __slots__ = ("order", "runs")

    def __init__(self, space, addrs: np.ndarray) -> None:
        shift = space.block_shift
        mask = space.block_size - 1
        bids = addrs >> shift
        offsets = addrs & mask
        self.order = np.argsort(bids, kind="stable")
        sorted_bids = bids[self.order]
        sorted_offsets = offsets[self.order]
        uniq, starts = np.unique(sorted_bids, return_index=True)
        bounds = np.append(starts, len(addrs))
        self.runs = []
        for i, bid in enumerate(uniq.tolist()):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            blk = space.block_by_id(int(bid))
            idxs = blk.slot_of_offset(sorted_offsets[lo:hi])
            self.runs.append((blk, lo, hi, idxs))

    def fetch(self, manager, getter) -> np.ndarray:
        out = None
        order = self.order
        for blk, lo, hi, idxs in self.runs:
            col = getter(blk)
            if out is None:
                out = np.empty(len(order), dtype=col.dtype)
            out[order[lo:hi]] = col[idxs]
        if out is None:
            out = np.empty(0, dtype=np.int64)
        return out


# ----------------------------------------------------------------------
# Accumulation across blocks
# ----------------------------------------------------------------------


def _concat(chunks: List[np.ndarray]) -> np.ndarray:
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _group_factorize(cols: List[np.ndarray]) -> Tuple[List[tuple], np.ndarray]:
    """``(uniq_keys, inverse)`` lexicographic grouping of key columns.

    A single column factorizes directly.  Multiple columns factorize
    independently and combine their per-column ranks into one integer
    key space (cardinalities multiply), which groups with cheap int64
    sorts instead of a structured-dtype sort; only a (pathological)
    combined space that could overflow int64 falls back to the record
    sort.
    """
    if len(cols) == 1:
        uniq, inverse = np.unique(cols[0], return_inverse=True)
        return [(k,) for k in uniq.tolist()], inverse
    uniqs, invs, sizes = [], [], []
    span = 1
    for col in cols:
        u, inv = np.unique(col, return_inverse=True)
        uniqs.append(u)
        invs.append(inv.astype(np.int64, copy=False))
        sizes.append(max(1, len(u)))
        span *= max(1, len(u))
    if span < 2 ** 62:
        codes = invs[0]
        for inv, size in zip(invs[1:], sizes[1:]):
            codes = codes * size + inv
        ucodes, inverse = np.unique(codes, return_inverse=True)
        parts = []
        rem = ucodes
        for size in reversed(sizes[1:]):
            parts.append(rem % size)
            rem = rem // size
        parts.append(rem)
        parts.reverse()
        columns = [uniqs[j][parts[j]].tolist() for j in range(len(cols))]
        return list(zip(*columns)), inverse
    rec = np.rec.fromarrays(cols)
    uniq, inverse = np.unique(rec, return_inverse=True)
    return [tuple(u) for u in uniq.tolist()], inverse


def _grouped_sums(
    chunks: List[np.ndarray], inverse: np.ndarray, nuniq: int
) -> np.ndarray:
    """Per-group sums folded chunk by chunk (chunk = one scanned block).

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


class _Accumulator:
    def __init__(self, terminal) -> None:
        self.terminal = terminal
        self.rows: List[tuple] = []
        self.groups: Dict[Any, list] = {}
        self.key_dtypes: Optional[List[Tuple[str, Any]]] = None
        self.agg_dtypes: Optional[List[Tuple[str, Any]]] = None
        #: Deferred group-by input: per-block ``(n, key_arrays,
        #: agg_arrays)`` vectors, folded once by :meth:`_collapse`.
        self._pending: List[Tuple[int, list, list]] = []
        #: Valid rows examined before filtering (scan-volume telemetry).
        self.rows_scanned = 0
        #: Rows surviving every filter/probe (observed selectivity).
        self.rows_matched = 0

    def absorb(self, ctx: _BlockCtx) -> None:
        terminal = self.terminal
        if terminal is None:
            self._absorb_enumeration(ctx)
        elif isinstance(terminal, Select):
            self._absorb_select(ctx)
        else:
            self._absorb_groupby(ctx)

    def _absorb_enumeration(self, ctx: _BlockCtx) -> None:
        from repro.memory.reference import Ref

        table = ctx.manager.table
        for entry in ctx.block.backptrs[ctx.idx]:
            entry = int(entry)
            self.rows.append(Ref(ctx.manager, entry, table.incarnation(entry)))

    def _absorb_select(self, ctx: _BlockCtx) -> None:
        n = ctx.idx.size
        columns = []
        for __, e in self.terminal.outputs:
            arr, dtype = ctx.eval(e)
            columns.append(_decode_column(arr, dtype, n))
        self.rows.extend(zip(*columns))

    def _absorb_groupby(self, ctx: _BlockCtx) -> None:
        """Defer a block's group-by input: evaluate and append, don't fold.

        Per-block grouping used to pay a unique + a Python merge per
        (block x group); instead the key/aggregate vectors are stashed
        and :meth:`_collapse` factorizes and folds the whole scan's
        output once, vectorised end to end.
        """
        op: GroupBy = self.terminal
        n = ctx.idx.size
        key_arrays = []
        key_dtypes = []
        for __, e in op.keys:
            arr, dtype = ctx.eval(e)
            arr = np.asarray(arr)
            if arr.ndim == 0:  # constant key: broadcast to the row count
                arr = np.full(n, arr[()])
            key_arrays.append(arr)
            key_dtypes.append(dtype)
        self.key_dtypes = key_dtypes
        agg_arrays: List[Optional[np.ndarray]] = []
        agg_dtypes = []
        for __, agg in op.aggs:
            if agg.kind == "count":
                agg_dtypes.append(("int", None))
                agg_arrays.append(None)
                continue
            arr, dtype = ctx.eval(agg.expr)
            arr = np.asarray(arr)
            if dtype[0] == "strcode":
                if agg.kind in ("sum", "avg"):
                    raise CompileError(f"cannot {agg.kind} a string field")
                # min/max order by text, not by allocation-ordered code.
                arr = dtype[1].decode_array(arr)
                dtype = ("str", "py")
            if arr.ndim == 0:
                arr = np.full(n, arr[()])
            agg_dtypes.append(dtype)
            agg_arrays.append(arr)
        self.agg_dtypes = agg_dtypes
        if n:  # empty blocks set dtypes but contribute no groups
            self._pending.append((n, key_arrays, agg_arrays))

    def _collapse(self) -> None:
        """Fold the deferred group-by vectors into the ``groups`` dict.

        Runs once per accumulator (at finish, merge or wire encoding):
        one key factorization plus one vectorised fold per aggregate
        over the concatenated scan output.  Sums fold chunk by chunk in
        block order, reproducing exactly the partial-sum addition order
        (and the float64/int64 exactness guard) of the former per-block
        path.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        op: GroupBy = self.terminal
        total = sum(p[0] for p in pending)
        nkeys = len(op.keys)
        if nkeys:
            cols = [
                _concat([p[1][i] for p in pending]) for i in range(nkeys)
            ]
            uniq_keys, inverse = _group_factorize(cols)
        else:
            uniq_keys = [()]
            inverse = np.zeros(total, dtype=np.int64)
        nuniq = len(uniq_keys)
        counts = np.bincount(inverse, minlength=nuniq)
        count_list = counts.tolist()
        cells_per_agg: List[list] = []
        for i, (__, agg) in enumerate(op.aggs):
            kind = agg.kind
            if kind == "count":
                cells_per_agg.append(count_list)
                continue
            chunks = [p[2][i] for p in pending]
            if kind in ("sum", "avg"):
                sums = _grouped_sums(chunks, inverse, nuniq).tolist()
                if kind == "sum":
                    cells_per_agg.append(sums)
                else:
                    cells_per_agg.append(
                        [[s, c] for s, c in zip(sums, count_list)]
                    )
                continue
            arr = _concat(chunks)
            if arr.dtype.kind in "iuf":
                if kind == "min":
                    fill = (
                        np.iinfo(arr.dtype).max
                        if arr.dtype.kind in "iu"
                        else np.inf
                    )
                    out = np.full(nuniq, fill, dtype=arr.dtype)
                    np.minimum.at(out, inverse, arr)
                else:
                    fill = (
                        np.iinfo(arr.dtype).min
                        if arr.dtype.kind in "iu"
                        else -np.inf
                    )
                    out = np.full(nuniq, fill, dtype=arr.dtype)
                    np.maximum.at(out, inverse, arr)
                cells_per_agg.append(out.tolist())
            else:
                # Strings (object or bytes): per-group Python fold.
                cells: List[Any] = [None] * nuniq
                lt = kind == "min"
                for g, v in zip(inverse.tolist(), arr.tolist()):
                    cur = cells[g]
                    if cur is None or (v < cur if lt else v > cur):
                        cells[g] = v
                cells_per_agg.append(cells)
        groups = self.groups
        kinds = [agg.kind for __, agg in op.aggs]
        if not groups:
            for g, key in enumerate(uniq_keys):
                groups[key] = [
                    self._init_cell(kinds[i], cells_per_agg[i][g])
                    for i in range(len(kinds))
                ]
            return
        # Rare path: deferred vectors folding into groups that already
        # hold merged-in (wire-decoded) partials.
        for g, key in enumerate(uniq_keys):
            acc = groups.get(key)
            if acc is None:
                groups[key] = [
                    self._init_cell(kinds[i], cells_per_agg[i][g])
                    for i in range(len(kinds))
                ]
            else:
                for i, kind in enumerate(kinds):
                    self._merge_cell(acc, i, kind, cells_per_agg[i][g])

    @staticmethod
    def _init_cell(kind: str, value):
        if kind == "avg":
            return list(value)  # [total, count], mutable running pair
        return value  # count / sum / min / max

    def merge(self, other: "_Accumulator") -> None:
        """Fold another partial accumulator into this one (barrier merge).

        The parallel executor gives every morsel its own accumulator and
        merges them in block order, so rows concatenate and group cells
        combine exactly as the serial scan would have produced them.
        """
        self.rows.extend(other.rows)
        self.rows_scanned += other.rows_scanned
        self.rows_matched += other.rows_matched
        if other.key_dtypes is not None:
            self.key_dtypes = other.key_dtypes
            self.agg_dtypes = other.agg_dtypes
        # Deferred group-by vectors concatenate in merge order, so the
        # final collapse folds them exactly as one serial scan would.
        self._pending.extend(other._pending)
        other._pending = []
        if not other.groups:
            return
        kinds = [agg.kind for __, agg in self.terminal.aggs]
        for key, cells in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = cells
                continue
            for i, kind in enumerate(kinds):
                if kind in ("sum", "count"):
                    mine[i] += cells[i]
                elif kind == "avg":
                    mine[i][0] += cells[i][0]
                    mine[i][1] += cells[i][1]
                elif kind == "min":
                    if cells[i] < mine[i]:
                        mine[i] = cells[i]
                else:  # max
                    if cells[i] > mine[i]:
                        mine[i] = cells[i]

    @staticmethod
    def _merge_cell(acc: list, i: int, kind: str, value) -> None:
        if kind in ("sum", "count"):
            acc[i] += value
        elif kind == "avg":
            acc[i][0] += value[0]
            acc[i][1] += value[1]
        elif kind == "min":
            acc[i] = value if acc[i] is None else min(acc[i], value)
        elif kind == "max":
            acc[i] = value if acc[i] is None else max(acc[i], value)

    def finish(self, manager) -> Tuple[List[str], List[tuple]]:
        terminal = self.terminal
        if terminal is None:
            return ["*"], self.rows
        if isinstance(terminal, Select):
            return [name for name, __ in terminal.outputs], self.rows
        op: GroupBy = terminal
        self._collapse()
        columns = [n for n, __ in op.keys] + [n for n, __ in op.aggs]
        rows: List[tuple] = []
        if self.key_dtypes is None:
            return columns, rows
        for key, acc in self.groups.items():
            parts = [
                _decode(k, d) for k, d in zip(key, self.key_dtypes)
            ]
            for i, (__, agg) in enumerate(op.aggs):
                dtype = self.agg_dtypes[i]
                if agg.kind == "count":
                    parts.append(acc[i])
                elif agg.kind == "avg":
                    total, count = acc[i]
                    if not count:
                        parts.append(None)
                    elif dtype[0] == "decimal":
                        parts.append(
                            (Decimal(int(total)) / count).scaleb(-dtype[1])
                        )
                    else:
                        parts.append(total / count)
                else:
                    parts.append(_decode(acc[i], dtype))
            rows.append(tuple(parts))
        return columns, rows


def _decode_column(arr, dtype: Tuple[str, Any], n: int) -> List[Any]:
    """Decode a whole output column to Python values (vectorised paths
    for the common types; scalar broadcast for constants)."""
    if not isinstance(arr, np.ndarray):
        return [_decode(arr, dtype)] * n
    kind, meta = dtype
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


def _decode(value: Any, dtype: Tuple[str, Any]) -> Any:
    kind, meta = dtype
    if isinstance(value, np.generic):
        value = value.item()
    if kind == "strcode":
        return meta.text_of(int(value))
    if kind == "decimal":
        return Decimal(int(value)).scaleb(-meta)
    if kind == "date":
        return days_to_date(int(value))
    if kind == "str" and isinstance(meta, int):
        if isinstance(value, bytes):
            pad = b"\x00" if meta < 0 else b" \x00"
            return value.rstrip(pad).decode("utf-8")
        return value
    if kind == "str" and isinstance(value, bytes):
        return value.rstrip(b" \x00").decode("utf-8")
    return value
