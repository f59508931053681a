"""Cost-based adaptive planning over the statistics the SMC already keeps.

PRs 2-7 gave the collection full visibility into its own workload — zone
maps with per-block min/max and exact code sets, StringDict domain
cardinalities, always-on scan counters — but plans were still built
blind: conjunctive predicates ran in a fixed order and every scan walked
every admitted block the same way.  This module closes the loop
(ROADMAP item 5):

* **Selectivity estimation** from zone-map envelopes (uniform
  interpolation between a column's observed min/max in the raw value
  domain) and string-dictionary match sets (the exact fraction of the
  domain a predicate selects, weighted by nothing — TPC-H string
  domains are near-uniform).
* **Predicate ordering** by Selinger-style rank: evaluate the cheapest,
  most selective conjunct first so later (more expensive, usually
  navigating) kernels see already-reduced row sets.  A top-level
  ``a & b & c`` conjunction is split into independently ordered
  conjuncts, which also lets each contribute zone tests on its own.
* **Access path**: always a block scan, which zone maps prune; there is
  no index path.
* **Serve-path routing**: tiny estimated scans skip the process pool
  (`exec_workers`) — fan-out costs more than the scan saves.

Everything here is *advisory*: ordering never changes results (the
engines apply every predicate), and estimates may be wrong (EXPLAIN
prints estimated vs actual rows so mis-estimates are debuggable).  It
runs for every scan.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.query.compiler import (
    _NO_LITERAL,
    _field_dtype,
    _literal,
    _zone_raw,
)
from repro.query.expressions import (
    Between,
    BoolOp,
    Cmp,
    Expr,
    FieldRef,
    InSet,
    Not,
    RefIdentity,
    StrContains,
    StrPrefix,
)
from repro.schema.fields import CharField, VarStringField

#: Selectivity assumed for predicates the estimator cannot bound.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Selectivity assumed for equality over an unbounded/unknown domain.
EQ_SELECTIVITY = 0.05
#: Cost units per reference-navigation hop (a navigated predicate pays
#: an address gather + incarnation check per hop before its kernel).
NAV_STEP_COST = 4.0
#: Guard against rank blow-up for predicates estimated fully selective.
_EPS = 1e-6
#: Estimated-row threshold below which the serve path keeps a query on
#: the serial in-process engine instead of the worker pool.
SMALL_SCAN_ROWS = 2048


# ----------------------------------------------------------------------
# The coarse statistics stamp: the one staleness rule
# ----------------------------------------------------------------------


def _collection_stamp(coll) -> tuple:
    """Block count and log2 bucket of the string dictionary's live
    cardinality of one collection."""
    sd = coll.strdict
    return (
        coll.context.block_count(),
        sd.live_count.bit_length() if sd is not None else 0,
    )


def stats_stamp(manager) -> tuple:
    """The coarse statistics stamp of the store on *manager*.

    One :func:`_collection_stamp` per registered collection (the
    planner's statistics universe: navigation resolves fields through
    the same registry).  Everything decided from statistics — conjunct
    order and the table statistics themselves — is valid while
    the stamp is unchanged: the prepared scan memoised on a ``Query``
    (and so on each entry of the service's plan cache) and
    :func:`table_stats` compare it and nothing else.  It is exactly coarse enough that steady-state churn
    (slot reuse inside existing blocks, refcount traffic on existing
    strings) leaves it alone while real growth — a new block, a
    cardinality doubling — moves it.  An unchanged stamp is
    returned as the *same* tuple, so holders compare by identity first.
    """
    stamp = tuple([_collection_stamp(c) for c in manager.collections.values()])
    last = getattr(manager, "_stats_stamp", None)
    if stamp == last:
        return last
    manager._stats_stamp = stamp
    return stamp


# ----------------------------------------------------------------------
# Table statistics (from zone maps, cached per memory context)
# ----------------------------------------------------------------------


class TableStats:
    """Aggregated per-field raw-domain envelope over a context's blocks.

    ``distinct[name]`` is the exact domain cardinality of a small-domain
    string field (Char or dictionary-coded varstring), unioned from the
    per-block value/code sets the zone maps already keep.  An entry is
    published only when *every* zoned block contributed a set — a block
    whose per-block domain overflowed the zone map's set limit means the
    field's true cardinality is unknown, so the field is dropped rather
    than under-counted.  ``rows`` is read live from the source: the
    envelope is cached across mutations, the row count need not be.
    """

    __slots__ = ("source", "blocks", "lo", "hi", "distinct")

    def __init__(self, source) -> None:
        self.source = source
        self.blocks = 0
        self.lo: Dict[str, Any] = {}
        self.hi: Dict[str, Any] = {}
        self.distinct: Dict[str, int] = {}

    @property
    def rows(self) -> int:
        return len(self.source)

    def bounds(self, name: str) -> Optional[Tuple[Any, Any]]:
        lo = self.lo.get(name)
        if lo is None:
            return None
        return lo, self.hi[name]

    def distinct_count(self, name: str) -> Optional[int]:
        return self.distinct.get(name)


def _collect_stats(source) -> TableStats:
    """One pass over *source*'s blocks, folding their zone maps.

    Runs inside a critical section; blocks whose map cannot be built
    (being filled, raced by a writer) simply contribute no bounds —
    estimates degrade toward the defaults, never toward wrong answers.
    """
    from repro.memory import zonemap
    from repro.query.runtime import scan_blocks

    manager = source.manager
    stats = TableStats(source)
    sets: Dict[str, set] = {}
    contrib: Dict[str, int] = {}
    zoned_blocks = 0
    manager.epochs.enter_critical_section()
    try:
        for block in scan_blocks(manager, source.context):
            stats.blocks += 1
            zones = zonemap.ensure(manager, block)
            if zones is None:
                continue
            zoned_blocks += 1
            for name, lo in zones.lo.items():
                hi = zones.hi[name]
                cur = stats.lo.get(name)
                if cur is None or lo < cur:
                    stats.lo[name] = lo
                cur = stats.hi.get(name)
                if cur is None or hi > cur:
                    stats.hi[name] = hi
            for source_map in (zones.codes, zones.charsets):
                for name, values in source_map.items():
                    sets.setdefault(name, set()).update(values)
                    contrib[name] = contrib.get(name, 0) + 1
    finally:
        manager.epochs.exit_critical_section()
    # Publish a distinct count only for fields every zoned block covered:
    # a block whose domain overflowed the set limit would make the union
    # a lower bound, and 1/undercount overstates equality selectivity.
    for name, values in sets.items():
        if contrib.get(name) == zoned_blocks and values:
            stats.distinct[name] = len(values)
    return stats


def table_stats(source) -> Optional[TableStats]:
    """Cached :class:`TableStats` for a collection-like source.

    A prepare-time and EXPLAIN-time call: no served request reaches it
    once its scan is prepared.  The cache is keyed on the collection's
    coarse stamp (:func:`_collection_stamp`), so adds and removes inside
    existing blocks — a refresh cycle — keep it, and a reader beside a
    writer does not re-fold every block's zone map per query; a new
    block or a dictionary-cardinality doubling refreshes it.  In-place
    movement of a column's envelope is picked up at the next such change
    (estimates tolerate that staleness; the row count is always live).
    """
    context = getattr(source, "context", None)
    if context is None or getattr(source, "manager", None) is None:
        return None
    key = _collection_stamp(source)
    cached = getattr(context, "_planner_stats", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    stats = _collect_stats(source)
    context._planner_stats = (key, stats)
    return stats


def _stats_for_field(source, field) -> Optional[TableStats]:
    """Stats of the collection owning *field* (follows navigation)."""
    owner = getattr(field, "owner", None)
    if owner is None:
        return None
    if getattr(source, "schema", None) is owner:
        return table_stats(source)
    manager = getattr(source, "manager", None)
    if manager is None:
        return None
    coll = getattr(manager, "collections", {}).get(owner.__name__)
    if coll is None:
        return None
    return table_stats(coll)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


def nav_depth(expr: Expr) -> int:
    """Deepest reference navigation inside *expr*."""
    depth = 0
    if isinstance(expr, FieldRef):
        depth = len(expr.steps)
    elif isinstance(expr, RefIdentity):
        depth = len(expr.steps) - 1
    for child in expr.children():
        depth = max(depth, nav_depth(child))
    return depth


def kernel_count(expr: Expr) -> int:
    """Vector comparison kernels *expr* applies per row batch.

    A ``Between`` lowers to two compares, an ``InSet`` over a CHAR column
    to one compare per listed value (its bytes have no dictionary codes;
    a dictionary-coded set is one code-membership test), a composed
    boolean to the sum of its parts — charging them accordingly keeps a
    multi-kernel test from outranking a genuinely cheaper single compare.
    """
    if isinstance(expr, Between):
        return 2
    if isinstance(expr, InSet) and isinstance(_field_of(expr.inner), CharField):
        return max(1, len(expr.values))
    if isinstance(expr, (Cmp, InSet, RefIdentity, StrPrefix, StrContains)):
        return 1
    count = 0
    for child in expr.children():
        count += kernel_count(child)
    return max(1, count)


def predicate_cost(expr: Expr) -> float:
    """Per-row evaluation cost in abstract units (1 = local kernel)."""
    return float(kernel_count(expr)) + NAV_STEP_COST * nav_depth(expr)


def _clamp(s: float) -> float:
    if s != s:  # NaN guard
        return DEFAULT_SELECTIVITY
    return min(1.0, max(0.0, s))


def _range_fraction(lo, hi, vlo, vhi) -> float:
    """Fraction of the uniform [lo, hi] envelope inside [vlo, vhi]."""
    try:
        span = float(hi) - float(lo)
        if span <= 0:
            mid = float(lo)
            inside = (vlo is None or float(vlo) <= mid) and (
                vhi is None or mid <= float(vhi)
            )
            return 1.0 if inside else 0.0
        left = float(lo) if vlo is None else max(float(lo), float(vlo))
        right = float(hi) if vhi is None else min(float(hi), float(vhi))
        if right < left:
            return 0.0
        return (right - left) / span
    except (TypeError, ValueError, OverflowError):
        return DEFAULT_SELECTIVITY


def _field_of(expr: Expr):
    """The un-navigated-or-navigated plain field *expr* reads, if any."""
    if isinstance(expr, FieldRef):
        return expr.field
    return None


def _eq_selectivity(source, field, stats: Optional[TableStats]) -> float:
    """Selectivity of ``field == literal`` from domain cardinality/width."""
    if stats is not None:
        # Exact per-field cardinality from the zone maps' small-domain
        # value/code sets (Char and dict-coded varstring fields).  This
        # beats the string dictionary's live_count, which counts the
        # *collection-wide* dictionary, not this field's domain.
        distinct = stats.distinct_count(field.name)
        if distinct:
            return 1.0 / distinct
    if isinstance(field, VarStringField):
        live = field.dictionary(source.manager).live_count
        return 1.0 / live if live > 0 else EQ_SELECTIVITY
    if isinstance(field, CharField):
        return EQ_SELECTIVITY
    bounds = stats.bounds(field.name) if stats is not None else None
    if bounds is not None:
        lo, hi = bounds
        try:
            width = float(hi) - float(lo)
        except (TypeError, ValueError):
            return EQ_SELECTIVITY
        if width >= 0:
            return 1.0 / (width + 1.0)
    return EQ_SELECTIVITY


def estimate_selectivity(expr: Expr, params: Dict[str, Any], source) -> float:
    """Estimated fraction of rows satisfying *expr* (always in [0, 1])."""
    if isinstance(expr, BoolOp):
        parts = [estimate_selectivity(p, params, source) for p in expr.parts]
        if expr.op == "and":
            s = 1.0
            for p in parts:
                s *= p
            return _clamp(s)
        s = 1.0
        for p in parts:
            s *= 1.0 - p
        return _clamp(1.0 - s)
    if isinstance(expr, Not):
        return _clamp(1.0 - estimate_selectivity(expr.inner, params, source))
    if isinstance(expr, Cmp):
        return _estimate_cmp(expr, params, source)
    if isinstance(expr, Between):
        field = _field_of(expr.inner)
        if field is None or isinstance(field, VarStringField):
            return DEFAULT_SELECTIVITY
        stats = _stats_for_field(source, field)
        bounds = stats.bounds(field.name) if stats is not None else None
        lo = _literal(expr.lo, params)
        hi = _literal(expr.hi, params)
        if bounds is None or lo is _NO_LITERAL or hi is _NO_LITERAL:
            return DEFAULT_SELECTIVITY
        spec = _field_dtype(field)
        rlo, rhi = _zone_raw(lo, spec), _zone_raw(hi, spec)
        if rlo is None or rhi is None:
            return DEFAULT_SELECTIVITY
        return _clamp(_range_fraction(bounds[0], bounds[1], rlo, rhi))
    if isinstance(expr, InSet):
        field = _field_of(expr.inner)
        if field is None:
            return DEFAULT_SELECTIVITY
        if isinstance(field, VarStringField):
            share = _match_fraction(
                source, field, "inset", frozenset(str(v) for v in expr.values)
            )
            if share is not None:
                return share
        stats = _stats_for_field(source, field)
        return _clamp(len(expr.values) * _eq_selectivity(source, field, stats))
    if isinstance(expr, (StrPrefix, StrContains)):
        field = _field_of(expr.inner)
        if field is None or not isinstance(field, VarStringField):
            return DEFAULT_SELECTIVITY
        if isinstance(expr, StrPrefix):
            share = _match_fraction(source, field, "prefix", expr.prefix)
        else:
            share = _match_fraction(source, field, "contains", expr.needle)
        return DEFAULT_SELECTIVITY if share is None else share
    return DEFAULT_SELECTIVITY


def _match_fraction(source, field, kind: str, arg) -> Optional[float]:
    """Share of *field*'s dictionary a string predicate's match set
    holds; None for an empty dictionary."""
    sd = field.dictionary(source.manager)
    if sd.live_count <= 0:
        return None
    return _clamp(len(sd.match_set(kind, arg)) / sd.live_count)


def _estimate_cmp(expr: Cmp, params: Dict[str, Any], source) -> float:
    field, value, op = None, None, expr.op
    if _field_of(expr.left) is not None:
        field = _field_of(expr.left)
        value = _literal(expr.right, params)
    elif _field_of(expr.right) is not None:
        field = _field_of(expr.right)
        value = _literal(expr.left, params)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if field is None or value is _NO_LITERAL:
        # Column-vs-column compares (reference joins etc.): no estimate.
        if op == "==":
            return EQ_SELECTIVITY
        return DEFAULT_SELECTIVITY
    stats = _stats_for_field(source, field)
    if isinstance(field, VarStringField):
        if op == "==" and isinstance(value, str):
            share = _match_fraction(source, field, "inset", frozenset((value,)))
            if share is not None:
                return share
        return EQ_SELECTIVITY if op == "==" else DEFAULT_SELECTIVITY
    if isinstance(field, CharField):
        # Padded bytes have no numeric raw image; equality still has a
        # domain-cardinality estimate (zone-map charsets).
        if op == "==":
            return _clamp(_eq_selectivity(source, field, stats))
        if op == "!=":
            return _clamp(1.0 - _eq_selectivity(source, field, stats))
        return DEFAULT_SELECTIVITY
    raw = _zone_raw(value, _field_dtype(field))
    if raw is None:
        return EQ_SELECTIVITY if op == "==" else DEFAULT_SELECTIVITY
    if op == "==":
        return _clamp(_eq_selectivity(source, field, stats))
    if op == "!=":
        return _clamp(1.0 - _eq_selectivity(source, field, stats))
    bounds = stats.bounds(field.name) if stats is not None else None
    if bounds is None:
        return DEFAULT_SELECTIVITY
    lo, hi = bounds
    if op in ("<", "<="):
        return _clamp(_range_fraction(lo, hi, None, raw))
    return _clamp(_range_fraction(lo, hi, raw, None))


# ----------------------------------------------------------------------
# Predicate ordering
# ----------------------------------------------------------------------


class PredicatePlan:
    """One ordered conjunct with its estimates (EXPLAIN row).

    ``group_factor`` is the conjunct's contribution to the whole scan's
    estimated selectivity.  It defaults to the conjunct's own estimate;
    when several range conjuncts constrain the *same* column they are
    estimated jointly (interval intersection instead of the independence
    product), and the joint factor is carried by the group's first
    member while the rest contribute 1.0.
    """

    __slots__ = (
        "expr",
        "selectivity",
        "cost",
        "rank",
        "declared_at",
        "group_factor",
    )

    def __init__(self, expr: Expr, selectivity: float, cost: float, declared_at: int) -> None:
        self.expr = expr
        self.selectivity = selectivity
        self.cost = cost
        # Selinger rank: cost per unit of row reduction.  Low rank =
        # cheap and selective = run first.
        self.rank = cost / max(_EPS, 1.0 - selectivity)
        self.declared_at = declared_at
        self.group_factor = selectivity


def split_conjuncts(filters: List[Expr]) -> List[Expr]:
    """Flatten top-level AND conjunctions, preserving declaration order."""
    out: List[Expr] = []
    for pred in filters:
        if isinstance(pred, BoolOp) and pred.op == "and":
            out.extend(pred.parts)
        else:
            out.append(pred)
    return out


def _range_info(expr: Expr, params: Dict[str, Any]):
    """``(column_key, field, rlo, rhi)`` for a literal range conjunct.

    Recognises ``col < lit`` / ``col >= lit`` / ``col.between(lo, hi)``
    (either literal side) over one column reference — possibly
    navigated — and returns the constrained raw interval, or ``None``
    for anything else.  ``column_key`` identifies the column including
    its navigation path, so two range ends over the same column can be
    estimated jointly instead of via the independence product (TPC-H's
    date windows are the canonical correlated pair).
    """
    if isinstance(expr, Between):
        ref = expr.inner
        if not isinstance(ref, FieldRef) or isinstance(ref.field, VarStringField):
            return None
        lo = _literal(expr.lo, params)
        hi = _literal(expr.hi, params)
        if lo is _NO_LITERAL or hi is _NO_LITERAL:
            return None
        spec = _field_dtype(ref.field)
        rlo, rhi = _zone_raw(lo, spec), _zone_raw(hi, spec)
        if rlo is None or rhi is None:
            return None
        return ref.signature(), ref.field, rlo, rhi
    if not isinstance(expr, Cmp) or expr.op not in ("<", "<=", ">", ">="):
        return None
    op = expr.op
    if isinstance(expr.left, FieldRef):
        ref, value = expr.left, _literal(expr.right, params)
    elif isinstance(expr.right, FieldRef):
        ref, value = expr.right, _literal(expr.left, params)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    else:
        return None
    if isinstance(ref.field, VarStringField) or value is _NO_LITERAL:
        return None
    raw = _zone_raw(value, _field_dtype(ref.field))
    if raw is None:
        return None
    if op in ("<", "<="):
        return ref.signature(), ref.field, None, raw
    return ref.signature(), ref.field, raw, None


def _joint_range_selectivity(source, field, members) -> Optional[float]:
    """Intersection estimate for same-column range conjuncts."""
    stats = _stats_for_field(source, field)
    bounds = stats.bounds(field.name) if stats is not None else None
    if bounds is None:
        return None
    vlo = vhi = None
    for __, rlo, rhi in members:
        if rlo is not None:
            vlo = rlo if vlo is None else max(vlo, rlo)
        if rhi is not None:
            vhi = rhi if vhi is None else min(vhi, rhi)
    return _clamp(_range_fraction(bounds[0], bounds[1], vlo, vhi))


def order_filters(
    filters: List[Expr], params: Dict[str, Any], source
) -> Tuple[List[Expr], List[PredicatePlan]]:
    """Split and rank a conjunction; returns (ordered exprs, estimates).

    Conjuncts are ordered by Selinger rank.  Range conjuncts over the
    same column form one scheduling unit: their selectivity is the
    *joint* interval-intersection estimate (range ends of one window are
    strongly correlated, the independence product badly overestimates
    the survivors), their navigation cost is charged once (an adjacent
    same-column member reuses the gathered addresses and column
    values), and they are placed — internally rank-ordered — at the
    group's combined rank.
    """
    conjuncts = split_conjuncts(filters)
    plans = [
        PredicatePlan(
            expr,
            estimate_selectivity(expr, params, source),
            predicate_cost(expr),
            i,
        )
        for i, expr in enumerate(conjuncts)
    ]
    # Bucket literal range conjuncts by constrained column.
    buckets: Dict[str, List[Tuple[PredicatePlan, Any, Any]]] = {}
    fields: Dict[str, Any] = {}
    for plan in plans:
        info = _range_info(plan.expr, params)
        if info is None:
            continue
        key, field, rlo, rhi = info
        buckets.setdefault(key, []).append((plan, rlo, rhi))
        fields[key] = field
    grouped: Dict[int, Tuple[float, float, int, int]] = {}  # id(plan) -> group sort key
    for key, members in buckets.items():
        if len(members) < 2:
            continue
        joint = _joint_range_selectivity(source, fields[key], members)
        if joint is None:
            joint = 1.0
            for plan, __, __ in members:
                joint *= plan.selectivity
        joint = min(joint, min(p.selectivity for p, __, __ in members))
        # One nav charge for the whole group (later members hit the
        # address/value caches), and later members only see the rows the
        # earlier ones kept — so the group's per-input-row cost is the
        # *expected* kernel count c1 + s1*c2 + ..., not the plain sum.
        first = min(p.declared_at for p, __, __ in members)
        depth = max(nav_depth(p.expr) for p, __, __ in members)
        ordered_members = sorted(
            (p for p, __, __ in members), key=lambda p: (p.rank, p.declared_at)
        )
        cost = NAV_STEP_COST * depth
        survivors = 1.0
        for p in ordered_members:
            cost += survivors * kernel_count(p.expr)
            survivors *= p.selectivity
        rank = cost / max(_EPS, 1.0 - joint)
        for plan, __, __ in members:
            grouped[id(plan)] = (rank, depth, first)
            plan.group_factor = 1.0
        lead = min((p for p, __, __ in members), key=lambda p: (p.rank, p.declared_at))
        lead.group_factor = joint
    # Deterministic: ties (identical estimates) keep cheap-navigation
    # and declaration order; grouped members sort at their group's rank
    # and stay adjacent, internally cheapest-and-most-selective first.
    def sort_key(p: PredicatePlan):
        g = grouped.get(id(p))
        if g is not None:
            return g + (p.rank, p.declared_at)
        return (p.rank, nav_depth(p.expr), p.declared_at, 0.0, 0)

    plans.sort(key=sort_key)
    return [p.expr for p in plans], plans


# ----------------------------------------------------------------------
# Whole-scan planning + EXPLAIN surface
# ----------------------------------------------------------------------


class PlanInfo:
    """Everything EXPLAIN wants to show (and the feedback registry keys on)."""

    __slots__ = (
        "signature",
        "predicates",
        "access_path",
        "table_rows",
        "est_selectivity",
        "est_rows",
    )

    def __init__(self, signature: str) -> None:
        self.signature = signature
        self.predicates: List[PredicatePlan] = []
        self.access_path = "full-scan"
        self.table_rows = 0
        self.est_selectivity = 1.0
        self.est_rows = 0

    def explain_lines(self) -> List[str]:
        lines = [
            f"  planner: {self.access_path}, est {self.est_rows} of "
            f"{self.table_rows} rows (selectivity {self.est_selectivity:.4f})"
        ]
        for i, p in enumerate(self.predicates):
            lines.append(
                f"    [{i}] sel={p.selectivity:.4f} cost={p.cost:.1f} "
                f"rank={p.rank:.2f}  {p.expr.signature()}"
            )
        return lines


def plan_scan(
    query_signature: str,
    filters: List[Expr],
    params: Dict[str, Any],
    source,
) -> Tuple[List[Expr], PlanInfo]:
    """Order a scan's conjuncts and name its access path."""
    ordered, plans = order_filters(filters, params, source)
    info = PlanInfo(query_signature)
    info.predicates = plans
    stats = table_stats(source)
    info.table_rows = stats.rows if stats is not None else 0
    sel = 1.0
    for p in plans:
        sel *= p.group_factor
    info.est_selectivity = _clamp(sel)
    info.est_rows = int(round(info.est_selectivity * info.table_rows))
    if any(p.selectivity < 1.0 for p in plans):
        info.access_path = "pruned-scan"
    return ordered, info


def estimate_query_rows(query, params: Dict[str, Any]) -> Optional[int]:
    """Estimated output rows of *query*'s scan stage (serve routing).

    ``None`` means "no estimate" (non-SMC source, no stats): callers
    should not route on it.
    """
    from repro.query.builder import Where

    source = query.source
    stats = table_stats(source)
    if stats is None:
        return None
    filters = [op.pred for op in query.ops if isinstance(op, Where)]
    __, plans = order_filters(filters, params, source)
    sel = 1.0
    for p in plans:
        sel *= p.group_factor
    return int(round(_clamp(sel) * stats.rows))


# ----------------------------------------------------------------------
# Execution feedback (observed selectivity)
# ----------------------------------------------------------------------


class _Feedback:
    """Per-query-signature observations from completed executions, for
    EXPLAIN's estimated-vs-actual comparison."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_sig: Dict[str, Dict[str, Any]] = {}

    def record(self, signature: str, **observed: int) -> None:
        """Keep the latest run's numbers (``est_rows``, rows scanned and
        matched, blocks scanned and pruned) and count the runs."""
        with self._lock:
            prior = self._by_sig.get(signature)
            observed["runs"] = prior["runs"] + 1 if prior is not None else 1
            self._by_sig[signature] = observed
            if len(self._by_sig) > 512:  # bound the registry
                self._by_sig.pop(next(iter(self._by_sig)))

    def observation(self, signature: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            obs = self._by_sig.get(signature)
            return dict(obs) if obs is not None else None


_feedback = _Feedback()


def record_observation(info: PlanInfo, **observed: int) -> None:
    _feedback.record(info.signature, est_rows=info.est_rows, **observed)


def observation(signature: str) -> Optional[Dict[str, Any]]:
    return _feedback.observation(signature)


def route_workers(est_rows: Optional[int], workers: int) -> int:
    """Serve-path routing: tiny scans stay serial (fan-out costs more)."""
    if workers > 1 and est_rows is not None and est_rows < SMALL_SCAN_ROWS:
        return 1
    return workers
