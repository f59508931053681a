"""Per-block zone maps: min/max statistics for block-level scan pruning.

Blocks are the natural statistics granularity in an SMC: fixed-size,
single-type, slot-directory-enumerated — the same granularity the scan
protocol (section 5.2) and every executor's block cursor already work
at.  A :class:`ZoneMap` records, per numeric/date/scaled-decimal field,
the minimum and maximum *raw* value over the block's valid slots.  The
query planner derives interval tests from
``Where``/``Between``/``InSet`` predicates and skips blocks whose zone
cannot contain a match, before any kernel touches the block's memory.

Maintenance is **lazy**: writers never compute statistics.  Every block
carries a ``zone_version`` counter that mutators bump — one integer
increment on ``commit_slot`` and on in-place writes to a zoned field —
so the allocation hot path (the paper's headline Add/Remove throughput)
pays no per-field work.  The first pruning scan to reach a block builds
its map with one vectorised min/max pass over the valid slots
(:func:`ensure`) and stamps it with the version it observed; a map whose
recorded version no longer matches the block's counter is simply
ignored and rebuilt.  The invariant is *conservatism*: a map is either
provably current or it is not consulted.

* **insert / update** — bump ``zone_version`` (after the slot/field
  bytes are visible, so a map built from a matching version has seen the
  write).  The stale map is rebuilt by the next pruning scan.
* **free** — the map is left as it is and the version is *not* bumped.
  A freed extremum therefore keeps the zone wide, which can cost pruning
  opportunities but can never skip a live match.
* **compaction** — relocation copies slot bytes without going through
  ``commit_slot``, but each copy's ``mark_valid`` still bumps the
  destination's version, so no destination map can go stale unnoticed;
  when the group finishes the compactor calls :func:`rebuild` to publish
  exact bounds over the surviving slots.  ``Block.reset`` clears zones
  when a block is recycled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.context import MemoryContext
    from repro.memory.manager import MemoryManager

#: Field classes whose raw representation is an ordered scalar the zone
#: map can bound.  (Char/VarString/Ref fields are excluded: strings are
#: compared padded and references are identities, not ordinals.)
_ELIGIBLE_FIELDS = frozenset(
    {
        "Int8Field",
        "Int16Field",
        "Int32Field",
        "Int64Field",
        "BoolField",
        "Float64Field",
        "DecimalField",
        "DateField",
    }
)


#: Distinct-code threshold below which a block's zone map keeps the exact
#: set of dictionary codes present (a "small-domain code bitmap") instead
#: of only the min/max envelope.
CODE_SET_LIMIT = 64


def is_zoned(field) -> bool:
    """True if writes to *field* must invalidate block zone maps.

    Varstring fields count: with dictionary encoding their columns hold
    int codes that zone maps bound (and enumerate for small domains), so
    in-place updates have to bump ``zone_version`` like any zoned write.
    """
    name = type(field).__name__
    return name in _ELIGIBLE_FIELDS or name == "VarStringField"


class ZoneMap:
    """Min/max bounds per field (raw-value domain), valid at one version.

    For dictionary-coded string fields, ``codes[name]`` additionally holds
    the exact set of codes present in the block when the block's distinct
    count is small (at most :data:`CODE_SET_LIMIT`); otherwise the entry
    is absent and only the lo/hi envelope applies.

    ``charsets[name]`` holds the analogous small-domain value set for
    fixed-width ``CharField`` columns (raw padded bytes).  Char fields
    are *not* zoned for write invalidation (:func:`is_zoned` excludes
    them, so in-place Char updates do not bump ``zone_version``), which
    means a charset may silently go stale.  It is therefore **advisory
    only** — the planner folds charsets into domain-cardinality
    estimates, but pruning must never test them.
    """

    __slots__ = ("lo", "hi", "codes", "charsets", "version")

    def __init__(self, version: int) -> None:
        self.lo: Dict[str, float] = {}
        self.hi: Dict[str, float] = {}
        self.codes: Dict[str, frozenset] = {}
        self.charsets: Dict[str, frozenset] = {}
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(
            f"{n}=[{self.lo[n]}, {self.hi[n]}]" for n in sorted(self.lo)
        )
        return f"<ZoneMap v={self.version} {spans}>"


def zone_specs(context: "MemoryContext") -> List[Tuple[str, str]]:
    """Cached ``(name, kind)`` list of zoned fields.

    ``kind`` is ``"num"`` for ordered scalars (min/max envelope),
    ``"code"`` for dictionary-coded varstring columns (envelope plus
    small-domain code sets) and ``"char"`` for fixed-width Char columns
    (small-domain value sets only — padded bytes have no useful numeric
    envelope).
    Contexts without a layout (e.g. the string store) have no zoned
    fields.
    """
    specs = getattr(context, "_zone_specs", None)
    if specs is None:
        layout = context.layout
        if layout is None:  # string store etc.: nothing to zone, no cache
            return []
        specs = [
            (f.name, "num")
            for f in layout.fields
            if type(f).__name__ in _ELIGIBLE_FIELDS
        ]
        specs.extend(
            (f.name, "char")
            for f in layout.fields
            if type(f).__name__ == "CharField"
        )
        specs.extend((f.name, "code") for f in layout.var_fields)
        context._zone_specs = specs
    return specs


def _compute(context: "MemoryContext", block, version: int) -> Optional[ZoneMap]:
    """One vectorised min/max pass over *block*'s valid slots."""
    specs = zone_specs(context)
    if not specs:
        return None
    valid = block.valid_slots()
    if valid.size == 0:
        return None
    zones = ZoneMap(version)
    for name, kind in specs:
        vals = block.column(name)[valid]
        if kind == "code":
            # Row templates store NULL_ADDRESS (-1) for unset varstrings;
            # both -1 and 0 decode to "", so fold them before bounding.
            uniq = np.unique(np.maximum(vals, 0))
            zones.lo[name] = uniq[0].item()
            zones.hi[name] = uniq[-1].item()
            if uniq.size <= CODE_SET_LIMIT:
                zones.codes[name] = frozenset(int(c) for c in uniq)
            continue
        if kind == "char":
            # Advisory distinct set for the planner's cardinality
            # estimates; no lo/hi (padded bytes are not ordinals) and
            # never consulted by pruning (see class docstring).
            uniq = np.unique(vals)
            if uniq.size <= CODE_SET_LIMIT:
                zones.charsets[name] = frozenset(bytes(v) for v in uniq)
            continue
        zones.lo[name] = vals.min().item()
        zones.hi[name] = vals.max().item()
    return zones


def ensure(manager: "MemoryManager", block) -> Optional[ZoneMap]:
    """Return a provably current zone map for *block*, building it if needed.

    ``None`` means "no usable statistics, admit the block" — for empty
    blocks, unlayouted contexts, and builds raced by a writer.

    Concurrency: every slot publication goes through ``mark_valid`` —
    allocation commits and relocation copies alike — which bumps the
    version counter, so the discipline covers blocks still being filled.
    The version is captured *before* the slot read and re-checked before
    publishing, so a mutation racing with the build discards the result
    instead of installing bounds that miss it.  A mutation that lands
    after the re-check leaves a map whose recorded version trails
    ``block.zone_version`` — later calls see the mismatch and rebuild.
    Rows committed mid-scan may thus be missed by pruning, which matches
    bag-semantics scans (concurrent-insert visibility is undefined); rows
    committed before the scan started always bumped the counter first and
    are therefore covered.
    """
    version = block.zone_version
    zones = block.zones
    if zones is not None and zones.version == version:
        return zones
    zones = _compute(manager.context_by_id(block.context_id), block, version)
    if zones is None:
        return None
    if block.zone_version == version:
        block.zones = zones
        return zones
    return None  # a writer raced the build; admit conservatively


def rebuild(manager: "MemoryManager", block) -> None:
    """Recompute exact bounds from *block*'s valid slots (post-compaction)."""
    context = manager.context_by_id(block.context_id)
    block.zones = _compute(context, block, block.zone_version)
