"""Physical operators of the column-store engine.

A deliberately small but real set of vectorised operators — selection,
hash join, grouped aggregation, top-k — out of which the TPC-H plans in
:mod:`repro.rdbms.queries` are composed.  Joins are *value-based* (key
columns hashed into int64 → row-id maps), in contrast to the SMC engines'
reference-based joins; this is exactly the contrast the paper's Figure 13
evaluates.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdbms.table import ColumnTable


def select(
    table: ColumnTable,
    rows: Optional[np.ndarray],
    col: str,
    op: str,
    value: Any,
) -> np.ndarray:
    """Filter *rows* (row-id array; None = all) on one column predicate."""
    raw = table.encode_value(col, value)
    values = table.column(col, rows)
    ops: Dict[str, Callable] = {
        "==": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }
    mask = ops[op](values, raw)
    base = np.arange(table.row_count) if rows is None else rows
    return base[mask]


def select_in(
    table: ColumnTable, rows: Optional[np.ndarray], col: str, raw_values: np.ndarray
) -> np.ndarray:
    values = table.column(col, rows)
    mask = np.isin(values, raw_values)
    base = np.arange(table.row_count) if rows is None else rows
    return base[mask]


#: Lifetime join decisions, scraped into benchmark/service stats.
JOIN_STATS = {"joins": 0, "build_unique_side": 0, "build_many_side": 0}


def hash_join(
    unique_keys: np.ndarray,
    unique_rows: np.ndarray,
    many_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """PK hash join with cost-based build-side choice.

    *unique_keys* carries each key at most once (a primary key side);
    *unique_rows* is any int64 payload aligned with it (row ids or
    positions).  Returns ``(unique_payload, many_positions)`` matched
    pairs ordered by the many side's position — the iteration order every
    hand-written plan uses — so the output is identical no matter which
    side was hashed.

    The smaller input is hashed: when the many side (already filtered by
    earlier predicates) is smaller than the unique side, hashing it avoids
    materialising a dictionary over the large unique input and turns the
    join into a probe-by-scan of the unique column.
    """
    JOIN_STATS["joins"] += 1
    if len(many_keys) < len(unique_keys):
        JOIN_STATS["build_many_side"] += 1
        built: Dict[int, List[int]] = {}
        for pos, key in enumerate(many_keys.tolist()):
            bucket = built.get(key)
            if bucket is None:
                built[key] = [pos]
            else:
                bucket.append(pos)
        out_u: List[int] = []
        out_m: List[int] = []
        get = built.get
        for key, payload in zip(unique_keys.tolist(), unique_rows.tolist()):
            positions = get(key)
            if positions is not None:
                for pos in positions:
                    out_u.append(payload)
                    out_m.append(pos)
        many_pos = np.asarray(out_m, dtype=np.int64)
        order = np.argsort(many_pos, kind="stable")
        return np.asarray(out_u, dtype=np.int64)[order], many_pos[order]
    JOIN_STATS["build_unique_side"] += 1
    built_unique = dict(zip(unique_keys.tolist(), unique_rows.tolist()))
    out_u = []
    out_m = []
    get = built_unique.get
    for pos, key in enumerate(many_keys.tolist()):
        payload = get(key)
        if payload is not None:
            out_u.append(payload)
            out_m.append(pos)
    return (
        np.asarray(out_u, dtype=np.int64),
        np.asarray(out_m, dtype=np.int64),
    )


def build_hash(keys: np.ndarray, row_ids: np.ndarray) -> Dict[int, List[int]]:
    """Build side of a hash join: key -> row ids (supports duplicates)."""
    table: Dict[int, List[int]] = {}
    for key, rid in zip(keys.tolist(), row_ids.tolist()):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [rid]
        else:
            bucket.append(rid)
    return table


def build_hash_unique(keys: np.ndarray, row_ids: np.ndarray) -> Dict[int, int]:
    """Build side for unique keys (primary keys)."""
    return dict(zip(keys.tolist(), row_ids.tolist()))


def probe_hash_unique(
    probe_keys: np.ndarray,
    probe_rows: np.ndarray,
    built: Dict[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Probe side of a PK hash join: returns matched (probe, build) rows."""
    out_probe: List[int] = []
    out_build: List[int] = []
    get = built.get
    for key, rid in zip(probe_keys.tolist(), probe_rows.tolist()):
        match = get(key)
        if match is not None:
            out_probe.append(rid)
            out_build.append(match)
    return (
        np.asarray(out_probe, dtype=np.int64),
        np.asarray(out_build, dtype=np.int64),
    )


def semi_join(
    probe_keys: np.ndarray, probe_rows: np.ndarray, key_set: set
) -> np.ndarray:
    """Probe rows whose key appears in *key_set* (EXISTS)."""
    mask = np.fromiter(
        (k in key_set for k in probe_keys.tolist()),
        dtype=bool,
        count=len(probe_keys),
    )
    return probe_rows[mask]


class GroupAggregator:
    """Grouped aggregation over raw arrays with exact int accumulation."""

    def __init__(self, agg_specs: Sequence[Tuple[str, str]]) -> None:
        #: (name, kind) where kind in sum/count/avg/min/max
        self.specs = list(agg_specs)
        self.groups: Dict[Any, list] = {}

    def absorb(
        self,
        keys: Sequence[np.ndarray],
        values: Sequence[Optional[np.ndarray]],
    ) -> None:
        """Add one batch: key arrays + one value array per aggregate."""
        n = len(keys[0]) if keys else (len(values[0]) if values and values[0] is not None else 0)
        if n == 0:
            return
        if keys:
            if len(keys) == 1:
                uniq, inverse = np.unique(keys[0], return_inverse=True)
                uniq_keys = [(k,) for k in uniq.tolist()]
            else:
                rec = np.rec.fromarrays(list(keys))
                uniq, inverse = np.unique(rec, return_inverse=True)
                uniq_keys = [tuple(u) for u in uniq.tolist()]
        else:
            uniq_keys = [()]
            inverse = np.zeros(n, dtype=np.int64)
        counts = np.bincount(inverse, minlength=len(uniq_keys))

        partials: List[List[Any]] = [[] for __ in uniq_keys]
        for (name, kind), vals in zip(self.specs, values):
            if kind == "count":
                for g in range(len(uniq_keys)):
                    partials[g].append(int(counts[g]))
                continue
            assert vals is not None, f"aggregate {name} needs values"
            if kind in ("sum", "avg"):
                acc_dtype = np.int64 if vals.dtype.kind in "iu" else np.float64
                sums = np.zeros(len(uniq_keys), dtype=acc_dtype)
                np.add.at(sums, inverse, vals)
                for g in range(len(uniq_keys)):
                    partials[g].append((sums[g].item(), int(counts[g])))
            elif kind == "min":
                out = np.full(len(uniq_keys), np.iinfo(np.int64).max, dtype=vals.dtype)
                np.minimum.at(out, inverse, vals)
                for g in range(len(uniq_keys)):
                    partials[g].append(out[g].item())
            elif kind == "max":
                out = np.full(len(uniq_keys), np.iinfo(np.int64).min, dtype=vals.dtype)
                np.maximum.at(out, inverse, vals)
                for g in range(len(uniq_keys)):
                    partials[g].append(out[g].item())

        for g, key in enumerate(uniq_keys):
            acc = self.groups.get(key)
            if acc is None:
                self.groups[key] = [
                    list(v) if isinstance(v, tuple) else v for v in partials[g]
                ]
            else:
                for i, (name_kind, value) in enumerate(zip(self.specs, partials[g])):
                    kind = name_kind[1]
                    if kind in ("sum", "avg"):
                        acc[i][0] += value[0]
                        acc[i][1] += value[1]
                    elif kind == "count":
                        acc[i] += value
                    elif kind == "min":
                        acc[i] = min(acc[i], value)
                    elif kind == "max":
                        acc[i] = max(acc[i], value)

    def results(self) -> Dict[Any, list]:
        """Finished groups: sums flattened, avgs as (total, count) pairs."""
        out: Dict[Any, list] = {}
        for key, acc in self.groups.items():
            cells = []
            for (name, kind), cell in zip(self.specs, acc):
                if kind == "sum":
                    cells.append(cell[0])
                elif kind == "avg":
                    cells.append((cell[0], cell[1]))
                else:
                    cells.append(cell)
            out[key] = cells
        return out


def top_k_rows(rows: List[tuple], order: Sequence[Tuple[int, bool]], k: Optional[int]) -> List[tuple]:
    """Sort by (column index, desc) items, then truncate."""
    for idx, desc in reversed(list(order)):
        rows.sort(key=lambda r, i=idx: r[i], reverse=desc)
    return rows if k is None else rows[:k]
