#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``, metric by metric.

    python benchmarks/suite/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  One row per (workload, end-to-end metric):
both medians over the file's untraced runs, B/A with A as its base, each
side's spread (distance between the first and third quartile of its
runs, as a share of their median) and a verdict against the metric's
bound in ``BENCHMARK.json``:

``within``      B is no worse and no better than A by more than the bound
``regressed``   B is worse than A by more than the bound
``improved``    B is better than A by more than the bound
``unresolved``  either side's spread is wider than the bound, so the
                difference cannot be told from noise

Exits 1 if any row regressed, or if either file holds a failed request
or a leaked artifact.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], List[str]]:
    """``{(workload, metric): values}`` of the untraced runs, and the
    file's correctness problems."""
    values: Dict[Tuple[str, str], List[float]] = {}
    problems = []
    for run in json.loads(Path(path).read_text())["runs"]:
        where = f"{path}: {run['workload']} seed {run['seed']}"
        if run["failed"]:
            problems.append(f"{where}: {run['failed']} failed of {run['attempted']}")
        if run["leaked_artifacts"]:
            problems.append(f"{where}: leaked {run['leaked_artifacts']}")
        if not run["traced"]:
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values, problems


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: List[float], cand: List[float], better: str, bound: float) -> str:
    if max(spread(base), spread(cand)) > bound:
        return "unresolved"
    a, b = statistics.median(base), statistics.median(cand)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "within"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_problems), (cand, cand_problems) = load(argv[0]), load(argv[1])
    print(f"{'workload':<14} {'metric':<26} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in cand:
                continue
            a, b = base[key], cand[key]
            result = verdict(a, b, metric["better"], metric["bound"])
            regressed += result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<14} {metric['name']:<26} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{med_b / med_a:>7.3f} {spread(a):>9.1%} {spread(b):>9.1%} "
                  f"{metric['bound']:>6.0%}  {result}   "
                  f"({metric['unit']}, {metric['better']} is better, n={len(a)}/{len(b)})")
    for problem in base_problems + cand_problems:
        print(f"PROBLEM: {problem}")
    return 1 if regressed or base_problems or cand_problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
