"""Reference behaviours for differential tests.

Zone pruning and cost-based planning always run in the engine.  The
context managers here swap each one out for the duration of a ``with``
block, so a differential can compare the product against the plain
behaviour it must match.  They act when a scan is *prepared*, and a
``Query`` keeps the scan it was first prepared with: build the query
(and run it) inside the block.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.query import columnar_exec, planner


def _declaration_order(signature, filters, params, source):
    """``plan_scan`` that plans nothing: the predicates as declared, no
    conjunct split, no index lookup."""
    return list(filters), None, planner.PlanInfo(signature)


@contextlib.contextmanager
def unplanned():
    """Scans prepared inside run their predicates in declaration order
    and never use an index."""
    with mock.patch.object(planner, "plan_scan", _declaration_order):
        yield


@contextlib.contextmanager
def unpruned():
    """Scans prepared inside derive no zone tests: every block is read."""
    with mock.patch.object(
        columnar_exec, "derive_zone_tests", lambda filters, source: []
    ):
        yield
