"""The cost model: textbook I/O + CPU formulas over annotated plans.

"To select the cover leading to the most efficient evaluation, we rely
on a cost estimation function c which, for a JUCQ q, returns the cost
of evaluating it through an RDBMS storing the database" (Section 4,
GCov).  :func:`annotate_plan` walks a physical plan bottom-up, filling
``estimated_rows``, ``column_distincts`` and ``estimated_cost`` on
every node from the store statistics and a backend profile's cost
constants:

* scan         — ``io_cost`` per tuple fetched from the chosen index;
* hash join    — build (``hash_build_cost``) on the smaller input +
                 probe (``cpu_cost``) on both + output;
* merge join   — ``sort_cost_factor · n log₂ n`` per input + merge;
* nested loop  — ``cpu_cost · |L|·|R|`` (the quadratic worst case);
* union        — ``dedup_cost`` per input tuple (set semantics);
* distinct     — ``dedup_cost`` per input tuple;
* project      — ``cpu_cost`` per tuple.

The absolute unit is arbitrary; only comparisons matter, which is all
GCov needs.  Experiment E8 measures how well the estimates rank covers
against observed runtimes.
"""

from __future__ import annotations

import math
from typing import Optional

from ..storage.backends import BackendProfile
from ..engine.ir import (
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from ..storage.statistics import StoreStatistics
from . import cardinality


def _log2(value: float) -> float:
    return math.log2(value) if value > 1.0 else 0.0


def annotate_plan(
    node: PlanNode,
    statistics: StoreStatistics,
    backend: BackendProfile,
    type_property_id: Optional[int],
) -> PlanNode:
    """Annotate *node* (and its subtree) in place; returns the node."""
    for child in node.children():
        annotate_plan(child, statistics, backend, type_property_id)
    return annotate_node(node, statistics, backend, type_property_id)


def annotate_node(
    node: PlanNode,
    statistics: StoreStatistics,
    backend: BackendProfile,
    type_property_id: Optional[int],
) -> PlanNode:
    """Annotate one node, assuming its children are already annotated.

    The cover optimizer uses this to price join trees over *cached*
    fragment plans without re-walking their (possibly large) subtrees.
    """
    if isinstance(node, EmptyNode):
        node.estimated_rows = 0.0
        node.estimated_cost = 0.0
        node.column_distincts = {}

    elif isinstance(node, ScanNode):
        rows = cardinality.estimate_scan(
            node, statistics, type_property_id, backend.exact_constant_stats
        )
        node.estimated_rows = rows
        node.column_distincts = cardinality.scan_column_distincts(
            node, statistics, rows
        )
        node.estimated_cost = backend.io_cost * rows

    elif isinstance(node, JoinNode):
        left, right = node.left, node.right
        rows = cardinality.estimate_join(
            left.estimated_rows,
            right.estimated_rows,
            left.column_distincts,
            right.column_distincts,
            node.join_variables,
        )
        node.estimated_rows = rows
        node.column_distincts = cardinality.join_column_distincts(node, rows)
        node.estimated_cost = _join_cost(node, backend)

    elif isinstance(node, ProjectNode):
        node.estimated_rows = node.child.estimated_rows
        kept = {label for label in node.columns if label is not None}
        node.column_distincts = {
            variable: value
            for variable, value in node.child.column_distincts.items()
            if variable in kept
        }
        node.estimated_cost = backend.cpu_cost * node.child.estimated_rows

    elif isinstance(node, NonLiteralFilterNode):
        # Pass-through estimate: guards rarely drop many rows, and an
        # overestimate only makes guarded plans marginally pricier.
        node.estimated_rows = node.child.estimated_rows
        node.column_distincts = dict(node.child.column_distincts)
        node.estimated_cost = backend.cpu_cost * node.child.estimated_rows

    elif isinstance(node, UnionNode):
        total = sum(child.estimated_rows for child in node.children())
        node.estimated_rows = total
        merged = {}
        for child in node.children():
            for variable, value in child.column_distincts.items():
                merged[variable] = merged.get(variable, 0.0) + value
        node.column_distincts = {
            variable: min(value, total) for variable, value in merged.items()
        }
        node.estimated_cost = backend.dedup_cost * total

    elif isinstance(node, DistinctNode):
        child = node.child
        node.estimated_rows = cardinality.distinct_output_rows(
            child.estimated_rows, child.column_distincts
        )
        node.column_distincts = dict(child.column_distincts)
        node.estimated_cost = backend.dedup_cost * child.estimated_rows

    else:
        raise TypeError("cannot cost %r" % (node,))
    return node


def _join_cost(node: JoinNode, backend: BackendProfile) -> float:
    left_rows = node.left.estimated_rows
    right_rows = node.right.estimated_rows
    output = node.estimated_rows
    if node.algorithm == "hash":
        build = min(left_rows, right_rows)
        probe = max(left_rows, right_rows)
        return (
            backend.hash_build_cost * build
            + backend.cpu_cost * (build + probe)
            + backend.cpu_cost * output
        )
    if node.algorithm == "merge":
        sort = backend.sort_cost_factor * (
            left_rows * _log2(left_rows) + right_rows * _log2(right_rows)
        )
        return sort + backend.cpu_cost * (left_rows + right_rows + output)
    # nested loop
    return backend.cpu_cost * (left_rows * max(right_rows, 1.0) + output)


def plan_cost(node: PlanNode) -> float:
    """Cumulative estimated cost of an annotated plan."""
    return node.total_estimated_cost()
