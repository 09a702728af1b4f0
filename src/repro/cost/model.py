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
from typing import Iterable, Optional, Sequence, Tuple

from ..storage.backends import BackendProfile
from ..engine.ir import (
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    PositionSpec,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from ..storage.statistics import StoreStatistics
from . import cardinality
from .cardinality import Distincts

#: What every formula below returns: rows, column distincts, own cost.
Numbers = Tuple[float, Distincts, float]


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

    Every formula lives in the node-free functions below, which the
    cover optimizer calls directly: it prices covers on plain numbers
    and never builds the nodes.
    """
    if isinstance(node, EmptyNode):
        estimate = 0.0, {}, 0.0
    elif isinstance(node, ScanNode):
        estimate = scan_estimate(node.positions, statistics, backend, type_property_id)
    elif isinstance(node, JoinNode):
        estimate = join_estimate(
            _numbers(node.left),
            _numbers(node.right),
            node.join_variables,
            backend,
        )
    elif isinstance(node, ProjectNode):
        rows, distincts = _numbers(node.child)
        kept = {label for label in node.columns if label is not None}
        distincts = {
            variable: value for variable, value in distincts.items() if variable in kept
        }
        estimate = rows, distincts, per_row_cost(rows, backend)
    elif isinstance(node, NonLiteralFilterNode):
        # Pass-through estimate: guards rarely drop many rows, and an
        # overestimate only makes guarded plans marginally pricier.
        rows, distincts = _numbers(node.child)
        estimate = rows, dict(distincts), per_row_cost(rows, backend)
    elif isinstance(node, UnionNode):
        estimate = union_estimate(
            (_numbers(child) + (1,) for child in node.children()), backend
        )
    elif isinstance(node, DistinctNode):
        rows, distincts = _numbers(node.child)
        estimate = (
            cardinality.distinct_output_rows(rows, distincts),
            dict(distincts),
            dedup_cost(rows, backend),
        )
    else:
        raise TypeError("cannot cost %r" % (node,))
    node.estimated_rows, node.column_distincts, node.estimated_cost = estimate
    return node


def _numbers(node: PlanNode) -> Tuple[float, Distincts]:
    return node.estimated_rows, node.column_distincts


# ----------------------------------------------------------------------
# The formulas, over plain numbers: each returns ``(rows, column
# distincts, own cost)``.


def scan_estimate(
    positions: Sequence[PositionSpec],
    statistics: StoreStatistics,
    backend: BackendProfile,
    type_property_id: Optional[int],
) -> Numbers:
    """One triple-pattern scan, given its three position specs."""
    rows = cardinality.estimate_scan(
        positions, statistics, type_property_id, backend.exact_constant_stats
    )
    distincts = cardinality.scan_column_distincts(positions, statistics, rows)
    return rows, distincts, backend.io_cost * rows


def join_estimate(
    left: Tuple[float, Distincts],
    right: Tuple[float, Distincts],
    join_variables: Sequence,
    backend: BackendProfile,
) -> Numbers:
    """A binary join of two ``(rows, distincts)`` inputs, priced as the
    backend profile's join algorithm."""
    (left_rows, left_distincts), (right_rows, right_distincts) = left, right
    rows = cardinality.estimate_join(
        left_rows, right_rows, left_distincts, right_distincts, join_variables
    )
    distincts = cardinality.join_column_distincts(
        left_distincts, right_distincts, rows
    )
    algorithm = backend.join_algorithm
    if algorithm == "hash":
        build = min(left_rows, right_rows)
        probe = max(left_rows, right_rows)
        cost = (
            backend.hash_build_cost * build
            + backend.cpu_cost * (build + probe)
            + backend.cpu_cost * rows
        )
    elif algorithm == "merge":
        sort = backend.sort_cost_factor * (
            left_rows * _log2(left_rows) + right_rows * _log2(right_rows)
        )
        cost = sort + backend.cpu_cost * (left_rows + right_rows + rows)
    else:  # nested loop
        cost = backend.cpu_cost * (left_rows * max(right_rows, 1.0) + rows)
    return rows, distincts, cost


def union_estimate(
    inputs: Iterable[Tuple[float, Distincts, int]], backend: BackendProfile
) -> Numbers:
    """A deduplicating union of ``(rows, distincts, weight)`` inputs;
    an input of weight *n* stands for *n* inputs with that estimate."""
    total = 0.0
    merged: Distincts = {}
    for rows, distincts, weight in inputs:
        total += weight * rows
        for variable, value in distincts.items():
            merged[variable] = merged.get(variable, 0.0) + weight * value
    distincts = {variable: min(value, total) for variable, value in merged.items()}
    return total, distincts, dedup_cost(total, backend)


def per_row_cost(rows: float, backend: BackendProfile) -> float:
    """Projection and the non-literal guard: CPU per input tuple."""
    return backend.cpu_cost * rows


def dedup_cost(rows: float, backend: BackendProfile) -> float:
    """Duplicate elimination (union, distinct) per input tuple."""
    return backend.dedup_cost * rows
