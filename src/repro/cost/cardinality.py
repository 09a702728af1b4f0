"""Cardinality estimation from triple-table statistics.

The cost function ``c`` of the paper "may reflect any (combination of)
query evaluation costs, such as I/O, CPU etc.; in [5] we computed c
based on database textbook formulas" (Section 4).  The textbook
formulas need cardinalities; this module estimates them:

* **scans** — exact per-property counts; ``rdf:type`` scans with a
  constant class use the exact class cardinality; other constant
  positions assume uniformity over the property's distinct values;
* **joins** — the System-R rule: ``|L ⋈ R| = |L|·|R| / Π_a
  max(V(L,a), V(R,a))`` over the shared variables ``a``, where ``V``
  is the number of distinct values of the column, propagated through
  operators with the usual min/containment assumptions;
* **unions** — sum of the inputs (duplicates estimated away only by an
  explicit distinct).

Estimates are floats ≥ 0; downstream code must not assume integers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

from ..engine.ir import PositionSpec
from ..storage.statistics import StoreStatistics

#: Distinct-value estimates per column, keyed by whatever names a column
#: for the caller: Variables in the plan IR, ints in the cover estimator.
Distincts = Dict[Hashable, float]


def estimate_scan(
    positions: Sequence[PositionSpec],
    statistics: StoreStatistics,
    type_property_id,
    exact_constants: bool = False,
) -> float:
    """Estimated output rows of a triple-pattern scan, given its three
    position specs (``ScanNode.positions``).

    With ``exact_constants`` (an MCV-style lookup), a scan with one
    bound subject/object uses the exact per-value frequency; otherwise
    the classical uniformity assumption divides the property extent by
    the distinct count — the paper's textbook formula, and the
    default.  Ablation A1 compares the two.
    """
    subject_id, property_id, object_id = (
        value if kind == "const" else None for kind, value in positions
    )
    ranges = [(i, value) for i, (kind, value) in enumerate(positions) if kind == "range"]
    if ranges:
        position, (lo, hi) = ranges[0]
        if position == 1:
            # Property-position interval (subproperty subtree): the
            # stored per-property counts summed over the id range —
            # interval statistics, not a summed union of branches.
            return float(
                sum(statistics.property_count(pid) for pid in range(lo, hi))
            )
        if position == 2 and property_id is not None:
            if property_id == type_property_id:
                # Type interval: exact class cardinalities summed.
                rows = float(
                    sum(statistics.class_count(cid) for cid in range(lo, hi))
                )
            else:
                rows = float(
                    sum(
                        statistics.property_object_count(property_id, oid)
                        for oid in range(lo, hi)
                    )
                )
            if subject_id is not None:
                distinct = statistics.property_distinct_subjects(property_id)
                rows = rows / distinct if distinct else min(rows, 1.0)
            return rows
        # Other shapes (subject-position range, object range with the
        # property unbound): fall through — the range is treated as
        # unbound, a safe overestimate.
    if property_id is None:
        # Unbound property: the whole table, narrowed by bound s/o
        # assuming uniformity over global distinct values.
        rows = float(statistics.total_triples)
        if subject_id is not None and statistics.distinct_subjects:
            rows /= statistics.distinct_subjects
        if object_id is not None and statistics.distinct_objects:
            rows /= statistics.distinct_objects
        return rows

    rows = float(statistics.property_count(property_id))
    if rows == 0.0:
        return 0.0
    if property_id == type_property_id and object_id is not None:
        rows = float(statistics.class_count(object_id))
        if subject_id is not None:
            # A fully bound membership test.
            classes = statistics.property_distinct_subjects(property_id)
            rows = rows / classes if classes else min(rows, 1.0)
        return rows
    if subject_id is not None and object_id is not None:
        # Fully bound: at most one triple; estimate via the rarer side.
        if exact_constants:
            return float(
                min(
                    1,
                    statistics.property_subject_count(property_id, subject_id),
                    statistics.property_object_count(property_id, object_id),
                )
            )
        distinct_s = statistics.property_distinct_subjects(property_id)
        distinct_o = statistics.property_distinct_objects(property_id)
        if distinct_s:
            rows /= distinct_s
        if distinct_o:
            rows /= distinct_o
        return rows
    if subject_id is not None:
        if exact_constants:
            return float(
                statistics.property_subject_count(property_id, subject_id)
            )
        distinct = statistics.property_distinct_subjects(property_id)
        return rows / distinct if distinct else 0.0
    if object_id is not None:
        if exact_constants:
            return float(
                statistics.property_object_count(property_id, object_id)
            )
        distinct = statistics.property_distinct_objects(property_id)
        return rows / distinct if distinct else 0.0
    return rows


def scan_column_distincts(
    positions: Sequence[PositionSpec], statistics: StoreStatistics, rows: float
) -> Distincts:
    """Distinct-value estimates for each variable column of a scan."""
    property_id = positions[1][1] if positions[1][0] == "const" else None
    distincts: Distincts = {}
    for position, (kind, value) in enumerate(positions):
        if kind != "var":
            continue
        variable = value
        if property_id is not None:
            if position == 0:
                column = float(statistics.property_distinct_subjects(property_id))
            elif position == 2:
                column = float(statistics.property_distinct_objects(property_id))
            else:
                column = 1.0  # property position bound by definition here
        else:
            if position == 0:
                column = float(statistics.distinct_subjects)
            elif position == 1:
                column = float(statistics.distinct_properties)
            else:
                column = float(statistics.distinct_objects)
        # A column can never have more distinct values than rows.
        previous = distincts.get(variable)
        column = max(1.0, min(column, rows)) if rows else 0.0
        if previous is None or column < previous:
            distincts[variable] = column
    return distincts


def estimate_join(
    left_rows: float,
    right_rows: float,
    left_distincts: Distincts,
    right_distincts: Distincts,
    join_variables,
) -> float:
    """System-R join cardinality with independence across keys."""
    rows = left_rows * right_rows
    for variable in join_variables:
        denominator = max(
            left_distincts.get(variable, 1.0), right_distincts.get(variable, 1.0)
        )
        if denominator > 0:
            rows /= denominator
    return rows


def join_column_distincts(
    left_distincts: Distincts, right_distincts: Distincts, rows: float
) -> Distincts:
    """Propagate distinct counts through a join: a surviving column
    keeps at most its input distinct count, capped by the output size."""
    distincts: Distincts = {}
    for source in (left_distincts, right_distincts):
        for variable, value in source.items():
            current = distincts.get(variable)
            candidate = min(value, rows) if rows else 0.0
            if current is None or candidate < current:
                distincts[variable] = candidate
    return distincts


def distinct_output_rows(child_rows: float, child_distincts: Distincts) -> float:
    """Estimated rows after duplicate elimination: bounded by the
    product of the per-column distincts (independence), and by the
    input size."""
    if not child_distincts:
        return min(child_rows, 1.0) if child_rows else 0.0
    product = 1.0
    for value in child_distincts.values():
        product *= max(value, 1.0)
    return min(child_rows, product)
