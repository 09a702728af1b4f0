"""Lowering the plan IR to SQL over the triple table.

The second consumer of the IR (after the columnar executor): a plan becomes one SQL statement over the
dictionary-encoded triple table ``t(s, p, o)`` and the ``dict(id,
kind)`` side table — the shape the paper hands to its RDBMSs.

The lowering is purely structural; it never consults statistics
(the target engine replans anyway), so plans fed to it are usually
compiled with ``Planner(store, annotate=False)``:

* a CQ subtree — a :class:`~repro.engine.ir.ProjectNode` over joins,
  scans and non-literal filters — flattens to one ``SELECT DISTINCT``
  with a self-join of ``t`` per scan, constants as parameters, shared
  variables as equality predicates, guards as ``kind`` sub-selects;
* a :class:`~repro.engine.ir.UnionNode` becomes ``UNION`` of its
  lowered children (set semantics for free; empty children dropped).

A JUCQ plan — a projection over a join of union fragments — has no
single-statement form: the SQLite backend lowers each fragment, stores
it in an indexed temporary table and joins the tables
(:func:`fragment_leaves`, :func:`fragment_column_map`,
:func:`select_items`).

Scan constants are emitted as ``?`` parameters; range positions
(hierarchy-encoded interval atoms) become ``BETWEEN``-style
``col >= ? AND col < ?`` predicates; projection constants are already
dictionary-encoded by the planner and are inlined, except ``("term",
Term)`` specs — constants the dictionary never stored — which are
emitted as ``?`` parameters carrying the term's N3 text.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..query.algebra import Variable
from .ir import (
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionNode,
)

#: (sql, parameters): parameters are term ids / range bounds (int) or
#: N3 text for ("term", Term) projection constants (str).
LoweredSql = Tuple[str, List]


class LoweringError(ValueError):
    """The plan has no SQL translation (unexpected operator shape)."""


def lower(plan: PlanNode) -> LoweredSql:
    """One SQL statement (sql, parameters) computing *plan*."""
    if isinstance(plan, DistinctNode):
        # Lowered SELECTs are DISTINCT and UNION deduplicates, so the
        # child statement already has set semantics.
        return lower(plan.child)
    if isinstance(plan, EmptyNode):
        return _empty_select(plan.arity)
    if isinstance(plan, UnionNode):
        return _lower_union(plan)
    if isinstance(plan, ProjectNode):
        return _lower_flat_select(plan)
    raise LoweringError("cannot lower %r to SQL" % (plan,))


def _empty_select(arity: int) -> LoweredSql:
    """A uniform empty result with the right arity."""
    columns = ", ".join("NULL AS c%d" % i for i in range(max(arity, 1)))
    return "SELECT %s WHERE 0" % columns, []


def _lower_union(union: UnionNode) -> LoweredSql:
    selects: List[str] = []
    parameters: List = []
    for child in union.children():
        if isinstance(child, EmptyNode):
            continue  # an absent-constant disjunct matches nothing
        sql, params = lower(child)
        selects.append(sql)
        parameters.extend(params)
    if not selects:
        return _empty_select(union.arity)
    return " UNION ".join(selects), parameters


def _collect_flat(node: PlanNode, scans: List[ScanNode],
                  guards: List[Variable]) -> None:
    if isinstance(node, ScanNode):
        scans.append(node)
    elif isinstance(node, JoinNode):
        _collect_flat(node.left, scans, guards)
        _collect_flat(node.right, scans, guards)
    elif isinstance(node, NonLiteralFilterNode):
        guards.extend(node.variables)
        _collect_flat(node.child, scans, guards)
    else:
        raise LoweringError("cannot lower %r inside a SELECT" % (node,))


def _lower_flat_select(project: ProjectNode) -> LoweredSql:
    """One SELECT DISTINCT over self-joins of ``t`` (the CQ shape)."""
    scans: List[ScanNode] = []
    guards: List[Variable] = []
    _collect_flat(project.child, scans, guards)
    if not scans:
        raise LoweringError("a flat select needs at least one scan")

    column_of: Dict[Variable, str] = {}
    conditions: List[str] = []
    where_parameters: List = []
    for index, scan in enumerate(scans):
        alias = "t%d" % index
        for column, (kind, value) in zip(("s", "p", "o"), scan.positions):
            reference = "%s.%s" % (alias, column)
            if kind == "var":
                bound = column_of.get(value)
                if bound is None:
                    column_of[value] = reference
                else:
                    conditions.append("%s = %s" % (reference, bound))
            elif kind == "range":
                # A hierarchy-interval atom: half-open id range.
                conditions.append(
                    "%s >= ? AND %s < ?" % (reference, reference)
                )
                where_parameters.extend(value)
            else:
                conditions.append("%s = ?" % reference)
                where_parameters.append(value)

    for variable in sorted(set(guards), key=lambda v: v.name):
        conditions.append(
            "%s NOT IN (SELECT id FROM dict WHERE kind = 'literal')"
            % column_of[variable]
        )

    items, select_parameters = select_items(project, column_of)
    from_clause = ", ".join("t AS t%d" % index for index in range(len(scans)))
    sql = "SELECT DISTINCT %s FROM %s" % (", ".join(items), from_clause)
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    # Parameter order follows SQL text order: SELECT items first.
    return sql, select_parameters + where_parameters


def select_items(
    project: ProjectNode, column_of: Dict[Variable, str]
) -> Tuple[List[str], List]:
    """(items, parameters): ("term", Term) specs — constants the
    dictionary never stored — carry their N3 text as a parameter."""
    items: List[str] = []
    parameters: List = []
    for position, (kind, value) in enumerate(project.specs):
        if kind == "var":
            items.append("%s AS c%d" % (column_of[value], position))
        elif kind == "term":
            items.append("? AS c%d" % position)
            parameters.append(value.n3())
        else:
            items.append("%d AS c%d" % (value, position))
    if not items:
        items.append("1 AS c0")  # boolean query: any witness row
    return items, parameters


def fragment_leaves(node: PlanNode) -> List[PlanNode]:
    """The leaves of a join chain, left to right (JUCQ fragments)."""
    if isinstance(node, JoinNode):
        return fragment_leaves(node.left) + fragment_leaves(node.right)
    return [node]


def fragment_column_map(
    fragments: List[PlanNode], name_of
) -> Tuple[Dict[Variable, str], List[Tuple[str, int, str]]]:
    """Variable→column references and join conditions across fragments.

    ``name_of(index)`` names fragment *index*'s relation.  Returns the
    first-occurrence column of each variable and, for every repeat
    occurrence, a ``(fragment_name, position, condition)`` triple — the
    materialized JUCQ path uses the position to index the join column.
    """
    column_of: Dict[Variable, str] = {}
    joins: List[Tuple[str, int, str]] = []
    for index, fragment in enumerate(fragments):
        name = name_of(index)
        for position, label in enumerate(fragment.columns):
            if label is None:
                continue
            reference = "%s.c%d" % (name, position)
            bound = column_of.get(label)
            if bound is None:
                column_of[label] = reference
            else:
                joins.append((name, position, "%s = %s" % (reference, bound)))
    return column_of, joins
