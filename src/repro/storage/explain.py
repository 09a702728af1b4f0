"""EXPLAIN: human-readable physical plans.

Demo step 3 lets attendees "inspect: the chosen query plan;
cardinalities and costs of (sub)queries".  :func:`explain` renders an
annotated (and optionally executed) plan as an indented operator tree,
one line per node, with estimated rows, estimated cost and — when the
plan has been executed — actual rows, in the style of an RDBMS EXPLAIN
ANALYZE.
"""

from __future__ import annotations

from typing import List, Optional

from ..rdf.namespaces import shorten
from ..rdf.terms import URI
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
from .store import TripleStore


def _describe(node: PlanNode, store: Optional[TripleStore]) -> str:
    """One-line operator description with decoded constants."""

    def decode(term_id: int) -> str:
        if store is None:
            return "#%d" % term_id
        term = store.dictionary.decode(term_id)
        if isinstance(term, URI):
            return shorten(term)
        return term.n3()

    def position(kind, value) -> str:
        if kind == "var":
            return "?%s" % value.name
        if kind == "range":
            return "[#%d..#%d)" % value
        if kind == "term":
            return value.n3()
        return decode(value)

    if isinstance(node, ScanNode):
        positions = ", ".join(
            position(kind, value) for kind, value in node.positions
        )
        described = "Scan(%s)" % positions
        intervals = getattr(node, "interval_info", None)
        if intervals:
            described += "  {%s}" % "; ".join(
                "interval %s [%d..%d) collapses %d branches"
                % (
                    decode(store.dictionary.lookup(anchor))
                    if store is not None
                    and store.dictionary.lookup(anchor) is not None
                    else anchor.n3(),
                    lo,
                    hi,
                    branches,
                )
                for lo, hi, anchor, branches in intervals
            )
        return described
    if isinstance(node, JoinNode):
        keys = ", ".join("?%s" % v.name for v in node.join_variables)
        return "Join(%s)" % (keys or "cross product")
    if isinstance(node, ProjectNode):
        columns = ", ".join(
            position(kind, value) for kind, value in node.specs
        )
        return "Project(%s)" % columns
    if isinstance(node, UnionNode):
        return "Union(%d inputs, distinct)" % len(node.children())
    if isinstance(node, DistinctNode):
        return "Distinct"
    if isinstance(node, NonLiteralFilterNode):
        return "Filter(non-literal: %s)" % ", ".join(
            "?%s" % v.name for v in node.variables
        )
    if isinstance(node, EmptyNode):
        return "Empty"
    return repr(node)


def explain(
    plan: PlanNode,
    store: Optional[TripleStore] = None,
    max_union_children: int = 3,
) -> str:
    """Render *plan* as an indented tree.

    Large unions (UCQ reformulations can have thousands of inputs) are
    elided after ``max_union_children`` branches, with a summary line —
    exactly the shape of the demo's plan panel.

    >>> # explain(Executor(store).run(query).plan, store)
    """
    lines: List[str] = []

    def render(node: PlanNode, depth: int) -> None:
        annotation = "rows≈%.0f cost≈%.1f" % (
            node.estimated_rows,
            node.estimated_cost,
        )
        if node.actual_rows is not None:
            annotation += " actual=%d" % node.actual_rows
        lines.append("%s%s  [%s]" % ("  " * depth, _describe(node, store), annotation))
        children = node.children()
        if isinstance(node, UnionNode) and len(children) > max_union_children:
            for child in children[:max_union_children]:
                render(child, depth + 1)
            elided = children[max_union_children:]
            total_rows = sum(child.estimated_rows for child in elided)
            lines.append(
                "%s… %d more inputs (rows≈%.0f)"
                % ("  " * (depth + 1), len(elided), total_rows)
            )
            return
        for child in children:
            render(child, depth + 1)

    render(plan, 0)
    return "\n".join(lines)
