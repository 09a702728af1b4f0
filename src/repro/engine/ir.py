"""The plan IR: one backend-neutral operator algebra for every engine.

A plan is a tree of nodes over dictionary-encoded rows.  Plans are
*descriptions*: the planner builds them, the cost model annotates them
(``estimated_rows`` / ``estimated_cost`` / ``column_distincts``), and
an executor runs them.  Keeping the three phases separate is what
lets GCov price a cover without running it — the whole point of
cost-based reformulation — and what lets two consumers share one plan
language:

* the **columnar** executor (:mod:`repro.columnar.engine`, behind
  :class:`repro.storage.executor.Executor`), whose operators stream
  fixed-size column chunks over sorted integer runs, so a plan runs in
  bounded memory with per-operator metrics;
* the **SQL lowering** (:mod:`repro.engine.lowering`), which turns a
  plan into one statement for a real RDBMS.

Row model: a row is a tuple of values — integer term ids, or a ready
:class:`~repro.rdf.terms.Term` for a projected constant the dictionary
never stored (``("term", Term)`` below).  A
node's ``columns`` tuple labels each position with the
:class:`Variable` it carries, or ``None`` for a constant/payload
column (constants bound by reformulation are payload: they join
nothing but appear in answers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..query.algebra import Variable

#: A column label: the variable the column binds, or None for payload.
ColumnLabel = Optional[Variable]
#: A scan position: ("const", term_id), ("var", Variable), or
#: ("range", (lo, hi)) — a half-open id interval (the physical form of
#: a hierarchy-encoded interval atom).  A range position is filtered,
#: not bound: it contributes no output column and no join variable.
PositionSpec = Tuple[str, Union[int, Variable, Tuple[int, int]]]
#: A projection column: ("var", Variable), ("const", term_id), or
#: ("term", Term) — a constant the query names but the dictionary never
#: stored, emitted as a ready term (query answering must not grow the
#: dictionary).
ProjectionSpec = Tuple[str, object]


class PlanNode:
    """Base class; concrete nodes define ``columns`` and children."""

    def __init__(self, columns: Sequence[ColumnLabel]):
        self.columns: Tuple[ColumnLabel, ...] = tuple(columns)
        # Filled by the cost annotator.
        self.estimated_rows: float = 0.0
        self.estimated_cost: float = 0.0
        self.column_distincts: Dict[Variable, float] = {}
        # Filled by the executor.
        self.actual_rows: Optional[int] = None

    def children(self) -> List["PlanNode"]:
        return []

    @property
    def arity(self) -> int:
        return len(self.columns)

    def variable_positions(self) -> Dict[Variable, int]:
        """First column index of each variable in this node's output."""
        positions: Dict[Variable, int] = {}
        for index, label in enumerate(self.columns):
            if label is not None and label not in positions:
                positions[label] = index
        return positions

    def total_estimated_cost(self) -> float:
        """This node's cost plus its subtree's."""
        return self.estimated_cost + sum(
            child.total_estimated_cost() for child in self.children()
        )

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


class ScanNode(PlanNode):
    """One access to the triple table, with constants pushed into the
    best index: the physical form of a triple pattern."""

    def __init__(self, positions: Sequence[PositionSpec]):
        if len(positions) != 3:
            raise ValueError("a scan needs exactly 3 position specs")
        labels: List[ColumnLabel] = []
        seen: set = set()
        for kind, value in positions:
            if kind == "var":
                if value in seen:
                    continue  # repeated variable: filtered, single column
                seen.add(value)
                labels.append(value)
        self.positions: Tuple[PositionSpec, ...] = tuple(positions)
        super().__init__(labels)

    def bound_positions(self) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        """(s, p, o) ids with None for variables (and range positions,
        which filter rather than bind)."""
        return tuple(
            value if kind == "const" else None for kind, value in self.positions
        )  # type: ignore[return-value]

    def range_spec(self) -> Optional[Tuple[int, Tuple[int, int]]]:
        """``(position_index, (lo, hi))`` of the range position, or
        None.  The planner emits at most one range per scan (one
        interval atom per pattern position is all reformulation
        produces)."""
        for index, (kind, value) in enumerate(self.positions):
            if kind == "range":
                return index, value  # type: ignore[return-value]
        return None

    def __repr__(self) -> str:
        def show(kind, value):
            if kind == "var":
                return "?%s" % value.name
            if kind == "range":
                return "#[%d..%d)" % value
            return "#%d" % value

        return "Scan(%s)" % (", ".join(
            show(kind, value) for kind, value in self.positions
        ))


class EmptyNode(PlanNode):
    """A scan known to be empty at planning time (a constant absent
    from the dictionary cannot match anything)."""

    def __repr__(self) -> str:
        return "Empty(arity=%d)" % self.arity


class JoinNode(PlanNode):
    """A binary join on the variables common to both inputs.

    The node names no algorithm: the executing engine chooses one, and
    the cost model prices the backend profile's.  With no common
    variables the join degenerates to a cross product (legal, costed
    accordingly)."""

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right
        left_vars = left.variable_positions()
        self.join_variables: Tuple[Variable, ...] = tuple(
            label
            for label in right.variable_positions()
            if label in left_vars
        )
        keep_right = [
            index
            for index, label in enumerate(right.columns)
            if label is None or label not in left_vars
        ]
        self.keep_right_indexes: Tuple[int, ...] = tuple(keep_right)
        columns = tuple(left.columns) + tuple(
            right.columns[index] for index in keep_right
        )
        super().__init__(columns)

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def __repr__(self) -> str:
        return "Join[on %s]" % (
            ",".join("?%s" % v.name for v in self.join_variables) or "×",
        )


class ProjectNode(PlanNode):
    """Positional projection, injecting reformulation-bound constants."""

    def __init__(self, child: PlanNode, specs: Sequence[ProjectionSpec]):
        self.child = child
        self.specs: Tuple[ProjectionSpec, ...] = tuple(specs)
        labels: List[ColumnLabel] = []
        for kind, value in self.specs:
            labels.append(value if kind == "var" else None)
        super().__init__(labels)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def __repr__(self) -> str:
        return "Project(%s)" % (", ".join(
            ("?%s" % value.name) if kind == "var" else "#%s" % (value,)
            for kind, value in self.specs
        ))


class UnionNode(PlanNode):
    """Set union of same-arity inputs (UCQ semantics: duplicates out).

    Column labels are taken positionally from the declared output
    schema, because different disjuncts may bind a position to a
    variable in one branch and a constant in another."""

    def __init__(self, children: Sequence[PlanNode], columns: Sequence[ColumnLabel]):
        if not children:
            raise ValueError("a union needs at least one input")
        arity = len(columns)
        for child in children:
            if child.arity != arity:
                raise ValueError(
                    "union arity mismatch: %d vs %d" % (arity, child.arity)
                )
        self._children = list(children)
        super().__init__(columns)

    def children(self) -> List[PlanNode]:
        return list(self._children)

    def __repr__(self) -> str:
        return "Union(<%d inputs>)" % len(self._children)


class NonLiteralFilterNode(PlanNode):
    """Drops rows binding any of ``variables`` to a literal.

    The physical form of a reformulated CQ's non-literal guard (the
    range-typing rule must not type literals); in SQL this would be a
    ``WHERE kind(col) <> 'literal'`` predicate on the dictionary.
    """

    def __init__(self, child: PlanNode, variables: Sequence[Variable]):
        self.child = child
        self.variables: Tuple[Variable, ...] = tuple(variables)
        positions = child.variable_positions()
        missing = [v for v in self.variables if v not in positions]
        if missing:
            raise ValueError(
                "guarded variables %s not in child columns" % (missing,)
            )
        super().__init__(child.columns)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def __repr__(self) -> str:
        return "NonLiteralFilter(%s)" % ", ".join(
            "?%s" % variable.name for variable in self.variables
        )


class DistinctNode(PlanNode):
    """Duplicate elimination (final answers use set semantics)."""

    def __init__(self, child: PlanNode):
        self.child = child
        super().__init__(child.columns)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def __repr__(self) -> str:
        return "Distinct"
