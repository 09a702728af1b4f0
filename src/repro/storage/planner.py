"""Compiling queries to physical plans.

The planner turns CQs, UCQs and JUCQs into plan trees over a
:class:`~repro.storage.store.TripleStore`, mimicking what the paper's
RDBMSs do with the SQL the reformulations translate to:

* **CQ** — one scan per atom; greedy cardinality-driven left-deep join
  ordering that avoids cross products while a connected choice exists;
  joins priced as the backend's algorithm; projection to the head.
* **UCQ** — the disjunct plans under a deduplicating union.
* **JUCQ** — fragment UCQ plans joined on their shared variables (in
  greedy cardinality order), projected on the query head, distinct.

The backend's parse limit is enforced *before* planning, on the total
atom count — large UCQ reformulations must fail the way they failed
the paper's engines, without first paying plan construction.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Union

from ..cost.model import annotate_node
from ..engine.ir import (
    ColumnLabel,
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    PositionSpec,
    ProjectNode,
    ProjectionSpec,
    ScanNode,
    UnionNode,
)
from ..query.algebra import (
    ConjunctiveQuery,
    HeadTerm,
    JoinOfUnions,
    TriplePattern,
    UnionQuery,
    Variable,
)
from .backends import BackendProfile, HASH_BACKEND
from .store import TripleStore

#: Any query form the planner accepts.
PlannableQuery = Union[ConjunctiveQuery, UnionQuery, JoinOfUnions]


def query_atom_total(query: PlannableQuery) -> int:
    """The parse-relevant size of a query: its total atom count."""
    if isinstance(query, ConjunctiveQuery):
        return len(query.atoms)
    if isinstance(query, UnionQuery):
        return query.atom_count()
    if isinstance(query, JoinOfUnions):
        return query.atom_count()
    raise TypeError("not a plannable query: %r" % (query,))


def scan_positions(
    atom: TriplePattern, store: TripleStore
) -> Optional[List[PositionSpec]]:
    """The physical form of a triple pattern — one ``("var", v)``,
    ``("const", id)`` or ``("range", (lo, hi))`` spec per position — or
    None when a constant is absent from the dictionary (the atom cannot
    match)."""
    from ..encoding.hierarchy import HierarchyInterval

    positions: List[PositionSpec] = []
    for term in atom.as_tuple():
        if isinstance(term, Variable):
            positions.append(("var", term))
        elif isinstance(term, HierarchyInterval):
            # The hierarchy-encoded interval atom: a half-open id
            # range predicate on this position.
            positions.append(("range", (term.lo, term.hi)))
        else:
            term_id = store.term_id(term)
            if term_id is None:
                return None
            positions.append(("const", term_id))
    return positions


def greedy_join_order(
    inputs: Sequence, rows: Callable[..., float], variables: Callable[..., Iterable]
) -> List:
    """Greedy left-deep order: start from the smallest input, then
    repeatedly add the smallest input connected to the variables seen
    so far (falling back to a cross product only when none connects).
    Ties keep input order.  Shared with the cover estimator, which
    orders estimates the way the planner orders nodes."""
    remaining = sorted(inputs, key=rows)
    ordered = [remaining.pop(0)]
    bound = set(variables(ordered[0]))
    while remaining:
        connected = [
            item for item in remaining if not bound.isdisjoint(variables(item))
        ]
        best = min(connected or remaining, key=rows)
        remaining.remove(best)
        ordered.append(best)
        bound.update(variables(best))
    return ordered


_rows = attrgetter("estimated_rows")


class Planner:
    """Builds annotated physical plans for one store + backend pair.

    With ``annotate=False`` the planner skips cost annotation and
    produces purely syntactic plans (scans in atom order, since every
    estimate ties at zero and the greedy order is stable) — the cheap
    mode the SQL lowering uses, where the target RDBMS replans anyway.
    """

    def __init__(
        self,
        store: TripleStore,
        backend: BackendProfile = HASH_BACKEND,
        annotate: bool = True,
    ):
        self.store = store
        self.backend = backend
        self.annotate = annotate

    # ------------------------------------------------------------------
    # Entry point

    def plan(self, query: PlannableQuery) -> PlanNode:
        """Plan any query form, enforcing the backend's parse limit."""
        self.backend.check_parse_limit(query_atom_total(query))
        if isinstance(query, ConjunctiveQuery):
            return self._plan_cq(query)
        if isinstance(query, UnionQuery):
            return self._plan_ucq(query, self._head_labels(query.disjuncts[0].head))
        if isinstance(query, JoinOfUnions):
            return self._plan_jucq(query)
        raise TypeError("cannot plan %r" % (query,))

    def _annotate(self, node: PlanNode) -> PlanNode:
        """Cost one newly built node; its children already are, so
        every node of a plan is annotated exactly once."""
        if not self.annotate:
            return node
        return annotate_node(
            node, self.store.statistics, self.backend, self.store.type_property_id
        )

    # ------------------------------------------------------------------
    # CQ planning

    def _scan_for_atom(self, atom: TriplePattern) -> Optional[ScanNode]:
        """The scan node for one atom, or None when a constant is
        absent from the dictionary (the atom cannot match)."""
        positions = scan_positions(atom, self.store)
        if positions is None:
            return None
        scan = ScanNode(positions)
        intervals = [
            term
            for term, (kind, _) in zip(atom.as_tuple(), positions)
            if kind == "range"
        ]
        if intervals:
            # Observability payload for explain/--show-metrics: what
            # the range stands for and how many union branches it
            # replaced.
            scan.interval_info = [
                (term.lo, term.hi, term.anchor, term.branches)
                for term in intervals
            ]
        return scan

    def _projection_specs(self, head: Sequence[HeadTerm]) -> List[ProjectionSpec]:
        specs: List[ProjectionSpec] = []
        for item in head:
            if isinstance(item, Variable):
                specs.append(("var", item))
            elif (term_id := self.store.dictionary.lookup(item)) is not None:
                specs.append(("const", term_id))
            else:
                # A head constant the data never stored: emit the term
                # itself rather than encoding it — answering a query
                # must never grow the dictionary.
                specs.append(("term", item))
        return specs

    def _head_labels(self, head: Sequence[HeadTerm]) -> List[ColumnLabel]:
        return [item if isinstance(item, Variable) else None for item in head]

    def _plan_cq(self, query: ConjunctiveQuery) -> PlanNode:
        scans: List[ScanNode] = []
        for atom in query.atoms:
            scan = self._scan_for_atom(atom)
            if scan is None:
                return self._annotate(EmptyNode(self._head_labels(query.head)))
            self._annotate(scan)
            scans.append(scan)

        ordered = greedy_join_order(scans, _rows, PlanNode.variable_positions)
        current: PlanNode = ordered[0]
        for scan in ordered[1:]:
            current = JoinNode(current, scan)
            self._annotate(current)
        if query.nonliteral_variables:
            current = NonLiteralFilterNode(
                current, sorted(query.nonliteral_variables)
            )
            self._annotate(current)
        return self._annotate(
            ProjectNode(current, self._projection_specs(query.head))
        )

    # ------------------------------------------------------------------
    # UCQ planning

    def _plan_ucq(
        self, query: UnionQuery, labels: Sequence[ColumnLabel]
    ) -> PlanNode:
        children = [self._plan_cq(disjunct) for disjunct in query.disjuncts]
        return self._annotate(UnionNode(children, labels))

    # ------------------------------------------------------------------
    # JUCQ planning

    def _plan_jucq(self, query: JoinOfUnions) -> PlanNode:
        fragment_plans: List[PlanNode] = []
        for fragment_head, union in zip(query.fragment_heads, query.fragments):
            labels = self._head_labels(fragment_head)
            fragment_plans.append(self._plan_ucq(union, labels))

        ordered = greedy_join_order(fragment_plans, _rows, PlanNode.variable_positions)
        current = ordered[0]
        for plan in ordered[1:]:
            current = JoinNode(current, plan)
            self._annotate(current)
        project = ProjectNode(current, self._projection_specs(query.head))
        self._annotate(project)
        return self._annotate(DistinctNode(project))

