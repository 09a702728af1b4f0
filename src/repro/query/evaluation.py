"""Reference evaluator: queries against a logical :class:`Graph`.

This is the *specification* evaluator: straightforward backtracking
over the graph's hash indexes, used by the test-suite (the Ref/Sat
equivalence properties) and by small examples.  Benchmark-scale
evaluation goes through the dictionary-encoded relational engine in
:mod:`repro.storage`, which must produce identical answers — a fact
the integration tests check against this module.

Evaluation (over explicit triples only) is distinguished from query
*answering* (which accounts for entailment); see the paper, Section 3.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..rdf.graph import Graph
from ..rdf.terms import Term
from ..rdf.triples import Triple
from .algebra import (
    ConjunctiveQuery,
    HeadTerm,
    JoinOfUnions,
    Substitution,
    TriplePattern,
    UnionQuery,
    Variable,
)

#: An answer is a set of rows; a row is a tuple of terms.
Row = Tuple[Term, ...]
Answer = FrozenSet[Row]


def _candidate_triples(
    graph: Graph, atom: TriplePattern, binding: Substitution
) -> Iterator[Triple]:
    """Triples possibly matching *atom* under *binding*, via the most
    selective index available."""
    def resolve(term):
        if isinstance(term, Variable):
            return binding.get(term)
        return term

    return graph.match(
        subject=resolve(atom.subject),
        property=resolve(atom.property),
        object=resolve(atom.object),
    )


def _order_atoms(atoms: Sequence[TriplePattern]) -> List[TriplePattern]:
    """Greedy join order: repeatedly pick the atom with the most
    positions bound by constants or already-chosen variables."""
    remaining = list(atoms)
    bound: Set[Variable] = set()
    ordered: List[TriplePattern] = []
    while remaining:
        def boundness(atom: TriplePattern) -> int:
            score = 0
            for term in atom.as_tuple():
                if not isinstance(term, Variable) or term in bound:
                    score += 1
            return score

        best = max(remaining, key=boundness)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables())
    return ordered


def _solutions(
    graph: Graph, atoms: Sequence[TriplePattern]
) -> Iterator[Substitution]:
    """Yield every substitution making all *atoms* hold in *graph*."""
    ordered = _order_atoms(atoms)

    def extend(index: int, binding: Substitution) -> Iterator[Substitution]:
        if index == len(ordered):
            yield dict(binding)
            return
        atom = ordered[index]
        for triple in _candidate_triples(graph, atom, binding):
            local = atom.substitute(binding).matches(triple)
            if local is None:
                continue
            merged = dict(binding)
            merged.update(local)
            yield from extend(index + 1, merged)

    yield from extend(0, {})


def _project(head: Sequence[HeadTerm], binding: Substitution) -> Row:
    row: List[Term] = []
    for item in head:
        if isinstance(item, Variable):
            row.append(binding[item])
        else:
            row.append(item)
    return tuple(row)


def evaluate_cq(graph: Graph, query: ConjunctiveQuery, budget=None) -> Answer:
    """Evaluate a CQ against the explicit triples of *graph*.

    Returns the set of head rows (set semantics, as in the paper).
    A boolean query returns ``{()}`` when satisfied, ``{}`` otherwise.
    Solutions binding a guarded (``nonliteral_variables``) variable to
    a literal are discarded.  ``budget`` (opt-in) probes row/time
    limits every ``CHECK_INTERVAL`` solutions and charges the final
    answer size.
    """
    from ..rdf.terms import Literal

    guard = query.nonliteral_variables
    rows: Set[Row] = set()
    if budget is not None:
        from ..resilience.budget import CHECK_INTERVAL

        produced = 0
    for binding in _solutions(graph, query.atoms):
        if budget is not None:
            produced += 1
            if produced % CHECK_INTERVAL == 0:
                budget.probe_rows(len(rows) + 1, operator="backtracking scan")
                budget.check_time(operator="backtracking scan")
        if guard and any(
            isinstance(binding.get(variable), Literal) for variable in guard
        ):
            continue
        rows.add(_project(query.head, binding))
    if budget is not None:
        budget.charge_rows(len(rows), operator="backtracking scan")
    return frozenset(rows)


def evaluate_ucq(graph: Graph, query: UnionQuery, budget=None) -> Answer:
    """Evaluate a UCQ: the union of its disjuncts' answers.

    ``budget`` is threaded into each disjunct's evaluation (probed
    mid-backtracking, charged per disjunct answer), so a UCQ respects
    row/time budgets exactly as its component CQs do.
    """
    rows: Set[Row] = set()
    for disjunct in query.disjuncts:
        rows.update(evaluate_cq(graph, disjunct, budget=budget))
    return frozenset(rows)


def _variable_positions(schema: Sequence[HeadTerm]) -> Dict[Variable, int]:
    """First column index of each variable of a relation schema."""
    positions: Dict[Variable, int] = {}
    for index, item in enumerate(schema):
        if isinstance(item, Variable) and item not in positions:
            positions[item] = index
    return positions


def join_relations(
    left_schema: Sequence[HeadTerm],
    left_rows: Iterable[Row],
    right_schema: Sequence[HeadTerm],
    right_rows: Iterable[Row],
    budget=None,
) -> Tuple[Tuple[HeadTerm, ...], Set[Row]]:
    """Hash-join two in-memory relations on their shared variables.

    The join the reference evaluator's JUCQ combination and the
    federation client's local joins share — deliberately independent
    of every execution engine, so the evaluator stays usable as their
    test oracle.  A relation's schema is its fragment head: variables
    name columns (repeats allowed, the first occurrence joins),
    constants are payload.  The output schema is the left schema
    followed by the right columns whose variables are not already
    present on the left; with no shared variable the join is a cross
    product.

    ``budget`` meters the join's *output* every ``CHECK_INTERVAL`` rows
    (the inputs were charged by whoever materialized them), so a
    Cartesian blowup raises
    :class:`~repro.resilience.errors.BudgetExceeded` instead of
    materializing.
    """
    from ..resilience.budget import CHECK_INTERVAL

    left_positions = _variable_positions(left_schema)
    right_positions = _variable_positions(right_schema)
    shared = [v for v in right_positions if v in left_positions]
    left_key = [left_positions[v] for v in shared]
    right_key = [right_positions[v] for v in shared]
    keep = [
        index
        for index, item in enumerate(right_schema)
        if not isinstance(item, Variable) or item not in left_positions
    ]

    table: Dict[Row, List[Row]] = {}
    for right in right_rows:
        table.setdefault(tuple(right[i] for i in right_key), []).append(
            tuple(right[i] for i in keep)
        )
    output: Set[Row] = set()
    uncharged = 0
    for left in left_rows:
        for kept in table.get(tuple(left[i] for i in left_key), ()):
            output.add(left + kept)
            uncharged += 1
            if budget is not None and uncharged == CHECK_INTERVAL:
                budget.charge_rows(uncharged, operator="join")
                uncharged = 0
    if budget is not None:
        budget.charge_rows(uncharged, operator="join")
    output_schema = tuple(left_schema) + tuple(right_schema[i] for i in keep)
    return output_schema, output


def evaluate_jucq(graph: Graph, query: JoinOfUnions, budget=None) -> Answer:
    """Evaluate a JUCQ: fragment UCQs joined on shared variables, then
    projected on the query head.

    ``budget`` bounds the whole evaluation: it is threaded into each
    fragment's UCQ evaluation (which charges the fragment rows as they
    materialize) and meters the join outputs (:func:`join_relations`),
    so a Cartesian blowup raises
    :class:`~repro.resilience.errors.BudgetExceeded` before
    materializing.
    """
    schema: Optional[Tuple[HeadTerm, ...]] = None
    rows: Set[Row] = set()
    for fragment_head, union in zip(query.fragment_heads, query.fragments):
        fragment_rows = set(evaluate_ucq(graph, union, budget=budget))
        if schema is None:
            schema, rows = tuple(fragment_head), fragment_rows
        else:
            schema, rows = join_relations(
                schema, rows, tuple(fragment_head), fragment_rows, budget=budget
            )
        if not rows:
            return frozenset()

    positions = _variable_positions(schema)
    projected: Set[Row] = set()
    for row in rows:
        out: List[Term] = []
        for item in query.head:
            if isinstance(item, Variable):
                out.append(row[positions[item]])
            else:
                out.append(item)
        projected.add(tuple(out))
    return frozenset(projected)


def evaluate(graph: Graph, query, budget=None) -> Answer:
    """Evaluate any of the three query forms against *graph*.

    ``budget`` (an :class:`~repro.resilience.budget.ExecutionBudget`)
    is honored uniformly across all three forms.
    """
    if isinstance(query, ConjunctiveQuery):
        return evaluate_cq(graph, query, budget=budget)
    if isinstance(query, UnionQuery):
        return evaluate_ucq(graph, query, budget=budget)
    if isinstance(query, JoinOfUnions):
        return evaluate_jucq(graph, query, budget=budget)
    raise TypeError("cannot evaluate %r" % (query,))
