"""Encoding RDF data, constraints and queries into Datalog (Dat).

The translation the demo runs on LogicBlox:

* every triple ``s p o`` of the graph becomes the fact
  ``triple(s, p, o)`` (queries match explicit triples of any kind);
* every *admissible* constraint additionally populates a dedicated
  predicate — ``sc``, ``sp``, ``dom``, ``rng`` — which is what the
  entailment rules read; inadmissible (meta-level) constraints thus
  remain visible to queries but fire no rules, exactly as in the
  saturation and reformulation engines;
* the immediate entailment rules of the DB fragment become Datalog
  rules, concluding both into the dedicated predicates (for
  schema-level chaining) and into ``triple`` (entailed constraints are
  part of ``G∞`` and must be query-visible);
* a CQ ``q(x̄) :- t1, …, tα`` becomes a rule deriving ``answer(x̄)``.

Evaluating the program bottom-up saturates the data *and* answers the
query in one fixpoint — an alternative to both Sat (no stored
saturation) and Ref (no reformulated SQL).

Literals cannot be triple subjects, so the range-typing rule guards its
conclusion with the ``subjectable`` EDB predicate (URIs and blank nodes
only), matching the other engines' treatment exactly.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set, Tuple

from ..query.algebra import ConjunctiveQuery, Variable
from ..rdf.namespaces import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from ..rdf.terms import BlankNode, Term, URI
from ..rdf.triples import Triple
from ..schema.constraints import ConstraintKind, is_admissible_constraint
from ..schema.schema import Schema
from .engine import evaluate_program
from .terms import DatalogAtom, DatalogProgram, DatalogRule, DVar

TRIPLE = "triple"
SUBCLASS = "sc"
SUBPROPERTY = "sp"
DOMAIN = "dom"
RANGE = "rng"
SUBJECTABLE = "subjectable"
ANSWER = "answer"

_KIND_TO_PREDICATE = {
    ConstraintKind.SUBCLASS: SUBCLASS,
    ConstraintKind.SUBPROPERTY: SUBPROPERTY,
    ConstraintKind.DOMAIN: DOMAIN,
    ConstraintKind.RANGE: RANGE,
}


def entailment_rules() -> Tuple[DatalogRule, ...]:
    """The DB fragment's immediate entailment rules as Datalog."""
    s, o = DVar("s"), DVar("o")
    c1, c2, c3 = DVar("c1"), DVar("c2"), DVar("c3")
    p1, p2, p3 = DVar("p1"), DVar("p2"), DVar("p3")

    def t(*args) -> DatalogAtom:
        return DatalogAtom(TRIPLE, args)

    def a(predicate: str, *args) -> DatalogAtom:
        return DatalogAtom(predicate, args)

    return (
        # Schema-level closure over the dedicated predicates.
        DatalogRule(a(SUBCLASS, c1, c3), [a(SUBCLASS, c1, c2), a(SUBCLASS, c2, c3)]),
        DatalogRule(a(SUBPROPERTY, p1, p3),
                    [a(SUBPROPERTY, p1, p2), a(SUBPROPERTY, p2, p3)]),
        DatalogRule(a(DOMAIN, p1, c1), [a(SUBPROPERTY, p1, p2), a(DOMAIN, p2, c1)]),
        DatalogRule(a(RANGE, p1, c1), [a(SUBPROPERTY, p1, p2), a(RANGE, p2, c1)]),
        DatalogRule(a(DOMAIN, p1, c2), [a(DOMAIN, p1, c1), a(SUBCLASS, c1, c2)]),
        DatalogRule(a(RANGE, p1, c2), [a(RANGE, p1, c1), a(SUBCLASS, c1, c2)]),
        # Entailed constraints are query-visible triples.
        DatalogRule(t(c1, RDFS_SUBCLASSOF, c2), [a(SUBCLASS, c1, c2)]),
        DatalogRule(t(p1, RDFS_SUBPROPERTYOF, p2), [a(SUBPROPERTY, p1, p2)]),
        DatalogRule(t(p1, RDFS_DOMAIN, c1), [a(DOMAIN, p1, c1)]),
        DatalogRule(t(p1, RDFS_RANGE, c1), [a(RANGE, p1, c1)]),
        # Instance-level rules.  The left argument of an admissible
        # sc/sp/dom/rng fact is never a built-in, so triple(s, p1, o)
        # joined through p1 only ever matches data triples.
        DatalogRule(t(s, RDF_TYPE, c2), [t(s, RDF_TYPE, c1), a(SUBCLASS, c1, c2)]),
        DatalogRule(t(s, p2, o), [t(s, p1, o), a(SUBPROPERTY, p1, p2)]),
        DatalogRule(t(s, RDF_TYPE, c1), [t(s, p1, o), a(DOMAIN, p1, c1)]),
        DatalogRule(t(o, RDF_TYPE, c1),
                    [t(s, p1, o), a(RANGE, p1, c1), a(SUBJECTABLE, o)]),
    )


def encode(
    graph: Iterable[Triple],
    schema: Schema,
    query: ConjunctiveQuery,
) -> DatalogProgram:
    """Build the full Dat program for answering *query* over *graph*
    (a :class:`~repro.rdf.graph.Graph` or any iterable of triples)
    under the constraints of *schema* (merged with those in the graph).
    """
    program = DatalogProgram()
    subjectable: Set[Term] = set()

    def note_subjectable(term: Term) -> None:
        if isinstance(term, (URI, BlankNode)) and term not in subjectable:
            subjectable.add(term)
            program.add_fact(SUBJECTABLE, (term,))

    def add_constraint_fact(triple) -> None:
        if is_admissible_constraint(triple):
            from ..schema.constraints import Constraint

            constraint = Constraint.from_triple(triple)
            program.add_fact(
                _KIND_TO_PREDICATE[constraint.kind],
                (constraint.left, constraint.right),
            )

    seen_triples = set()
    for triple in graph:
        seen_triples.add(triple)
        program.add_fact(TRIPLE, triple.as_tuple())
        note_subjectable(triple.subject)
        note_subjectable(triple.object)
        if triple.is_schema_triple():
            add_constraint_fact(triple)
    for constraint in schema.direct_constraints():
        triple = constraint.to_triple()
        if triple not in seen_triples:
            program.add_fact(TRIPLE, triple.as_tuple())
            note_subjectable(triple.subject)
            note_subjectable(triple.object)
            add_constraint_fact(triple)

    for rule in entailment_rules():
        program.add_rule(rule)

    head_args = []
    for item in query.head:
        if isinstance(item, Variable):
            head_args.append(DVar(item.name))
        else:
            head_args.append(item)
    body = []
    for atom in query.atoms:
        args = [
            DVar(term.name) if isinstance(term, Variable) else term
            for term in atom.as_tuple()
        ]
        body.append(DatalogAtom(TRIPLE, args))
    for variable in sorted(query.nonliteral_variables):
        body.append(DatalogAtom(SUBJECTABLE, [DVar(variable.name)]))
    program.add_rule(DatalogRule(DatalogAtom(ANSWER, head_args), body))
    return program


def answer_query(
    graph: Iterable[Triple],
    schema: Schema,
    query: ConjunctiveQuery,
) -> FrozenSet[Tuple[Term, ...]]:
    """The Dat technique end to end: encode, evaluate, read ``answer``.

    Matches ``q(G∞)`` — the property tests check it against both Sat
    and Ref.
    """
    result = evaluate_program(encode(graph, schema, query))
    return frozenset(result.facts(ANSWER))
