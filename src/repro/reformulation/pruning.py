"""CQ containment, minimization and UCQ subsumption pruning.

Reformulation engines (MASTRO [8], the rewriting engines surveyed in
[10]) prune their UCQ outputs: a disjunct contained in another disjunct
contributes no answers and only costs evaluation time.  Containment of
conjunctive queries is the classical homomorphism test (Chandra &
Merlin): ``q1 ⊑ q2`` iff there is a homomorphism from ``q2`` into
``q1`` mapping head to head — variables of the *target* query are
frozen (treated as constants) and the *source* query's variables range
over the target's terms.

Provided here:

* :func:`find_homomorphism` / :func:`is_contained` — the test itself;
* :func:`prune_subsumed` — drop UCQ disjuncts contained in another
  disjunct; quadratic in the number of disjuncts, so intended for the
  moderate unions where evaluation savings repay the pruning cost
  (the ablation benchmark A2 measures both sides);
* :func:`minimize_under_schema` — drop query atoms another atom of the
  same query entails under the schema, *before* reformulating: the
  answerer's first step for every strategy it rewrites or saturates.

Non-literal guards are honoured conservatively: a guarded disjunct may
reject rows its unguarded image would return, so a disjunct is only
pruned when the containing disjunct's guards map onto guarded
variables (or non-literal constants) of the pruned one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..query.algebra import (
    ConjunctiveQuery,
    PatternTerm,
    TriplePattern,
    UnionQuery,
    Variable,
)
from ..rdf.namespaces import RDF_TYPE, SCHEMA_PROPERTIES
from ..rdf.terms import Literal
from ..schema.schema import Schema
from .policy import COMPLETE, ReformulationPolicy

#: A homomorphism: source variables → target pattern terms.
Homomorphism = Dict[Variable, PatternTerm]


def _extend(
    mapping: Homomorphism,
    source_term: PatternTerm,
    target_term: PatternTerm,
) -> Optional[Homomorphism]:
    """Extend *mapping* so source_term ↦ target_term, or None."""
    if isinstance(source_term, Variable):
        bound = mapping.get(source_term)
        if bound is None:
            extended = dict(mapping)
            extended[source_term] = target_term
            return extended
        return mapping if bound == target_term else None
    # Constants must match exactly (target variables are frozen).
    return mapping if source_term == target_term else None


def find_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[Homomorphism]:
    """A homomorphism from *source* into *target* (head to head), or
    None.  Target variables are frozen constants; source variables map
    to arbitrary target terms."""
    if source.arity != target.arity:
        return None
    mapping: Optional[Homomorphism] = {}
    for source_item, target_item in zip(source.head, target.head):
        mapping = _extend(mapping, source_item, target_item)
        if mapping is None:
            return None

    atoms = list(source.atoms)

    def search(index: int, current: Homomorphism) -> Optional[Homomorphism]:
        if index == len(atoms):
            return current
        atom = atoms[index]
        for candidate in target.atoms:
            step: Optional[Homomorphism] = current
            for source_term, target_term in zip(
                atom.as_tuple(), candidate.as_tuple()
            ):
                step = _extend(step, source_term, target_term)
                if step is None:
                    break
            if step is not None:
                result = search(index + 1, step)
                if result is not None:
                    return result
        return None

    return search(0, mapping)


def _guards_preserved(
    container: ConjunctiveQuery,
    contained: ConjunctiveQuery,
    homomorphism: Homomorphism,
) -> bool:
    """True when every guard of *container* lands on something the
    *contained* query already guarantees non-literal."""
    for guarded in container.nonliteral_variables:
        image = homomorphism.get(guarded, guarded)
        if isinstance(image, Variable):
            if image not in contained.nonliteral_variables:
                return False
        elif isinstance(image, Literal):
            return False
    return True


def is_contained(
    contained: ConjunctiveQuery, container: ConjunctiveQuery
) -> bool:
    """``contained ⊑ container``: every answer of *contained* (over any
    graph) is an answer of *container*."""
    if contained.nonliteral_variables:
        # A guard only removes answers, so it cannot break containment
        # of the guarded query in anything.
        pass
    homomorphism = find_homomorphism(container, contained)
    if homomorphism is None:
        return False
    return _guards_preserved(container, contained, homomorphism)


def prune_subsumed(union: UnionQuery) -> UnionQuery:
    """Drop disjuncts contained in another disjunct.

    Keeps the first of two mutually-contained (equivalent) disjuncts.
    The result answers identically on every graph (property-tested).
    """
    disjuncts: List[ConjunctiveQuery] = list(union.disjuncts)
    kept: List[ConjunctiveQuery] = []
    removed: Set[int] = set()
    for index, candidate in enumerate(disjuncts):
        subsumed = False
        for other_index, other in enumerate(disjuncts):
            if other_index == index or other_index in removed:
                continue
            if is_contained(candidate, other):
                if is_contained(other, candidate) and other_index > index:
                    # Equivalent pair: keep the earlier one (this one).
                    continue
                subsumed = True
                break
        if subsumed:
            removed.add(index)
        else:
            kept.append(candidate)
    return UnionQuery(kept)


def _implied_guard(
    kept: TriplePattern, dropped: TriplePattern, schema: Schema, policy: ReformulationPolicy
) -> Optional[Tuple[Variable, ...]]:
    """The non-literal guard dropping *dropped* needs when *kept* entails
    it by a rule family *policy* enables — ``()``, or ``(s,)`` for a
    range drop on a variable ``s`` — or None when *kept* does not."""
    subject, prop, klass = dropped.as_tuple()
    kept_subject, kept_prop, kept_object = kept.as_tuple()
    if isinstance(prop, Variable) or prop in SCHEMA_PROPERTIES or isinstance(kept_prop, Variable):
        return None
    if prop != RDF_TYPE:
        implied = policy.subproperty and (kept_subject, kept_object) == (subject, klass)
        return () if implied and prop in schema.superproperties(kept_prop) else None
    if isinstance(klass, Variable):
        return None
    if kept_prop == RDF_TYPE:
        implied = policy.subclass and kept_subject == subject
        return () if implied and klass in schema.superclasses(kept_object) else None
    # Schema.domains()/ranges() are inherited through superproperties and
    # widened through superclasses: only the complete rule set matches them.
    if not (policy.subclass and policy.subproperty and policy.domain_range):
        return None
    if kept_subject == subject and klass in schema.domains(kept_prop):
        return ()
    if kept_object != subject or isinstance(subject, Literal):
        return None  # a range never types a literal
    if klass in schema.ranges(kept_prop):
        return (subject,) if isinstance(subject, Variable) else ()
    return None


def minimize_under_schema(
    query: ConjunctiveQuery, schema: Schema, policy: ReformulationPolicy = COMPLETE
) -> Tuple[ConjunctiveQuery, Tuple[int, ...]]:
    """*query* without the atoms another of its atoms entails under
    *schema*, and the dropped atoms' indices in *query*.

    An atom drops when a remaining atom entails it by a rule family
    *policy* enables: subclass (``s τ c'`` ⊨ ``s τ c``), subproperty
    (``s p' o`` ⊨ ``s p o``) or, complete policies only, domain
    (``s p o`` ⊨ ``s τ c``) and range (``o p s`` ⊨ ``s τ c``; a variable
    ``s`` is then guarded non-literal).  The answers stay the same, under
    *policy*'s reformulation and under saturation.  Atoms with a variable
    or RDFS-vocabulary property, or a variable class, never drop.  One
    atom drops per scan, in query order: mutually entailing atoms keep
    one, whatever the hash order.

    >>> from repro.rdf import Namespace
    >>> from repro.schema import Constraint
    >>> EX = Namespace("http://e/")
    >>> x, y = Variable("x"), Variable("y")
    >>> query = ConjunctiveQuery(
    ...     [x], [TriplePattern(x, RDF_TYPE, EX.C), TriplePattern(x, EX.p, y)])
    >>> minimize_under_schema(query, Schema([Constraint.domain(EX.p, EX.C)]))
    (q(?x) :- (?x p ?y), (0,))
    """
    positions = list(range(len(query.atoms)))
    dropped: List[int] = []
    while True:
        atoms = query.atoms
        for index, atom in enumerate(atoms):
            rest = atoms[:index] + atoms[index + 1:]
            implied = (_implied_guard(other, atom, schema, policy) for other in rest)
            guards = [guard for guard in implied if guard is not None]
            if not guards:
                continue
            # An unguarded entailment, when there is one, wins.
            guard = query.nonliteral_variables.union(min(guards, key=len))
            try:
                query = ConjunctiveQuery(query.head, rest, guard)
            except ValueError:
                continue  # dropping the atom orphans a head/guard variable
            dropped.append(positions.pop(index))
            break
        else:
            return query, tuple(sorted(dropped))
