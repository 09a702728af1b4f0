"""CQ-to-UCQ reformulation: the classical Ref strategy.

Combines the per-atom alternatives of :mod:`repro.reformulation.atoms`
into full rewritings: a disjunct is one choice of alternative per atom,
with all imposed variable bindings merged (choices binding the same
variable to different constants are incompatible and dropped).  The
number of disjuncts is the *product* of the per-atom alternative counts
when no variable is bound by two different atoms — which is how
Example 1's query reaches ``564 × 564 × 1 × 1 × 1 × 1 = 318,096`` CQs
on the LUBM schema.

Because materializing such unions is exactly the failure mode the paper
demonstrates, the module exposes:

* :func:`ucq_size` — the disjunct count *without* materialization;
* :func:`iterate_reformulations` — a lazy disjunct generator;
* :func:`reformulate` — materialization guarded by ``max_disjuncts``,
  raising :class:`ReformulationTooLarge` beyond it (the library-level
  analogue of "this huge query could not even be parsed").
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..query.algebra import (
    ConjunctiveQuery,
    Substitution,
    TriplePattern,
    UnionQuery,
    Variable,
)
from ..rdf.terms import Literal
from ..schema.schema import Schema
from .atoms import Alternative, reformulate_atom
from .policy import COMPLETE, ReformulationPolicy


class ReformulationTooLarge(RuntimeError):
    """The UCQ reformulation exceeds the allowed size.

    Mirrors the paper's observation that the 318,096-CQ reformulation
    "could not even be parsed" by the RDBMSs.
    """

    def __init__(self, size: int, limit: int):
        super().__init__(
            "UCQ reformulation has %d disjuncts, exceeding the limit of %d"
            % (size, limit)
        )
        self.size = size
        self.limit = limit


def merge_choices(
    choices: Sequence[Alternative],
) -> Optional[Tuple[Substitution, FrozenSet[Variable]]]:
    """Merge one choice of alternative per atom into a (substitution,
    remaining non-literal guard) pair; None when the choice set is
    inconsistent — two atoms binding a shared variable differently, or
    a guarded variable bound to a literal."""
    merged: Substitution = {}
    guards: set = set()
    for choice in choices:
        for variable, value in choice.substitution.items():
            bound = merged.get(variable)
            if bound is None:
                merged[variable] = value
            elif bound != value:
                return None
        guards.update(choice.nonliteral)
    remaining: set = set()
    for variable in guards:
        bound = merged.get(variable)
        if bound is None:
            remaining.add(variable)
        elif isinstance(bound, Literal):
            return None
    return merged, frozenset(remaining)


def _build_disjunct(
    query: ConjunctiveQuery, choices: Sequence[Alternative]
) -> Optional[ConjunctiveQuery]:
    merged = merge_choices(choices)
    if merged is None:
        return None
    substitution, guard = merged
    atoms: List[TriplePattern] = [
        choice.atom.substitute(substitution) for choice in choices
    ]
    # The query's own guard (minimize_under_schema's) rides along, less
    # the variables bound (to schema URIs: that discharges the guard).
    head = [substitution.get(item, item) for item in query.head]
    own = query.nonliteral_variables.difference(substitution)
    return ConjunctiveQuery(head, atoms, guard | own)


def atom_alternatives(
    query: ConjunctiveQuery,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> List[List[Alternative]]:
    """The per-atom alternative lists for *query* (identity first).

    ``encoding`` (opt-in hierarchy encoding) collapses covered
    subclass/subproperty enumerations into single interval atoms."""
    return [
        reformulate_atom(atom, schema, policy, encoding)
        for atom in query.atoms
    ]


def _interaction_sets(
    alternatives: Sequence[Sequence[Alternative]],
) -> Tuple[List[Set[Variable]], List[Set[Variable]]]:
    """Per atom: the variables its alternatives bind, and the
    variables they guard as non-literal."""
    bound = [
        {
            variable
            for choice in atom_choices
            for variable in choice.substitution
        }
        for atom_choices in alternatives
    ]
    guarded = [
        {
            variable
            for choice in atom_choices
            for variable in choice.nonliteral
        }
        for atom_choices in alternatives
    ]
    return bound, guarded


def ucq_size(
    query: ConjunctiveQuery,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> int:
    """The exact number of disjuncts of the UCQ reformulation, computed
    without materializing it.

    When no variable bound by one atom's alternatives is bound or
    guarded by another atom's, choices cannot interact, so the count
    is the plain product of per-atom counts (each atom's own choices
    are internally consistent by construction).  Otherwise compatible
    combinations are counted by enumerating choice tuples without ever
    building a CQ.
    """
    alternatives = atom_alternatives(query, schema, policy, encoding)
    bound, guarded = _interaction_sets(alternatives)
    independent = True
    for first in range(len(alternatives)):
        for second in range(len(alternatives)):
            if first == second:
                continue
            if bound[first] & (bound[second] | guarded[second]):
                independent = False
                break
        if not independent:
            break
    if independent:
        product = 1
        for atom_choices in alternatives:
            product *= len(atom_choices)
        return product
    count = 0
    for choices in itertools.product(*alternatives):
        if merge_choices(choices) is not None:
            count += 1
    return count


def iterate_reformulations(
    query: ConjunctiveQuery,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> Iterator[ConjunctiveQuery]:
    """Lazily yield every disjunct of the UCQ reformulation."""
    alternatives = atom_alternatives(query, schema, policy, encoding)
    for choices in itertools.product(*alternatives):
        disjunct = _build_disjunct(query, choices)
        if disjunct is not None:
            yield disjunct


def reformulate(
    query: ConjunctiveQuery,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    max_disjuncts: Optional[int] = None,
    encoding=None,
) -> UnionQuery:
    """The UCQ reformulation ``q_ref`` with ``q(db∞) = q_ref(db)``.

    ``max_disjuncts`` guards materialization: when the (cheaply
    pre-computed) size exceeds it, :class:`ReformulationTooLarge` is
    raised instead of building the union.  ``encoding`` (opt-in) emits
    interval atoms for hierarchy-covered nodes, shrinking both the
    disjunct count and the per-disjunct work.
    """
    if max_disjuncts is not None:
        size = ucq_size(query, schema, policy, encoding)
        if size > max_disjuncts:
            raise ReformulationTooLarge(size, max_disjuncts)
    return UnionQuery(list(iterate_reformulations(query, schema, policy, encoding)))
