"""Per-atom reformulation: the backward-chaining rules of [9].

The CQ-to-UCQ algorithm of the paper's reference [9] exhaustively
applies 13 reformulation rules to the query atoms, consulting the
schema constraints backward: an atom is replaced by every atom whose
entailed consequences include it.  Working against the *closed* schema
(:class:`repro.schema.Schema` maintains inherited and widened
domain/range constraints and transitive hierarchies), one rule
application per atom is complete — the closure has pre-chained the
rules — which is how this module can return, per atom, the finite set
of *alternatives* whose union is equivalent to the atom under RDFS
entailment.

An alternative is a pair ``(atom, substitution)``: the replacement
triple pattern plus the bindings it imposes on the original atom's
variables (reformulating ``x rdf:type u`` binds the class variable
``u`` to a concrete schema class in every non-identity alternative —
the source of Example 1's 564-way unfoldings).

**Database contract.**  Reformulated queries are evaluated over the
stored graph, which must contain the explicit data triples *plus the
closed schema* (``Schema.entailed_triples()`` — a negligible number of
triples; :func:`database_graph` builds such a graph).  Under this
contract atoms over the RDFS vocabulary are answered by their identity
alternative alone, and no reformulation rule ever needs to chase
constraint chains at query time.  This mirrors [9], where the schema
component is kept closed at all times.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from ..rdf.namespaces import RDF_TYPE, SCHEMA_PROPERTIES
from ..rdf.terms import Term
from ..schema.schema import Schema
from ..query.algebra import (
    PatternTerm,
    Substitution,
    TriplePattern,
    Variable,
    fresh_variable,
)
from .policy import COMPLETE, ReformulationPolicy

class Alternative(NamedTuple):
    """One way an atom can be satisfied.

    ``atom`` — the replacement triple pattern;
    ``substitution`` — bindings imposed on the original atom's
    variables (class/property variables instantiated from the schema);
    ``nonliteral`` — variables that must bind to URIs or blank nodes
    for the alternative to be sound.  The range-typing unfolding of a
    type atom ``(s, τ, c)`` into ``(fresh, p, s)`` carries this guard:
    a triple object *can* be a literal, but a literal is never typed
    (it cannot be a subject), so matching a literal there would
    overshoot the entailment.
    """

    atom: TriplePattern
    substitution: Substitution
    nonliteral: Tuple[Variable, ...] = ()


def database_graph(data, schema: Schema):
    """Build the graph Ref strategies evaluate over: the data triples
    plus the closed schema (see module doc's database contract)."""
    from ..rdf.graph import Graph

    graph = data.copy() if isinstance(data, Graph) else Graph(data)
    graph.add_all(schema.entailed_triples())
    return graph


def _type_subproperties(schema: Schema) -> List[Term]:
    """Properties declared ``rdfs:subPropertyOf rdf:type`` (transitively):
    their triples entail type triples."""
    return sorted(schema.subproperties(RDF_TYPE))


def _type_alternatives_for_class(
    subject: PatternTerm,
    klass: Term,
    schema: Schema,
    policy: ReformulationPolicy,
    encoding=None,
) -> List[Tuple[TriplePattern, Tuple[Variable, ...]]]:
    """Every *proper* (non-identity) way ``subject rdf:type klass`` can
    be entailed, as (replacement atom, non-literal guard) pairs.

    * type propagation:  ``(s, τ, c')`` for each ``c' ⊏ klass``;
    * domain typing:     ``(s, p, fresh)`` for each ``p`` whose entailed
      domains include *klass*;
    * range typing:      ``(fresh, p, s)`` for ranges, symmetrically —
      guarded: the matched object must not be a literal (literals are
      never typed), so a variable subject carries the guard and a
      literal-constant subject kills the alternative outright;
    * τ-subproperties:   ``(s, q, c)`` for each ``q ⊑ rdf:type`` and
      each ``c ∈ {klass} ∪ subclasses(klass)``.

    With a :class:`~repro.encoding.HierarchyEncoding` that covers
    *klass*, the subclass enumeration collapses: the ids of
    ``{klass} ∪ subclasses(klass)`` form one contiguous interval, so a
    single ``(s, τ, [lo, hi))`` atom (and one per τ-subproperty)
    replaces the per-subclass branches.  Only valid when the policy
    includes subclass reasoning — the interval *is* the subtree.
    """
    from ..rdf.terms import Literal

    alternatives: List[Tuple[TriplePattern, Tuple[Variable, ...]]] = []
    subclasses = (
        sorted(schema.subclasses(klass))
        if policy.subclass
        else []
    )
    interval = (
        encoding.type_interval(klass)
        if encoding is not None and policy.subclass
        else None
    )
    if interval is not None:
        # The caller's identity alternative already matches *klass*
        # itself, so the emitted interval covers the strict subtree
        # only — same shape as the classic enumeration below.
        strict = interval.strict()
        if strict is not None:
            alternatives.append(
                (TriplePattern(subject, RDF_TYPE, strict), ())
            )
    else:
        for sub in subclasses:
            alternatives.append((TriplePattern(subject, RDF_TYPE, sub), ()))
    if policy.domain_range:
        for prop in sorted(schema.properties_with_domain(klass)):
            alternatives.append(
                (TriplePattern(subject, prop, fresh_variable("d")), ())
            )
        if not isinstance(subject, Literal):
            guard = (subject,) if isinstance(subject, Variable) else ()
            for prop in sorted(schema.properties_with_range(klass)):
                alternatives.append(
                    (TriplePattern(fresh_variable("r"), prop, subject), guard)
                )
    if policy.subproperty:
        for type_sub in _type_subproperties(schema):
            if interval is not None:
                alternatives.append(
                    (TriplePattern(subject, type_sub, interval), ())
                )
            else:
                alternatives.append(
                    (TriplePattern(subject, type_sub, klass), ())
                )
                for sub in subclasses:
                    alternatives.append(
                        (TriplePattern(subject, type_sub, sub), ())
                    )
    return alternatives


def _reformulate_type_atom(
    atom: TriplePattern, schema: Schema, policy: ReformulationPolicy,
    encoding=None,
) -> List[Alternative]:
    """Non-identity alternatives for a ``(s, rdf:type, o)`` atom,
    handling both constant and variable class positions."""
    alternatives: List[Alternative] = []
    subject, _, klass = atom.as_tuple()
    if isinstance(klass, Variable):
        if not policy.open_variables:
            return alternatives
        # Bind the class variable to every schema class that has proper
        # derivations; explicit type triples are matched by the identity
        # alternative of the caller.  When subject and class position
        # share one variable (``(a, τ, a)``) the binding applies to the
        # subject too — resolve it here so the literal/guard logic sees
        # the effective subject.
        for candidate in sorted(schema.classes()):
            effective_subject = candidate if subject == klass else subject
            for replacement, guard in _type_alternatives_for_class(
                effective_subject, candidate, schema, policy, encoding
            ):
                alternatives.append(
                    Alternative(replacement, {klass: candidate}, guard)
                )
        if policy.subproperty:
            # A ``q ⊑ rdf:type`` triple types its subject with whatever
            # its object is, a schema class or not: one unbound
            # alternative per such q.
            for type_sub in _type_subproperties(schema):
                alternatives.append(
                    Alternative(TriplePattern(subject, type_sub, klass), {})
                )
    else:
        for replacement, guard in _type_alternatives_for_class(
            subject, klass, schema, policy, encoding
        ):
            alternatives.append(Alternative(replacement, {}, guard))
    return alternatives


def _reformulate_open_property_atom(
    atom: TriplePattern, schema: Schema, policy: ReformulationPolicy,
    encoding=None,
) -> List[Alternative]:
    """Non-identity alternatives for ``(s, v, o)`` with a property
    variable: data-property subsumption and ``rdf:type`` unfoldings,
    each binding ``v``.  Entailed schema constraints need no
    alternative — the stored closed schema makes the identity atom
    match them directly."""
    alternatives: List[Alternative] = []
    if not policy.open_variables:
        return alternatives
    subject, prop_var, obj = atom.as_tuple()

    if policy.subproperty:
        for prop in sorted(schema.properties()):
            if prop == RDF_TYPE:
                continue
            interval = (
                encoding.property_interval(prop)
                if encoding is not None
                else None
            )
            if interval is not None:
                # One strict interval atom stands in for every
                # subproperty branch of *prop* (the identity
                # alternative already matches prop itself).
                strict = interval.strict()
                if strict is not None:
                    alternatives.append(
                        Alternative(
                            TriplePattern(subject, strict, obj),
                            {prop_var: prop},
                        )
                    )
                continue
            for sub in sorted(schema.subproperties(prop)):
                alternatives.append(
                    Alternative(TriplePattern(subject, sub, obj), {prop_var: prop})
                )

    type_atom = TriplePattern(subject, RDF_TYPE, obj)
    for replacement, binding, guard in _reformulate_type_atom(
        type_atom, schema, policy, encoding
    ):
        # The property variable may coincide with a variable the type
        # unfolding already bound (e.g. the atom ``(a, b, b)``); a
        # conflicting binding makes the alternative unsatisfiable.
        if prop_var in binding and binding[prop_var] != RDF_TYPE:
            continue
        merged: Substitution = dict(binding)
        merged[prop_var] = RDF_TYPE
        alternatives.append(Alternative(replacement, merged, guard))
    return alternatives


def reformulate_atom(
    atom: TriplePattern,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> List[Alternative]:
    """Every alternative for *atom* under *schema*, identity first.

    The union of the alternatives, evaluated over the explicit triples,
    equals the atom's answer over the saturated graph — the per-atom
    form of the paper's correctness contract ``q(db∞) = qref(db)``.

    ``encoding`` (a :class:`~repro.encoding.HierarchyEncoding`, opt-in)
    collapses subclass/subproperty enumerations into single interval
    atoms wherever the encoding covers the node; uncovered nodes fall
    back to the classic unions, so coverage is an optimization, never a
    correctness requirement.

    >>> from repro.rdf.namespaces import Namespace
    >>> from repro.schema import Constraint
    >>> EX = Namespace("http://example.org/")
    >>> schema = Schema([Constraint.subclass(EX.Book, EX.Publication)])
    >>> atom = TriplePattern(Variable("x"), RDF_TYPE, EX.Publication)
    >>> [str(a.atom) for a in reformulate_atom(atom, schema)]
    ['(?x rdf:type Publication)', '(?x rdf:type Book)']
    """
    alternatives: List[Alternative] = [Alternative(atom, {})]
    prop = atom.property
    if isinstance(prop, Variable):
        alternatives.extend(
            _reformulate_open_property_atom(atom, schema, policy, encoding)
        )
    elif prop == RDF_TYPE:
        alternatives.extend(
            _reformulate_type_atom(atom, schema, policy, encoding)
        )
    elif prop in SCHEMA_PROPERTIES:
        # The stored closed schema makes the identity alternative
        # complete for constraint atoms (database contract).
        pass
    elif policy.subproperty:
        interval = (
            encoding.property_interval(prop) if encoding is not None else None
        )
        if interval is not None:
            # The identity alternative above matches *prop* itself, so
            # the interval covers the strict subproperties only.
            strict = interval.strict()
            if strict is not None:
                alternatives.append(
                    Alternative(
                        TriplePattern(atom.subject, strict, atom.object), {}
                    )
                )
        else:
            for sub in sorted(schema.subproperties(prop)):
                alternatives.append(
                    Alternative(
                        TriplePattern(atom.subject, sub, atom.object), {}
                    )
                )
    return alternatives


def atom_reformulation_size(
    atom: TriplePattern,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> int:
    """``len(reformulate_atom(...))`` — Example 1's 564 per open type
    atom (with a hierarchy ``encoding``, the collapsed count)."""
    return len(reformulate_atom(atom, schema, policy, encoding))
