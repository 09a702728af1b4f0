"""Cache key canonicalization.

A cache hit must be *sound*: two keys may only collide when the cached
artifact is guaranteed identical.  The pieces:

* **queries** — keyed by :meth:`ConjunctiveQuery.canonical`, so
  alpha-equivalent queries (same query up to non-distinguished
  variable renaming and atom order) share one entry.  Equal canonical
  keys imply isomorphic queries, whose answers agree positionally, so
  sharing the answer (and the reformulation, up to variable names) is
  sound;
* **schemas** — keyed by :meth:`repro.schema.schema.Schema.fingerprint`,
  a digest of the direct constraint set; any constraint change yields
  a fresh fingerprint, so reformulations computed under the old schema
  can never be served under the new one;
* **policies** — keyed by their feature switches (not their display
  name: two differently-named policies with equal switches produce
  identical reformulations and may share entries);
* **covers** — keyed by the fragment contents encoded under the
  query's canonical variable numbering, so the key is independent of
  atom order and variable names;
* **shapes** — GCov's covers are keyed by the canonical form with
  every *instance constant* lifted (:func:`shape_of`).  Equal shapes
  have equally many atoms, so covers (fragments over atom positions)
  of one query of a shape are covers of all of them, and any cover
  answers completely; only its cost is the first query's.
"""

from __future__ import annotations

from typing import Tuple

from ..query.algebra import ConjunctiveQuery, TriplePattern, UnionQuery, Variable
from ..query.cover import Cover
from ..rdf.namespaces import RDF_TYPE, SCHEMA_PROPERTIES
from ..rdf.terms import BlankNode
from ..reformulation.policy import ReformulationPolicy


def policy_key(policy: ReformulationPolicy) -> Tuple[bool, bool, bool, bool]:
    """The policy's honoured-feature switches (its semantic identity)."""
    return (
        policy.subclass,
        policy.subproperty,
        policy.domain_range,
        policy.open_variables,
    )


def query_key(query) -> Tuple:
    """A canonical key for a CQ, a UCQ or a :func:`shape_of` key.

    UCQs are keyed by the *set* of disjunct canonical forms: disjunct
    order never affects a union's answer.
    """
    if isinstance(query, ConjunctiveQuery):
        return ("cq", query.canonical())
    if isinstance(query, UnionQuery):
        return (
            "ucq",
            query.arity,
            frozenset(cq.canonical() for cq in query.disjuncts),
        )
    if isinstance(query, tuple) and query[0] == "shape":
        return query  # shape_of's key: canonical already
    raise TypeError("cannot key %r for caching" % (query,))


def cover_key(cover: Cover) -> Tuple:
    """A key for (query, cover) independent of atom order and variable
    names: each fragment becomes the set of its atoms' canonical
    encodings."""
    _, atom_keys, _ = cover.query.canonical_encoding()
    fragments = frozenset(
        frozenset(atom_keys[index] for index in fragment)
        for fragment in cover.fragments
    )
    return (cover.query.canonical(), fragments)


#: What every instance constant becomes in a shape.  Any term would do:
#: which positions lift depends only on the atom's property, which the
#: shape keeps, so a placeholder never meets a real term in one position.
_PLACEHOLDER = BlankNode("?")


def _lift(atom: TriplePattern) -> TriplePattern:
    """*atom* with its instance constants replaced by the placeholder:
    constants outside property position, except the class of an
    ``rdf:type`` atom and anything in an atom over the RDFS
    vocabulary."""
    if atom.property in SCHEMA_PROPERTIES:
        return atom
    subject, property_, object_ = atom.as_tuple()
    if not isinstance(subject, Variable):
        subject = _PLACEHOLDER
    if not isinstance(object_, Variable) and property_ != RDF_TYPE:
        object_ = _PLACEHOLDER
    return TriplePattern(subject, property_, object_)


def lifted_constants(query: ConjunctiveQuery, order: Tuple[int, ...]) -> Tuple:
    """The instance constants :func:`shape_of` lifts from *query*, in its
    canonical atom *order*: for every query of one shape, index ``k``
    names the same position, one slot of the plan they share."""
    return tuple(
        term
        for atom in map(query.atoms.__getitem__, order)
        for term, lifted in zip(atom.as_tuple(), _lift(atom).as_tuple())
        if lifted is _PLACEHOLDER
    )


def shape_of(query: ConjunctiveQuery) -> Tuple[Tuple, Tuple[int, ...]]:
    """*query*'s shape key and canonical atom order: ``order[i]`` is the
    index in ``query.atoms`` of the shape's atom ``i``.  The key holds
    the lifted atoms' encodings sorted — a tuple, so repeated lifted
    atoms keep their count, and no set order leaks into key or order.
    Atoms that tie differ in instance constants only; either order maps
    a cover onto a cover."""
    lifted = ConjunctiveQuery(query.head, [_lift(atom) for atom in query.atoms])
    head_key, atom_keys, numbering = lifted.canonical_encoding()
    order = tuple(sorted(range(len(atom_keys)), key=atom_keys.__getitem__))
    guard = frozenset(numbering[variable] for variable in query.nonliteral_variables)
    return ("shape", head_key, tuple(atom_keys[i] for i in order), guard), order
