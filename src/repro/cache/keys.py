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
  atom order and variable names.
"""

from __future__ import annotations

from typing import Tuple

from ..query.algebra import ConjunctiveQuery, UnionQuery
from ..query.cover import Cover
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
    """A canonical key for a CQ or UCQ.

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
