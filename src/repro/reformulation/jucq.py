"""Cover-based JUCQ reformulation (the paper's contribution, [5]).

"Each cover naturally leads to a query answering strategy:
reformulating each cover subquery using any CQ-to-UCQ algorithm, and
joining the results of these reformulated queries, yields the answer
to the original query" (Section 4).  This module compiles a
:class:`~repro.query.cover.Cover` into a
:class:`~repro.query.algebra.JoinOfUnions` by reformulating each
fragment query with the engine of
:mod:`repro.reformulation.engine`.
"""

from __future__ import annotations

from typing import List, Tuple

from ..query.algebra import HeadTerm, JoinOfUnions, UnionQuery
from ..query.cover import Cover
from ..schema.schema import Schema
from .engine import reformulate, ucq_size
from .policy import COMPLETE, ReformulationPolicy


def jucq_for_cover(
    cover: Cover,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> JoinOfUnions:
    """Compile *cover* into the JUCQ it induces.

    Fragment heads expose the variables shared across fragments or
    distinguished in the covered query, so joining the fragment UCQs
    and projecting the query head reproduces the CQ's answer under
    entailment (the property tests verify this for arbitrary covers).
    ``encoding`` (opt-in hierarchy encoding) collapses covered
    subclass/subproperty unions into interval atoms per fragment.
    """
    fragments: List[Tuple[Tuple[HeadTerm, ...], UnionQuery]] = []
    for fragment in cover.fragments:
        fragment_query = cover.fragment_query(fragment)
        union = reformulate(fragment_query, schema, policy, encoding=encoding)
        fragments.append((fragment_query.head, union))
    return JoinOfUnions(cover.query.head, fragments)


def scq_reformulation(
    query_cover_source,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> JoinOfUnions:
    """The SCQ reformulation of [15]: the JUCQ of the one-atom-per-
    fragment cover (each fragment a union of *atomic* queries).

    Accepts either a CQ or an existing per-atom cover.
    """
    from ..query.algebra import ConjunctiveQuery

    if isinstance(query_cover_source, ConjunctiveQuery):
        cover = Cover.per_atom(query_cover_source)
    elif isinstance(query_cover_source, Cover):
        cover = query_cover_source
    else:
        raise TypeError("scq_reformulation expects a CQ or Cover")
    return jucq_for_cover(cover, schema, policy, encoding=encoding)


def jucq_fragment_sizes(
    cover: Cover,
    schema: Schema,
    policy: ReformulationPolicy = COMPLETE,
    encoding=None,
) -> List[int]:
    """Per-fragment UCQ disjunct counts, without materialization —
    the syntactic-size side of a cover's cost."""
    return [
        ucq_size(cover.fragment_query(fragment), schema, policy, encoding)
        for fragment in cover.fragments
    ]
