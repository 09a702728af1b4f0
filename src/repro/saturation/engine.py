"""Saturation-based query answering support (Sat).

Saturation computes ``G∞``, the fixpoint of the immediate entailment
rules over a graph ``G`` (paper, Section 3).  Two engines:

* :func:`saturate` — the production engine.  It first closes the
  schema component (cheap: schemas are small), then propagates
  instance-level consequences with a worklist.  Because the closed
  schema already contains every entailed constraint, each data triple's
  consequences can be read off directly, and the worklist only chains
  in the rare ``rdf:type``-as-superproperty cases.

* :func:`saturate_naive` — a direct fixpoint of the immediate rules of
  :mod:`repro.saturation.rules`.  Quadratic-ish and only suitable for
  small graphs; it exists as an executable specification that the fast
  engine is differentially tested against.

Both return a *new* graph; the input is never mutated.
"""

from __future__ import annotations

from typing import List, Optional

from ..rdf.graph import Graph
from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import BlankNode, URI
from ..rdf.triples import Triple
from ..schema.schema import Schema
from .rules import all_immediate_consequences


def saturate_naive(graph: Graph, max_rounds: Optional[int] = None) -> Graph:
    """Saturate by repeatedly applying every immediate entailment rule.

    This is the executable form of the paper's definition: ``G∞`` is
    the fixpoint of ``⊢iRDF`` over ``G``.  ``max_rounds`` bounds the
    number of parallel rule-application rounds (None = run to fixpoint;
    termination is guaranteed because every derived triple is built
    from values already in the graph).
    """
    saturated = graph.copy()
    rounds = 0
    while True:
        fresh = all_immediate_consequences(saturated)
        if not fresh:
            return saturated
        saturated.add_all(fresh)
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            return saturated


def instance_consequences(triple: Triple, schema: Schema) -> List[Triple]:
    """The instance-level triples immediately entailed by *triple*
    given the *closed* schema.

    For a data triple ``(s p o)``: property propagation into every
    superproperty of ``p``, domain/range typing for every entailed
    domain/range of ``p``.  For a type triple ``(s τ c)``: propagation
    into every superclass of ``c``.  Schema triples have no instance
    consequences of their own (the schema closure covers them).
    """
    consequences: List[Triple] = []
    s, p, o = triple.as_tuple()
    if p == RDF_TYPE:
        for sup in schema.superclasses(o):
            consequences.append(Triple(s, RDF_TYPE, sup))
    elif not triple.is_schema_triple():
        for sup in schema.superproperties(p):
            consequences.append(Triple(s, sup, o))
        for klass in schema.domains(p):
            consequences.append(Triple(s, RDF_TYPE, klass))
        if isinstance(o, (URI, BlankNode)):
            for klass in schema.ranges(p):
                consequences.append(Triple(o, RDF_TYPE, klass))
    return consequences


def saturate(
    graph: Graph,
    schema: Optional[Schema] = None,
) -> Graph:
    """Compute ``G∞`` efficiently; return a new graph.

    When *schema* is given, it is used **in addition to** the schema
    triples present in *graph* (the common split in the paper: data in
    the store, constraints known separately).  The result contains the
    explicit triples, the entailed schema constraints, and every
    entailed instance triple.
    """
    combined_schema = Schema.from_graph(graph)
    if schema is not None:
        for constraint in schema.direct_constraints():
            combined_schema.add(constraint)

    saturated = graph.copy()
    saturated.add_all(combined_schema.entailed_triples())

    frontier: List[Triple] = [t for t in graph if not t.is_schema_triple()]
    while frontier:
        triple = frontier.pop()
        for consequence in instance_consequences(triple, combined_schema):
            if saturated.add(consequence):
                # Chaining is only possible when a derived triple can
                # itself fire a rule — e.g. a type triple derived via an
                # rdf:type superproperty whose class has superclasses.
                frontier.append(consequence)
    return saturated


def is_saturated(graph: Graph, schema: Optional[Schema] = None) -> bool:
    """True when saturating *graph* adds nothing (``G = G∞``)."""
    return len(saturate(graph, schema)) == len(graph)
