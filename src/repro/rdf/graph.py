"""RDF graphs: sets of triples with pattern-matching access paths.

An RDF graph is a set of triples (paper, Section 3).  :class:`Graph`
keeps the triple set together with three hash indexes (by subject, by
property, by object) so that the saturation engine, the reformulation
tests and the demo statistics can all look triples up without scanning.
The heavier, dictionary-encoded store used for query *evaluation* lives
in :mod:`repro.storage`; this class is the logical-level graph.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Optional, Set

from .namespaces import RDF_TYPE, SCHEMA_PROPERTIES
from .terms import ObjectTerm, PropertyTerm, SubjectTerm, Term
from .triples import Triple


class Graph:
    """A mutable set of RDF triples with subject/property/object indexes.

    >>> from repro.rdf.namespaces import Namespace
    >>> EX = Namespace("http://example.org/")
    >>> g = Graph()
    >>> _ = g.add(Triple(EX.doi1, RDF_TYPE, EX.Book))
    >>> len(g)
    1
    >>> list(g.match(property=RDF_TYPE))[0].object
    URI('http://example.org/Book')
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._triples: Set[Triple] = set()
        self._by_subject: Dict[Term, Set[Triple]] = defaultdict(set)
        self._by_property: Dict[Term, Set[Triple]] = defaultdict(set)
        self._by_object: Dict[Term, Set[Triple]] = defaultdict(set)
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Mutation

    def add(self, triple: Triple) -> bool:
        """Add *triple*; return True when it was not already present."""
        if not isinstance(triple, Triple):
            raise TypeError("Graph.add expects a Triple, got %r" % (triple,))
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_subject[triple.subject].add(triple)
        self._by_property[triple.property].add(triple)
        self._by_object[triple.object].add(triple)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple; return how many were new."""
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def discard(self, triple: Triple) -> bool:
        """Remove *triple* if present; return True when it was removed."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        for index, key in (
            (self._by_subject, triple.subject),
            (self._by_property, triple.property),
            (self._by_object, triple.object),
        ):
            bucket = index[key]
            bucket.discard(triple)
            if not bucket:
                del index[key]
        return True

    # ------------------------------------------------------------------
    # Access

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def match(
        self,
        subject: Optional[SubjectTerm] = None,
        property: Optional[PropertyTerm] = None,
        object: Optional[ObjectTerm] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the given constants (None = wildcard).

        The most selective available index is consulted first, then the
        remaining constants are checked per candidate.
        """
        candidates: Optional[Set[Triple]] = None
        for index, key in (
            (self._by_subject, subject),
            (self._by_property, property),
            (self._by_object, object),
        ):
            if key is None:
                continue
            bucket = index.get(key)
            if bucket is None:
                return
            if candidates is None or len(bucket) < len(candidates):
                candidates = bucket
        if candidates is None:
            candidates = self._triples
        for triple in candidates:
            if subject is not None and triple.subject != subject:
                continue
            if property is not None and triple.property != property:
                continue
            if object is not None and triple.object != object:
                continue
            yield triple

    def subjects_of_type(self, cls: Term) -> Set[Term]:
        """Return the explicit instances of class *cls*."""
        return {t.subject for t in self.match(property=RDF_TYPE, object=cls)}

    def properties(self) -> Set[Term]:
        """Return the set of properties used in the graph."""
        return set(self._by_property)

    def values(self) -> Set[Term]:
        """Return ``Val(G)``: every URI, blank node and literal in use."""
        seen: Set[Term] = set()
        for triple in self._triples:
            seen.update(triple.as_tuple())
        return seen

    # ------------------------------------------------------------------
    # Schema / data split

    def schema_triples(self) -> Iterator[Triple]:
        """Yield the RDFS constraint triples (Figure 1, bottom)."""
        for prop in SCHEMA_PROPERTIES:
            for triple in self._by_property.get(prop, ()):
                yield triple

    def data_triples(self) -> Iterator[Triple]:
        """Yield the assertion triples (class and property assertions)."""
        for triple in self._triples:
            if not triple.is_schema_triple():
                yield triple

    # ------------------------------------------------------------------
    # Set-like helpers

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def union(self, other: "Graph") -> "Graph":
        merged = self.copy()
        merged.add_all(other)
        return merged

    def difference(self, other: "Graph") -> Set[Triple]:
        return {t for t in self._triples if t not in other}

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and other._triples == self._triples

    def __repr__(self) -> str:
        return "Graph(<%d triples>)" % len(self._triples)
