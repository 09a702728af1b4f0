"""RDF triples: the atomic statement ``s p o``.

A triple states that its subject ``s`` has the property ``p`` whose
value is the object ``o`` (paper, Section 3).  Only *well-formed*
triples are allowed: the subject is a URI or blank node, the property
is a URI, and the object is any term.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Tuple

from .namespaces import RDF_TYPE, SCHEMA_PROPERTIES, shorten
from .terms import BlankNode, Literal, ObjectTerm, PropertyTerm, SubjectTerm, Term, URI


class Triple(tuple):
    """An immutable, well-formed RDF triple: the 3-tuple of its terms,
    so it hashes, compares and sorts as ``(subject, property, object)``.

    >>> from repro.rdf.namespaces import Namespace
    >>> EX = Namespace("http://example.org/")
    >>> t = Triple(EX.doi1, RDF_TYPE, EX.Book)
    >>> t.is_class_assertion()
    True
    """

    __slots__ = ()

    def __new__(cls, subject: SubjectTerm, property: PropertyTerm, object: ObjectTerm):
        if not isinstance(subject, (URI, BlankNode)):
            raise ValueError(
                "triple subject must be a URI or blank node, got %r" % (subject,)
            )
        if not isinstance(property, URI):
            raise ValueError("triple property must be a URI, got %r" % (property,))
        if not isinstance(object, (URI, BlankNode, Literal)):
            raise ValueError("triple object must be an RDF term, got %r" % (object,))
        return tuple.__new__(cls, (subject, property, object))

    subject = property(itemgetter(0))
    object = property(itemgetter(2))
    # Last: from here on ``property`` names this accessor in the class body.
    property = property(itemgetter(1))

    def as_tuple(self) -> Tuple[Term, Term, Term]:
        return self

    def is_class_assertion(self) -> bool:
        """True for ``s rdf:type o`` triples (unary relation ``o(s)``)."""
        return self.property == RDF_TYPE

    def is_schema_triple(self) -> bool:
        """True when the property is one of the four RDFS constraints."""
        return self.property in SCHEMA_PROPERTIES

    def is_data_triple(self) -> bool:
        """True for assertions (class or property), i.e. non-schema triples."""
        return not self.is_schema_triple()

    def n3(self) -> str:
        return "%s %s %s ." % (self.subject.n3(), self.property.n3(), self.object.n3())

    def __repr__(self) -> str:
        return "Triple(%s, %s, %s)" % tuple(_short(term) for term in self)


def _short(term: Term) -> str:
    if isinstance(term, URI):
        return shorten(term)
    return term.n3()
