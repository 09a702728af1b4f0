"""RDF terms: URIs, literals and blank nodes.

The W3C RDF specification distinguishes three kinds of values that may
appear in a triple: *URIs* (named resources), *literals* (typed or
untyped constants) and *blank nodes* (existential, unnamed resources).
The paper denotes the set of values of a graph ``G`` by ``Val(G)``
(Section 3, Preliminaries); :func:`repro.rdf.graph.Graph.values`
computes it from the term classes defined here.

Each term is a ``tuple`` tagged by its sort group: ``URI(v)`` is
``(0, v)``, ``BlankNode(l)`` is ``(1, l)`` and ``Literal(v, d)`` is
``(2, v, d)``, where an untyped literal holds ``()`` in place of its
datatype URI.  Hash, equality and order are ``tuple``'s, computed in C,
so terms are immutable dictionary keys and set members and sort
deterministically (the storage dictionary encoder and the test suite
rely on this).  The order is URIs < blank nodes < literals (< the
hierarchy intervals of :mod:`repro.encoding.hierarchy`, group 3), by
text within a group, with a literal's datatype as the tie-break: ``()``
sorts before any datatype URI, so ``"1"`` < ``"1"^^xsd:integer``.  The
tag keeps a URI, a blank node and a literal with the same text unequal.
A term's hash combines only ints and strings, so a fixed
``PYTHONHASHSEED`` fixes it, and with it every set and dictionary order
over terms (``hash(None)`` would not: before Python 3.12 it is an
object address).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Union

#: The datatype slot of an untyped literal: sorts before every URI.
_UNTYPED = ()


class Term:
    """Mixin marking RDF terms; each subclass is a tagged ``tuple``
    whose text sits at index 1."""

    __slots__ = ()

    def lexical(self) -> str:
        """Return the lexical form used for display."""
        return self[1]

    def n3(self) -> str:
        """Return the term in N-Triples syntax."""
        raise NotImplementedError


class URI(Term, tuple):
    """A named resource, identified by its URI string.

    >>> URI("http://example.org/Book").n3()
    '<http://example.org/Book>'
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "URI":
        if not isinstance(value, str) or not value:
            raise ValueError("URI value must be a non-empty string, got %r" % (value,))
        return tuple.__new__(cls, (0, value))

    value = property(itemgetter(1))

    def n3(self) -> str:
        return "<%s>" % self[1].replace("\\", "\\u005C")  # IRIs escape as UCHARs

    def __repr__(self) -> str:
        return "URI(%r)" % self[1]

    def local_name(self) -> str:
        """Return the fragment or last path segment, for display.

        >>> URI("http://example.org/ns#Book").local_name()
        'Book'
        """
        value = self[1]
        for separator in ("#", "/"):
            if separator in value:
                tail = value.rsplit(separator, 1)[1]
                if tail:
                    return tail
        return value


class BlankNode(Term, tuple):
    """An unnamed resource: a form of incomplete information.

    Blank nodes are compared by their label within one graph; the paper
    notes saturation is unique *up to blank node renaming*, which the
    saturation tests exercise through :func:`fresh` labels.
    """

    __slots__ = ()

    _counter = 0

    def __new__(cls, label: str) -> "BlankNode":
        if not isinstance(label, str) or not label:
            raise ValueError("blank node label must be a non-empty string")
        return tuple.__new__(cls, (1, label))

    label = property(itemgetter(1))

    @classmethod
    def fresh(cls, prefix: str = "b") -> "BlankNode":
        """Return a blank node with a label never handed out before."""
        cls._counter += 1
        return cls("%s%d" % (prefix, cls._counter))

    def n3(self) -> str:
        return "_:%s" % self[1]

    def __repr__(self) -> str:
        return "BlankNode(%r)" % self[1]


class Literal(Term, tuple):
    """A typed or untyped constant.

    ``datatype`` is an optional :class:`URI`; untyped literals carry
    ``None``.  Two literals are equal when both their lexical value and
    datatype match.

    >>> Literal("1949").n3()
    '"1949"'
    """

    __slots__ = ()

    def __new__(cls, value: str, datatype: Optional[URI] = None) -> "Literal":
        if not isinstance(value, str):
            raise ValueError("literal value must be a string, got %r" % (value,))
        if datatype is not None and not isinstance(datatype, URI):
            raise ValueError("literal datatype must be a URI or None")
        return tuple.__new__(cls, (2, value, datatype or _UNTYPED))

    value = property(itemgetter(1))

    @property
    def datatype(self) -> Optional[URI]:
        return self[2] or None

    def n3(self) -> str:
        # \r and \t must be escaped too: the serialization is
        # line-based, and universal-newline reading would otherwise
        # split a literal carriage return into two lines.
        escaped = (
            self[1].replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if not self[2]:
            return '"%s"' % escaped
        return '"%s"^^%s' % (escaped, self[2].n3())

    def __repr__(self) -> str:
        if not self[2]:
            return "Literal(%r)" % self[1]
        return "Literal(%r, %r)" % (self[1], self[2])


#: A subject may be a URI or a blank node (well-formed triples only).
SubjectTerm = Union[URI, BlankNode]
#: A property is always a URI.
PropertyTerm = URI
#: An object may be any term.
ObjectTerm = Union[URI, BlankNode, Literal]
