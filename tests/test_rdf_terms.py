"""Unit tests for RDF terms: identity, ordering, immutability."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdf import BlankNode, Literal, Triple, URI
from repro.rdf.namespaces import XSD_NS


class TestURI:
    def test_equality_by_value(self):
        assert URI("http://e/a") == URI("http://e/a")
        assert URI("http://e/a") != URI("http://e/b")

    def test_hashable(self):
        assert len({URI("http://e/a"), URI("http://e/a")}) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            URI("")

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            URI(42)

    def test_immutable(self):
        uri = URI("http://e/a")
        with pytest.raises(AttributeError):
            uri.value = "http://e/b"

    def test_n3(self):
        assert URI("http://e/a").n3() == "<http://e/a>"

    def test_local_name_fragment(self):
        assert URI("http://e/ns#Book").local_name() == "Book"

    def test_local_name_path(self):
        assert URI("http://e/ns/Book").local_name() == "Book"

    def test_local_name_opaque(self):
        assert URI("urn:isbn:123").local_name() == "urn:isbn:123"


class TestBlankNode:
    def test_equality_by_label(self):
        assert BlankNode("b1") == BlankNode("b1")
        assert BlankNode("b1") != BlankNode("b2")

    def test_not_equal_to_uri(self):
        assert BlankNode("b1") != URI("b1")

    def test_fresh_labels_unique(self):
        labels = {BlankNode.fresh().label for _ in range(100)}
        assert len(labels) == 100

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            BlankNode("")

    def test_n3(self):
        assert BlankNode("b1").n3() == "_:b1"


class TestLiteral:
    def test_equality_includes_datatype(self):
        typed = Literal("1", XSD_NS.term("integer"))
        assert Literal("1") != typed
        assert typed == Literal("1", XSD_NS.term("integer"))

    def test_n3_plain(self):
        assert Literal("1949").n3() == '"1949"'

    def test_n3_typed(self):
        literal = Literal("1", XSD_NS.term("integer"))
        assert literal.n3() == '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_n3_escapes(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_rejects_non_string_value(self):
        with pytest.raises(ValueError):
            Literal(1949)

    def test_rejects_non_uri_datatype(self):
        with pytest.raises(ValueError):
            Literal("1", "integer")


class TestOrdering:
    def test_group_order_uri_bnode_literal(self):
        terms = [Literal("a"), BlankNode("a"), URI("a")]
        assert sorted(terms) == [URI("a"), BlankNode("a"), Literal("a")]

    def test_lexicographic_within_group(self):
        assert URI("http://a") < URI("http://b")

    def test_sort_is_deterministic(self):
        terms = [URI("b"), Literal("a"), BlankNode("c"), URI("a")]
        assert sorted(terms) == sorted(reversed(sorted(terms)))

    def test_untyped_literal_sorts_before_typed(self):
        typed = Literal("1", XSD_NS.term("integer"))
        assert Literal("1") < typed
        assert sorted([typed, Literal("1")]) == [Literal("1"), typed]


# ---------------------------------------------------------------------------
# Properties over drawn terms

_text = st.text(min_size=1, max_size=4)
_datatype = st.none() | st.sampled_from(
    [XSD_NS.term("integer"), XSD_NS.term("string"), URI("http://e/d")]
)
_term = st.one_of(
    st.builds(URI, _text),
    st.builds(BlankNode, _text),
    st.builds(Literal, _text, _datatype),
)
_GROUP = {URI: 0, BlankNode: 1, Literal: 2}


def _group_key(term):
    """The ``(group, lexical)`` order terms used to be sorted by."""
    return (_GROUP[type(term)], term.lexical())


@given(_term, _term)
def test_tuple_order_refines_group_lexical_order(a, b):
    if _group_key(a) < _group_key(b):
        assert a < b and not b < a
    if a == b:
        assert _group_key(a) == _group_key(b)
        assert hash(a) == hash(b)
    assert (a < b) + (b < a) + (a == b) == 1  # a total order


@given(_term, _term, _term)
def test_triple_order_is_componentwise(s, o, p):
    first = Triple(URI("http://e/s"), URI("http://e/p"), s)
    second = Triple(URI("http://e/s"), URI("http://e/p"), o)
    assert (first < second) == (s < o)
    assert (first == second) == (s == o)


@given(_text)
def test_kinds_with_the_same_text_never_equal(text):
    kinds = [URI(text), BlankNode(text), Literal(text)]
    for index, term in enumerate(kinds):
        for other in kinds[index + 1:]:
            assert term != other
    assert len(set(kinds)) == 3


@given(_term)
def test_terms_are_immutable(term):
    for name in ("value", "label", "datatype", "anything"):
        with pytest.raises(AttributeError):
            setattr(term, name, "x")
    triple = Triple(URI("http://e/s"), URI("http://e/p"), term)
    for name in ("subject", "property", "object", "anything"):
        with pytest.raises(AttributeError):
            setattr(triple, name, term)


@given(_term)
def test_accessors_survive_the_tuple_form(term):
    if isinstance(term, Literal):
        assert term.datatype is None or isinstance(term.datatype, URI)
        assert Literal(term.value, term.datatype) == term
    elif isinstance(term, URI):
        assert URI(term.value) == term
    else:
        assert BlankNode(term.label) == term
