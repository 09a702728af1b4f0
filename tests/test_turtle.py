"""Unit tests for the Turtle-lite reader/writer."""

import pytest

from repro.rdf import (
    BlankNode,
    Graph,
    Literal,
    Namespace,
    ParseError,
    RDF_TYPE,
    Triple,
    URI,
)
from repro.rdf.turtle import read_turtle, turtle_to_string

EX = Namespace("http://example.org/")


class TestRead:
    def test_basic_statement(self):
        graph = read_turtle(
            "<http://e/a> <http://e/p> <http://e/b> ."
        )
        assert Triple(URI("http://e/a"), URI("http://e/p"), URI("http://e/b")) in graph

    def test_prefix_and_a_keyword(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:doi1 a ex:Book ."
        )
        assert Triple(EX.doi1, RDF_TYPE, EX.Book) in graph

    def test_predicate_list(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            'ex:doi1 a ex:Book ; ex:hasTitle "El Aleph" ; ex:publishedIn "1949" .'
        )
        assert len(graph) == 3

    def test_object_list(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:a ex:p ex:b , ex:c , ex:d ."
        )
        assert len(graph) == 3
        assert {t.object for t in graph} == {EX.b, EX.c, EX.d}

    def test_blank_node(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:doi1 ex:writtenBy _:b1 ."
        )
        assert Triple(EX.doi1, EX.writtenBy, BlankNode("b1")) in graph

    def test_typed_literal_prefixed_datatype(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            'ex:a ex:p "1"^^xsd:integer .'
        )
        (triple,) = list(graph)
        assert triple.object.datatype.value.endswith("integer")

    def test_comments_stripped(self):
        graph = read_turtle(
            "# a comment\n"
            "@prefix ex: <http://example.org/> . # trailing\n"
            'ex:a ex:p "text with # inside" . # more\n'
        )
        (triple,) = list(graph)
        assert triple.object == Literal("text with # inside")

    def test_uri_with_hash_not_a_comment(self):
        graph = read_turtle("<http://e/ns#a> <http://e/ns#p> <http://e/ns#b> .")
        assert len(graph) == 1

    def test_default_prefixes_available(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:A rdfs:subClassOf ex:B ."
        )
        (triple,) = list(graph)
        assert triple.property.value.endswith("subClassOf")

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(ParseError):
            read_turtle("foo:a foo:p foo:b .")

    def test_base_rejected_loudly(self):
        with pytest.raises(ParseError):
            read_turtle("@base <http://e/> .")

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            read_turtle("@prefix ex: <http://e/> .\nex:a ex:p ex:b")

    @pytest.mark.parametrize("statement", ['"lit" a <http://a/> .', "_:b _:b _:b ."])
    def test_ill_formed_triple_is_a_parse_error_with_its_line(self, statement):
        with pytest.raises(ParseError) as raised:
            read_turtle("<http://a/> a <http://b/> .\n" + statement)
        assert raised.value.line_number == 2

    def test_trailing_semicolon_tolerated(self):
        graph = read_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:a ex:p ex:b ; ."
        )
        assert len(graph) == 1


class TestWriteRoundtrip:
    def test_roundtrip_books(self, books):
        graph, _, _ = books
        text = turtle_to_string(graph, {"bk": "http://example.org/books/"})
        assert read_turtle(text) == graph

    def test_roundtrip_lubm_sample(self, lubm_small):
        text = turtle_to_string(
            lubm_small,
            {"ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"},
        )
        assert read_turtle(text) == lubm_small

    def test_output_uses_prefixes_and_a(self, books):
        graph, _, _ = books
        text = turtle_to_string(graph, {"bk": "http://example.org/books/"})
        assert "a bk:Book" in text
        assert "bk:doi1 " in text
        assert "@prefix bk:" in text

    def test_deterministic(self, books):
        graph, _, _ = books
        assert turtle_to_string(graph) == turtle_to_string(graph)

    def test_literals_preserved(self):
        graph = Graph([Triple(EX.a, EX.p, Literal('with "quotes"\n'))])
        assert read_turtle(turtle_to_string(graph)) == graph
