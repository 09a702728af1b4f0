"""Unit tests for the N-Triples-style reader/writer."""

import io

import pytest

from repro.rdf import (
    BlankNode,
    Graph,
    Literal,
    Namespace,
    ParseError,
    Triple,
    URI,
    graph_to_string,
    parse_line,
    parse_term,
    read_ntriples,
    write_ntriples,
)

EX = Namespace("http://example.org/")


class TestParseTerm:
    def test_uri(self):
        assert parse_term("<http://e/a>") == URI("http://e/a")

    def test_blank_node(self):
        assert parse_term("_:b1") == BlankNode("b1")

    def test_plain_literal(self):
        assert parse_term('"hello"') == Literal("hello")

    def test_typed_literal(self):
        term = parse_term('"1"^^<http://www.w3.org/2001/XMLSchema#integer>')
        assert term.value == "1"
        assert term.datatype.value.endswith("integer")

    def test_escaped_literal_roundtrip(self):
        original = Literal('say "hi"\nthere\\')
        assert parse_term(original.n3()) == original

    def test_empty_uri_rejected(self):
        with pytest.raises(ParseError):
            parse_term("<>")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_term("??")


class TestParseLine:
    def test_simple(self):
        triple = parse_line("<http://e/a> <http://e/p> <http://e/b> .")
        assert triple == Triple(URI("http://e/a"), URI("http://e/p"), URI("http://e/b"))

    def test_missing_term(self):
        with pytest.raises(ParseError):
            parse_line("<http://e/a> <http://e/p> .")

    def test_extra_term(self):
        with pytest.raises(ParseError):
            parse_line("<http://e/a> <http://e/p> <http://e/b> <http://e/c> .")

    def test_literal_property_rejected(self):
        with pytest.raises(ParseError):
            parse_line('<http://e/a> "p" <http://e/b> .')

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_line("junk !", line_number=7)
        assert "line 7" in str(info.value)


class TestGraphIO:
    def test_roundtrip(self):
        graph = Graph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.a, EX.q, Literal("v w")),
                Triple(BlankNode("n"), EX.p, Literal('quo"te')),
            ]
        )
        assert read_ntriples(graph_to_string(graph)) == graph

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n<http://e/a> <http://e/p> <http://e/b> .\n"
        assert len(read_ntriples(text)) == 1

    def test_write_is_sorted(self):
        graph = Graph([Triple(EX.b, EX.p, EX.o), Triple(EX.a, EX.p, EX.o)])
        lines = graph_to_string(graph).splitlines()
        assert lines == sorted(lines)

    def test_write_returns_count(self):
        buffer = io.StringIO()
        graph = Graph([Triple(EX.a, EX.p, EX.b)])
        assert write_ntriples(graph, buffer) == 1

    def test_file_roundtrip(self, tmp_path):
        from repro.rdf import load_file, save_file

        graph = Graph([Triple(EX.a, EX.p, Literal("v"))])
        path = str(tmp_path / "g.nt")
        assert save_file(graph, path) == 1
        assert load_file(path) == graph

    def test_parse_error_includes_line(self):
        with pytest.raises(ParseError) as info:
            read_ntriples("<http://e/a> <http://e/p> <http://e/b> .\nbad line\n")
        assert info.value.line_number == 2


class TestParseErrorDiagnostics:
    def test_error_carries_offending_text(self):
        with pytest.raises(ParseError) as info:
            read_ntriples("this is not a triple !\n")
        error = info.value
        assert error.line_number == 1
        assert error.line_text == "this is not a triple !"
        assert "this is not a triple !" in str(error)
        assert error.reason  # the bare message survives separately

    def test_term_level_error_still_carries_line(self):
        with pytest.raises(ParseError) as info:
            read_ntriples('<http://e/a> "p" <http://e/b> .\n')
        assert info.value.line_number == 1
        assert info.value.line_text is not None


class TestLenientMode:
    TEXT = (
        "<http://e/a> <http://e/p> <http://e/b> .\n"
        "junk one !\n"
        "<http://e/c> <http://e/p> <http://e/d> .\n"
        "junk two ?\n"
    )

    def test_strict_false_skips_and_collects(self):
        errors = []
        graph = read_ntriples(self.TEXT, strict=False, errors=errors)
        assert len(graph) == 2
        assert [error.line_number for error in errors] == [2, 4]
        assert errors[0].line_text == "junk one !"
        assert errors[1].line_text == "junk two ?"

    def test_strict_false_without_error_list(self):
        assert len(read_ntriples(self.TEXT, strict=False)) == 2

    def test_strict_default_raises_on_first_bad_line(self):
        with pytest.raises(ParseError) as info:
            read_ntriples(self.TEXT)
        assert info.value.line_number == 2

    def test_load_file_lenient(self, tmp_path):
        from repro.rdf import load_file

        path = tmp_path / "messy.nt"
        path.write_text(self.TEXT, encoding="utf-8")
        errors = []
        graph = load_file(str(path), strict=False, errors=errors)
        assert len(graph) == 2 and len(errors) == 2


class TestLiteralEscaping:
    def test_backslash_n_sequence_is_not_a_newline(self):
        # The regression the single-pass unescaper guards: an escaped
        # backslash followed by 'n' must NOT decode to a newline.
        literal = Literal("back\\nslash")  # backslash + 'n', no newline
        assert parse_term(literal.n3()) == literal

    def test_carriage_return_and_tab_round_trip(self):
        literal = Literal("a\rb\tc")
        token = literal.n3()
        assert "\r" not in token and "\t" not in token
        assert parse_term(token) == literal

    def test_datatype_marker_inside_value(self):
        # Regression: '^^' inside the *value* must not be mistaken for
        # the datatype separator (the old parser split on it textually).
        assert parse_term('"a^^b"') == Literal("a^^b")
        typed = Literal("x^^y", URI("http://www.w3.org/2001/XMLSchema#string"))
        assert parse_term(typed.n3()) == typed

    @pytest.mark.parametrize(
        "escape, char",
        [
            ("\\t", "\t"),
            ("\\b", "\b"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\f", "\f"),
            ('\\"', '"'),
            ("\\'", "'"),
            ("\\\\", "\\"),
            ("\\u00e9", "é"),
            ("\\U0001F600", "\U0001F600"),
        ],
    )
    def test_each_escape_decodes_to_its_code_point(self, escape, char):
        assert parse_term('"a%sc"' % escape) == Literal("a%sc" % char)

    @pytest.mark.parametrize("escape", ["\\q", "\\u0e", "\\uD800", "\\U00110000"])
    def test_an_undefined_escape_names_its_line(self, escape):
        with pytest.raises(ParseError) as excinfo:
            read_ntriples('<http://e/s> <http://e/p> "ok" .\n'
                          '<http://e/s> <http://e/p> "a%sc" .\n' % escape)
        assert excinfo.value.line_number == 2


class TestIriEscaping:
    """An IRI takes UCHAR escapes (``\\uXXXX``, ``\\UXXXXXXXX``) and no
    other backslash sequence."""

    @pytest.mark.parametrize(
        "escape, char",
        [
            ("\\u00e9", "é"),
            ("\\u00E9", "é"),
            ("\\U0001F600", "\U0001F600"),
            ("\\u005C", "\\"),
            ("\\u0020", " "),
        ],
    )
    def test_each_uchar_decodes_to_its_code_point(self, escape, char):
        assert parse_term("<http://e/a%sc>" % escape) == URI("http://e/a%sc" % char)

    @pytest.mark.parametrize(
        "escape", ["\\q", "\\n", "\\\\", "\\u0e", "\\uD800", "\\U00110000"]
    )
    def test_any_other_escape_names_its_line(self, escape):
        with pytest.raises(ParseError) as excinfo:
            read_ntriples('<http://e/s> <http://e/p> "ok" .\n'
                          '<http://e/a%sb> <http://e/p> "ok" .\n' % escape)
        assert excinfo.value.line_number == 2

    def test_a_backslash_in_an_iri_round_trips(self):
        uri = URI("http://e/a\\qb")
        assert uri.n3() == "<http://e/a\\u005Cqb>"
        assert parse_term(uri.n3()) == uri
