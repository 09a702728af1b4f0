"""Unit tests for query/cover visualization, table rendering and the
new CLI commands."""


from repro.cli import main
from repro.datasets import example1_best_cover, example1_query
from repro.query import (
    ConjunctiveQuery,
    Cover,
    TriplePattern,
    Variable,
    join_graph,
    render_cover,
    render_query,
    render_strategy,
)
from repro.query.visualize import format_table
from repro.rdf import Namespace, RDF_TYPE

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestJoinGraph:
    def test_edges_on_shared_variables(self):
        query = ConjunctiveQuery(
            [x],
            [
                TriplePattern(x, EX.p, y),
                TriplePattern(y, EX.q, z),
                TriplePattern(x, RDF_TYPE, EX.C),
            ],
        )
        edges = join_graph(query)
        assert edges[(0, 1)] == {y}
        assert edges[(0, 2)] == {x}
        assert (1, 2) not in edges

    def test_example1_graph(self):
        edges = join_graph(example1_query())
        assert edges[(0, 2)]  # t1 -- t3 on x
        assert edges[(4, 5)]  # t5 -- t6 on z


class TestRendering:
    def test_render_query_lists_atoms_and_edges(self):
        text = render_query(example1_query())
        assert "t1: (?x rdf:type ?u)" in text
        assert "t5 -- t6" in text

    def test_cartesian_noted(self):
        query = ConjunctiveQuery(
            [x, y], [TriplePattern(x, EX.p, EX.a), TriplePattern(y, EX.q, EX.b)]
        )
        assert "cartesian" in render_query(query)

    def test_render_cover_matrix(self):
        text = render_cover(example1_best_cover())
        assert text.count("F") >= 4
        assert "overlapping atoms: t3, t4" in text

    def test_partition_has_no_overlap_note(self):
        query = example1_query()
        text = render_cover(Cover.per_atom(query))
        assert "overlapping" not in text

    def test_strategy_labels(self):
        query = example1_query()
        assert "SCQ" in render_strategy(Cover.per_atom(query))
        assert "UCQ" in render_strategy(Cover.single_fragment(query))
        assert "JUCQ" in render_strategy(example1_best_cover(query))


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert all("|" in line for line in lines if "-" not in line)

    def test_title(self):
        text = format_table(["h"], [["v"]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

    def test_wide_values_stretch_columns(self):
        text = format_table(["c"], [["wide value here"]])
        assert "wide value here" in text


class TestCliAdditions:
    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_why_entailed(self, capsys):
        code, out = self.run(
            capsys, "why", "--dataset", "books", "--triple",
            "<http://example.org/books/doi1> rdf:type "
            "<http://example.org/books/Publication>",
        )
        assert code == 0
        assert "type-propagation" in out
        assert "[explicit]" in out

    def test_why_not_entailed(self, capsys):
        code, out = self.run(
            capsys, "why", "--dataset", "books", "--triple",
            "<http://example.org/books/doi1> rdf:type "
            "<http://example.org/books/Unrelated>",
        )
        assert code == 1
        assert "not entailed" in out

    def test_answer_sqlite_engine(self, capsys):
        code, out = self.run(
            capsys, "answer", "--dataset", "books", "--strategy", "ref-gcov",
            "--engine", "sqlite",
        )
        assert code == 0
        assert "ref-gcov" in out

    def test_covers_renders_matrix(self, capsys):
        code, out = self.run(
            capsys, "covers", "--dataset", "lubm", "--query", "Q1",
            "--seed", "3",
        )
        assert code == 0
        assert "fragment" in out
        assert "join edges" in out
