"""Tests for SQL generation and the SQLite backend.

The decisive assertions: a *real* SQL engine, fed the generated SQL
over the same dictionary-encoded triple table, returns exactly the
answers of the built-in executor for every reformulation strategy —
and rejects oversized unions with its own parser limit, just as the
paper's engines did.
"""

import sqlite3

import pytest

from repro.datasets import GeneratorConfig, books_dataset, generate_lubm, lubm_queries
from repro.query import ConjunctiveQuery, Cover, TriplePattern, Variable
from repro.reformulation import jucq_for_cover, reformulate, scq_reformulation
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.schema import Constraint, Schema
from repro.engine.lowering import LoweringError, lower
from repro.storage import Executor, Planner, TripleStore
from repro.storage.sql import (
    SQLITE_COMPOUND_SELECT_LIMIT,
    SqliteBackend,
    ucq_to_sql,
)

EX = Namespace("http://example.org/")
x, y, u = Variable("x"), Variable("y"), Variable("u")


@pytest.fixture(scope="module")
def library():
    graph = Graph(
        [
            Triple(EX.b1, RDF_TYPE, EX.Novel),
            Triple(EX.b2, RDF_TYPE, EX.Book),
            Triple(EX.b3, EX.writtenBy, EX.alice),
            Triple(EX.b1, EX.writtenBy, EX.bob),
            Triple(EX.b1, EX.hasTitle, Literal("T1")),
            Constraint.subclass(EX.Book, EX.Publication).to_triple(),
            Constraint.subclass(EX.Novel, EX.Book).to_triple(),
            Constraint.subproperty(EX.writtenBy, EX.hasAuthor).to_triple(),
            Constraint.domain(EX.writtenBy, EX.Book).to_triple(),
            Constraint.range(EX.writtenBy, EX.Person).to_triple(),
        ]
    )
    store = TripleStore.from_graph(graph)
    return store, Schema.from_graph(graph)


class TestSqlText:
    def test_cq_sql_shape(self, library):
        store, _ = library
        backend = SqliteBackend(store)
        query = ConjunctiveQuery(
            [x, y],
            [TriplePattern(x, RDF_TYPE, EX.Book), TriplePattern(x, EX.writtenBy, y)],
        )
        sql, params = backend.to_sql(query)
        assert "FROM t AS t0, t AS t1" in sql
        assert "t0.s = t1.s" in sql or "t1.s = t0.s" in sql
        assert len(params) == 3  # rdf:type, Book, writtenBy

    def test_guard_becomes_kind_filter(self, library):
        store, schema = library
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Person)])
        union = reformulate(query, schema)
        sql, _ = ucq_to_sql(union, store)
        assert "kind = 'literal'" in sql

    def test_union_sql(self, library):
        store, schema = library
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Publication)])
        sql, _ = ucq_to_sql(reformulate(query, schema), store)
        assert sql.count(" UNION ") >= 1

    def test_missing_constant_disjunct_dropped(self, library):
        store, _ = library
        union = reformulate(
            ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.NeverSeen)]),
            Schema(),
        )
        sql, params = ucq_to_sql(union, store)
        assert "WHERE 0" in sql

    def test_jucq_has_no_single_statement(self, library):
        """A JUCQ is materialised fragment by fragment (``run``); its
        plan, a projection over joined unions, does not lower."""
        store, schema = library
        query = ConjunctiveQuery(
            [x, y],
            [TriplePattern(x, RDF_TYPE, EX.Book), TriplePattern(x, EX.hasAuthor, y)],
        )
        jucq = jucq_for_cover(Cover(query, [[0], [1]]), schema)
        with pytest.raises(LoweringError):
            lower(Planner(store, annotate=False).plan(jucq))
        with pytest.raises(TypeError):
            SqliteBackend(store).to_sql(jucq)


class TestSqliteAgreesWithExecutor:
    def queries(self, schema):
        return [
            ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Publication)]),
            ConjunctiveQuery(
                [x, y],
                [
                    TriplePattern(x, RDF_TYPE, EX.Book),
                    TriplePattern(x, EX.hasAuthor, y),
                ],
            ),
            ConjunctiveQuery([x, u], [TriplePattern(x, RDF_TYPE, u)]),
            ConjunctiveQuery([], [TriplePattern(x, RDF_TYPE, EX.Novel)]),
        ]

    def test_plain_cq(self, library):
        store, schema = library
        executor = Executor(store)
        with SqliteBackend(store) as backend:
            for query in self.queries(schema):
                assert backend.run(query) == executor.run(query).answer()

    def test_ucq_reformulations(self, library):
        store, schema = library
        executor = Executor(store)
        with SqliteBackend(store) as backend:
            for query in self.queries(schema):
                union = reformulate(query, schema)
                assert backend.run(union) == executor.run(union).answer()

    def test_scq_and_jucq(self, library):
        store, schema = library
        executor = Executor(store)
        query = self.queries(schema)[1]
        with SqliteBackend(store) as backend:
            scq = scq_reformulation(query, schema)
            assert backend.run(scq) == executor.run(scq).answer()
            jucq = jucq_for_cover(Cover(query, [[0], [0, 1]]), schema)
            assert backend.run(jucq) == executor.run(jucq).answer()

    def test_lubm_workload(self):
        config = GeneratorConfig(departments=2, undergraduate_students=8,
                                 graduate_students=4, courses=4,
                                 graduate_courses=2)
        graph = generate_lubm(universities=1, seed=5, config=config)
        store = TripleStore.from_graph(graph)
        schema = store.schema
        executor = Executor(store)
        with SqliteBackend(store) as backend:
            for name in ("Q1", "Q4", "Q5", "Q6", "Q13"):
                union = reformulate(lubm_queries()[name], schema)
                assert backend.run(union) == executor.run(union).answer(), name

    def test_books_example(self):
        graph, schema, query = books_dataset()
        store = TripleStore.from_graph(graph)
        with SqliteBackend(store) as backend:
            answer = backend.run(reformulate(query, schema))
        assert answer == frozenset({(Literal("J. L. Borges"),)})


class TestRealParserLimit:
    def test_oversized_union_rejected_by_sqlite(self, library):
        """SQLite's own compound-SELECT limit rejects a big UCQ — the
        paper's parse failure, on a genuine SQL parser."""
        store, _ = library
        disjuncts = [
            ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Book)])
            for _ in range(SQLITE_COMPOUND_SELECT_LIMIT + 1)
        ]
        from repro.query import UnionQuery

        union = UnionQuery(disjuncts)
        with SqliteBackend(store) as backend:
            with pytest.raises(sqlite3.OperationalError):
                backend.run(union)


class TestWideFragments:
    """An atom with more alternatives than one compound SELECT holds:
    N classes under ``Top``, one instance each, and ``?x type Top .
    ?x p ?y``."""

    def _toy(self, classes):
        graph = Graph()
        for index in range(classes):
            graph.add(Constraint.subclass(EX["C%d" % index], EX.Top).to_triple())
            graph.add(Triple(EX["i%d" % index], RDF_TYPE, EX["C%d" % index]))
            graph.add(Triple(EX["i%d" % index], EX.p, Literal(str(index))))
        query = ConjunctiveQuery(
            [x, y], [TriplePattern(x, RDF_TYPE, EX.Top), TriplePattern(x, EX.p, y)]
        )
        return graph, query

    @pytest.mark.parametrize("strategy", ["ref-scq", "ref-gcov"])
    def test_a_fragment_past_the_limit_is_built_in_chunks(self, strategy):
        from repro.core import QueryAnswerer, Strategy
        from repro.query.evaluation import evaluate
        from repro.saturation import saturate

        graph, query = self._toy(600)
        oracle = evaluate(saturate(graph, Schema.from_graph(graph)), query)
        assert len(oracle) == 600
        for engine in ("columnar", "sqlite"):
            answer = QueryAnswerer(graph, engine=engine).answer(query, Strategy(strategy))
            assert answer.answer == oracle, engine
