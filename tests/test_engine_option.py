"""Tests for the facade's engine option (builtin vs SQLite) and the
SQL-backend property test."""

import sqlite3

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro import QueryAnswerer, Strategy
from repro.datasets import generate_lubm, lubm_queries
from repro.query import ConjunctiveQuery, Cover, TriplePattern, evaluate
from repro.rdf import Graph, RDF_TYPE, Triple
from repro.reformulation import reformulate
from repro.reformulation.atoms import database_graph
from repro.schema import Constraint, Schema
from repro.storage import (
    SQLITE_COMPOUND_SELECT_LIMIT,
    SqliteBackend,
    TripleStore,
)

from tests.test_property_based import (
    CLASSES,
    INDIVIDUALS,
    _VARS,
    graph_st,
    query_st,
    schema_st,
)



class TestEngineOption:
    def test_rejects_unknown_engine(self, books):
        graph, schema, _ = books
        with pytest.raises(ValueError):
            QueryAnswerer(graph, schema, engine="oracle")

    def test_books_same_answers(self, books):
        graph, schema, query = books
        builtin = QueryAnswerer(graph, schema)
        sqlite = QueryAnswerer(graph, schema, engine="sqlite")
        for strategy in (
            Strategy.SAT,
            Strategy.REF_UCQ,
            Strategy.REF_SCQ,
            Strategy.REF_GCOV,
        ):
            assert (
                sqlite.answer(query, strategy).answer
                == builtin.answer(query, strategy).answer
            ), strategy

    def test_jucq_cover_on_sqlite(self, books):
        graph, schema, query = books
        sqlite = QueryAnswerer(graph, schema, engine="sqlite")
        cover = Cover(query, [[0, 1], [2]])
        report = sqlite.answer(query, Strategy.REF_JUCQ, cover=cover)
        assert report.cardinality == 1
        assert report.execution is None  # real engine: no plan metrics

    def test_lubm_workload_same_answers(self):
        graph = generate_lubm(universities=1, seed=7)
        builtin = QueryAnswerer(graph)
        sqlite = QueryAnswerer(graph, engine="sqlite")
        for name in ("Q1", "Q5", "Q9", "Q13"):
            query = lubm_queries()[name]
            assert (
                sqlite.answer(query, Strategy.REF_SCQ).answer
                == builtin.answer(query, Strategy.REF_SCQ).answer
            ), name

    def test_datalog_unaffected_by_engine(self, books):
        graph, schema, query = books
        sqlite = QueryAnswerer(graph, schema, engine="sqlite")
        assert sqlite.answer(query, Strategy.DATALOG).cardinality == 1


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graph_st, schema=schema_st, query=query_st())
# A subclass cycle through all five classes makes each open type atom
# 26 alternatives wide: a 676-disjunct UCQ from two atoms.
@example(
    graph=Graph([Triple(INDIVIDUALS[0], RDF_TYPE, CLASSES[0])]),
    schema=Schema(
        [
            Constraint.subclass(CLASSES[index], CLASSES[(index + 1) % 5])
            for index in range(5)
        ]
    ),
    query=ConjunctiveQuery(
        _VARS,
        [
            TriplePattern(_VARS[0], RDF_TYPE, _VARS[1]),
            TriplePattern(_VARS[2], RDF_TYPE, _VARS[3]),
        ],
    ),
)
def test_sqlite_matches_reference_property(graph, schema, query):
    """Generated SQL on SQLite == the reference evaluator, for random
    graphs, schemas and reformulated queries — up to the size SQLite
    parses; beyond it, the ``OperationalError`` that
    :meth:`SqliteBackend.run` documents."""
    union = reformulate(query, schema)
    store = TripleStore.from_graph(graph, schema)
    with SqliteBackend(store) as backend:
        # One SELECT per disjunct whose constants the store knows.
        selects = backend.to_sql(union)[0].count(" UNION ") + 1
        if selects > SQLITE_COMPOUND_SELECT_LIMIT:
            with pytest.raises(sqlite3.OperationalError):
                backend.run(union)
        else:
            db = database_graph(graph, schema)
            assert backend.run(union) == evaluate(db, union)
