"""Unit and integration tests for the planner and executor.

The load-bearing assertion: the columnar engine computes exactly what
the reference evaluator computes, for every query form and every
backend profile's plan.
"""

import pytest

from repro.query import (
    ConjunctiveQuery,
    Cover,
    TriplePattern,
    Variable,
    evaluate,
)
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.reformulation import jucq_for_cover, reformulate, scq_reformulation
from repro.reformulation.atoms import database_graph
from repro.schema import Constraint, Schema
from repro.storage import (
    DEFAULT_BACKENDS,
    Executor,
    HASH_BACKEND,
    LOOP_BACKEND,
    MERGE_BACKEND,
    QueryTooLargeError,
    TripleStore,
    query_atom_total,
)
from repro.storage.backends import BackendProfile

EX = Namespace("http://example.org/")
x, y, z, u = Variable("x"), Variable("y"), Variable("z"), Variable("u")


def library_graph():
    return Graph(
        [
            Triple(EX.b1, RDF_TYPE, EX.Novel),
            Triple(EX.b2, RDF_TYPE, EX.Book),
            Triple(EX.b3, EX.writtenBy, EX.alice),
            Triple(EX.b1, EX.writtenBy, EX.bob),
            Triple(EX.alice, EX.knows, EX.bob),
            Triple(EX.b1, EX.hasTitle, Literal("T1")),
            Constraint.subclass(EX.Book, EX.Publication).to_triple(),
            Constraint.subclass(EX.Novel, EX.Book).to_triple(),
            Constraint.subproperty(EX.writtenBy, EX.hasAuthor).to_triple(),
            Constraint.domain(EX.writtenBy, EX.Book).to_triple(),
            Constraint.range(EX.writtenBy, EX.Person).to_triple(),
        ]
    )


@pytest.fixture
def setup():
    graph = library_graph()
    schema = Schema.from_graph(graph)
    store = TripleStore.from_graph(graph)
    db = database_graph(graph, schema)
    return graph, schema, store, db


def queries():
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
        ConjunctiveQuery(
            [x],
            [
                TriplePattern(x, EX.writtenBy, y),
                TriplePattern(y, EX.knows, z),
            ],
        ),
        # Boolean query.
        ConjunctiveQuery([], [TriplePattern(x, RDF_TYPE, EX.Novel)]),
        # Repeated variable.
        ConjunctiveQuery([x], [TriplePattern(x, EX.knows, x)]),
        # Unbound property.
        ConjunctiveQuery([x, u, y], [TriplePattern(x, u, y)]),
    ]


class TestAgainstReference:
    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS, ids=lambda b: b.name)
    def test_cq_matches_reference(self, setup, backend):
        graph, schema, store, db = setup
        executor = Executor(store, backend)
        for query in queries():
            assert executor.run(query).answer() == evaluate(db, query)

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS, ids=lambda b: b.name)
    def test_ucq_matches_reference(self, setup, backend):
        graph, schema, store, db = setup
        executor = Executor(store, backend)
        for query in queries()[:4]:
            union = reformulate(query, schema)
            assert executor.run(union).answer() == evaluate(db, union)

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS, ids=lambda b: b.name)
    def test_jucq_matches_reference(self, setup, backend):
        graph, schema, store, db = setup
        executor = Executor(store, backend)
        query = queries()[1]
        for cover_spec in ([[0], [1]], [[0, 1]], [[0], [0, 1]]):
            jucq = jucq_for_cover(Cover(query, cover_spec), schema)
            assert executor.run(jucq).answer() == evaluate(db, jucq)

    def test_scq_matches_reference(self, setup):
        graph, schema, store, db = setup
        executor = Executor(store)
        for query in queries()[:4]:
            scq = scq_reformulation(query, schema)
            assert executor.run(scq).answer() == evaluate(db, scq)


class TestPlannerBehaviour:
    def test_missing_constant_gives_empty(self, setup):
        _, _, store, _ = setup
        executor = Executor(store)
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.nope, EX.alsonope)])
        result = executor.run(query)
        assert result.answer() == frozenset()

    def test_parse_limit_enforced(self, setup):
        graph, schema, store, _ = setup
        tiny = BackendProfile("tiny", max_query_atoms=2)
        executor = Executor(store, tiny)
        query = queries()[1]
        union = reformulate(query, schema)
        assert query_atom_total(union) > 2
        with pytest.raises(QueryTooLargeError):
            executor.run(union)

    def test_atom_total(self, setup):
        graph, schema, _, _ = setup
        query = queries()[1]
        assert query_atom_total(query) == 2
        union = reformulate(query, schema)
        assert query_atom_total(union) == union.atom_count()

    def test_cardinalities_recorded(self, setup):
        _, _, store, _ = setup
        executor = Executor(store)
        result = executor.run(queries()[0])
        cards = result.node_cardinalities()
        assert all(actual is not None for _, _, actual in cards)
        assert result.max_intermediate_rows() >= result.row_count

    def test_projection_emits_constants(self, setup):
        _, _, store, _ = setup
        executor = Executor(store)
        query = ConjunctiveQuery(
            [x, EX.Book], [TriplePattern(x, RDF_TYPE, EX.Book)]
        )
        answer = executor.run(query).answer()
        assert all(row[1] == EX.Book for row in answer)

    def test_empty_store(self):
        executor = Executor(TripleStore())
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        assert executor.run(query).answer() == frozenset()


class TestJoinAlgorithms:
    """Whichever join algorithm a backend profile prices, its plan gives
    the reference answer."""

    def test_join_algorithms_agree(self, setup):
        _, schema, store, db = setup
        query = queries()[3]
        for backend in (HASH_BACKEND, MERGE_BACKEND, LOOP_BACKEND):
            answer = Executor(store, backend).run(query).answer()
            assert answer == evaluate(db, query), backend.name

    def test_cross_product_join(self, setup):
        _, _, store, _ = setup
        query = ConjunctiveQuery(
            [x, y],
            [
                TriplePattern(x, RDF_TYPE, EX.Novel),
                TriplePattern(y, EX.knows, z),
            ],
        )
        for backend in DEFAULT_BACKENDS:
            result = Executor(store, backend).run(query)
            assert result.answer() == frozenset({(EX.b1, EX.alice)})
