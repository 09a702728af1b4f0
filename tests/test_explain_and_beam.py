"""Unit tests for plan explain output and the beam-search optimizer."""

import pytest

from repro.datasets import example1_query, generate_lubm, lubm_queries
from repro.optimizer import CoverCostEstimator, beam_search, gcov
from repro.query import ConjunctiveQuery, TriplePattern, Variable
from repro.reformulation import reformulate
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.schema import Constraint
from repro.storage import Executor, TripleStore, explain

EX = Namespace("http://example.org/")
x, y = Variable("x"), Variable("y")


@pytest.fixture(scope="module")
def small_store():
    graph = Graph(
        [
            Triple(EX.a, RDF_TYPE, EX.C),
            Triple(EX.b, RDF_TYPE, EX.C),
            Triple(EX.a, EX.p, EX.b),
            Constraint.subclass(EX.D, EX.C).to_triple(),
        ]
    )
    return TripleStore.from_graph(graph)


class TestExplain:
    def test_scan_line_decodes_constants(self, small_store):
        executor = Executor(small_store)
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        result = executor.run(query)
        text = explain(result.plan, small_store)
        assert "Scan(?x, rdf:type, C)" in text
        assert "actual=" in text

    def test_join_line(self, small_store):
        executor = Executor(small_store)
        query = ConjunctiveQuery(
            [x, y],
            [TriplePattern(x, RDF_TYPE, EX.C), TriplePattern(x, EX.p, y)],
        )
        text = explain(executor.run(query).plan, small_store)
        assert "Join" in text
        assert "?x" in text

    def test_union_elision(self, small_store):
        schema = small_store.schema
        # Build a union with several inputs by reformulating a type atom
        # against an enlarged schema.
        enlarged = schema.copy()
        for index in range(6):
            enlarged.add(Constraint.subclass(EX.term("Sub%d" % index), EX.C))
        store = TripleStore.from_graph(small_store.to_graph(), enlarged)
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        union = reformulate(query, enlarged)
        plan = Executor(store).planner.plan(union)
        text = explain(plan, store, max_union_children=2)
        assert "more inputs" in text

    def test_unexecuted_plan_has_no_actuals(self, small_store):
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        plan = Executor(small_store).planner.plan(query)
        text = explain(plan, small_store)
        assert "actual=" not in text
        assert "rows≈" in text


class TestBeamSearch:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = generate_lubm(universities=1, seed=9)
        store = TripleStore.from_graph(graph)
        return store.schema.copy(), store

    def test_beam_matches_or_beats_gcov(self, setup):
        schema, store = setup
        query = example1_query()
        estimator = CoverCostEstimator(query, schema, store)
        greedy = gcov(query, schema, store, estimator=estimator)
        beam = beam_search(query, schema, store, estimator=estimator)
        assert beam.cost <= greedy.cost

    def test_beam_width_one_close_to_greedy(self, setup):
        schema, store = setup
        query = lubm_queries()["Q9"]
        estimator = CoverCostEstimator(query, schema, store)
        greedy = gcov(query, schema, store, estimator=estimator)
        narrow = beam_search(
            query, schema, store, beam_width=1, estimator=estimator
        )
        # Width-1 beam is greedy-like; costs agree within a factor.
        assert narrow.cost <= greedy.cost * 1.01

    def test_valid_cover(self, setup):
        schema, store = setup
        query = lubm_queries()["Q2"]
        result = beam_search(query, schema, store)
        covered = set()
        for fragment in result.cover.fragments:
            covered |= fragment
        assert covered == set(range(len(query.atoms)))

    def test_explored_superset_of_rounds(self, setup):
        schema, store = setup
        query = lubm_queries()["Q7"]
        result = beam_search(query, schema, store)
        assert result.explored_count >= result.iterations
