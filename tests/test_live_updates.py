"""Tests for live updates through the whole stack: store deletion,
saturator deltas, and the facade's insert/delete."""


from repro import QueryAnswerer, Strategy
from repro.datasets import generate_lubm, lubm_queries
from repro.query import Variable
from repro.rdf import Namespace, RDF_TYPE, Triple
from repro.saturation import IncrementalSaturator
from repro.schema import Constraint, Schema
from repro.storage import TripleStore

EX = Namespace("http://example.org/")
x = Variable("x")


class TestStoreDelete:
    def test_delete_removes_everywhere(self):
        store = TripleStore()
        triple = Triple(EX.a, EX.p, EX.b)
        store.insert(triple)
        p_id = store.term_id(EX.p)
        assert len(list(store.match(property_id=p_id))) == 1  # runs built
        assert store.delete(triple) is True
        assert store.triple_count == 0
        assert list(store.match(property_id=p_id)) == []
        assert store.statistics.property_count(p_id) == 0

    def test_delete_absent_is_noop(self):
        store = TripleStore()
        assert store.delete(Triple(EX.a, EX.p, EX.b)) is False

    def test_delete_keeps_siblings(self):
        store = TripleStore()
        first = Triple(EX.a, EX.p, EX.b)
        second = Triple(EX.a, EX.p, EX.c)
        store.insert(first)
        store.insert(second)
        p_id, a_id = store.term_id(EX.p), store.term_id(EX.a)
        assert len(list(store.match(a_id, p_id))) == 2  # runs built
        store.delete(first)
        assert [o for _, _, o in store.match(a_id, p_id)] == [
            store.term_id(EX.c)
        ]
        assert store.statistics.property_count(p_id) == 1

    def test_class_cardinality_maintained(self):
        store = TripleStore()
        triple = Triple(EX.a, RDF_TYPE, EX.C)
        store.insert(triple)
        store.delete(triple)
        assert store.statistics.class_count(store.term_id(EX.C)) == 0


class TestSaturatorDeltas:
    def test_insert_returns_delta(self):
        schema = Schema([Constraint.subclass(EX.A, EX.B)])
        saturator = IncrementalSaturator(schema)
        delta = saturator.insert(Triple(EX.i, RDF_TYPE, EX.A))
        assert set(delta) == {
            Triple(EX.i, RDF_TYPE, EX.A),
            Triple(EX.i, RDF_TYPE, EX.B),
        }

    def test_reinsert_returns_empty(self):
        saturator = IncrementalSaturator(Schema())
        triple = Triple(EX.a, EX.p, EX.b)
        saturator.insert(triple)
        assert saturator.insert(triple) == []

    def test_delete_returns_removed(self):
        schema = Schema([Constraint.subclass(EX.A, EX.B)])
        saturator = IncrementalSaturator(schema)
        triple = Triple(EX.i, RDF_TYPE, EX.A)
        saturator.insert(triple)
        removed = saturator.delete(triple)
        assert set(removed) == {
            Triple(EX.i, RDF_TYPE, EX.A),
            Triple(EX.i, RDF_TYPE, EX.B),
        }

    def test_delete_shared_support_partial(self):
        schema = Schema([Constraint.domain(EX.p, EX.C)])
        saturator = IncrementalSaturator(schema)
        first = Triple(EX.a, EX.p, EX.b)
        second = Triple(EX.a, EX.p, EX.c)
        saturator.insert(first)
        saturator.insert(second)
        removed = saturator.delete(first)
        # (a type C) is still supported by the second triple.
        assert Triple(EX.a, RDF_TYPE, EX.C) not in removed
        assert first in removed


class TestFacadeUpdates:
    def fresh_equal(self, answerer, model, query):
        """Answers after updates == answers of an answerer freshly
        built from *model*, the test's own graph with the same writes
        applied (the answerer keeps no graph of its own)."""
        fresh = QueryAnswerer(model, answerer.schema)
        for strategy in (Strategy.SAT, Strategy.REF_UCQ, Strategy.REF_SCQ):
            assert (
                answerer.answer(query, strategy).answer
                == fresh.answer(query, strategy).answer
            ), strategy

    def test_insert_visible_to_all_strategies(self, books):
        graph, schema, query = books
        answerer = QueryAnswerer(graph, schema)
        model = graph.copy()
        # Warm the saturated store so insert must maintain it.
        answerer.answer(query, Strategy.SAT)
        from repro.datasets.books import BOOKS
        from repro.rdf import BlankNode, Literal

        b2 = BlankNode("b2")
        for triple in (
            Triple(BOOKS.doi2, BOOKS.writtenBy, b2),
            Triple(b2, BOOKS.hasName, Literal("I. Calvino")),
            Triple(BOOKS.doi2, BOOKS.publishedIn, Literal("1949")),
        ):
            assert answerer.insert(triple)
            model.add(triple)
        report = answerer.answer(query, Strategy.SAT)
        assert (Literal("I. Calvino"),) in report.answer
        self.fresh_equal(answerer, model, query)

    def test_delete_visible_to_all_strategies(self, books):
        graph, schema, query = books
        answerer = QueryAnswerer(graph, schema)
        model = graph.copy()
        answerer.answer(query, Strategy.SAT)
        from repro.datasets.books import BOOKS
        from repro.rdf import BlankNode

        triple = Triple(BOOKS.doi1, BOOKS.writtenBy, BlankNode("b1"))
        assert answerer.delete(triple)
        model.discard(triple)
        report = answerer.answer(query, Strategy.SAT)
        assert report.cardinality == 0
        self.fresh_equal(answerer, model, query)

    def test_updates_before_saturation_built(self, books):
        graph, schema, query = books
        answerer = QueryAnswerer(graph.copy(), schema)
        from repro.datasets.books import BOOKS
        from repro.rdf import BlankNode

        answerer.delete(Triple(BOOKS.doi1, BOOKS.writtenBy, BlankNode("b1")))
        assert answerer.answer(query, Strategy.SAT).cardinality == 0

    def test_sqlite_engine_sees_updates(self, books):
        graph, schema, query = books
        answerer = QueryAnswerer(graph.copy(), schema, engine="sqlite")
        answerer.answer(query, Strategy.REF_UCQ)
        from repro.datasets.books import BOOKS
        from repro.rdf import BlankNode

        answerer.delete(Triple(BOOKS.doi1, BOOKS.writtenBy, BlankNode("b1")))
        assert answerer.answer(query, Strategy.REF_UCQ).cardinality == 0

    def test_update_churn_on_lubm(self):
        graph = generate_lubm(universities=1, seed=11)
        answerer = QueryAnswerer(graph.copy())
        query = lubm_queries()["Q6"]
        before = answerer.answer(query, Strategy.SAT).cardinality
        from repro.datasets.lubm import UB

        newcomers = [
            Triple(EX.term("new%d" % index), RDF_TYPE, UB.GraduateStudent)
            for index in range(5)
        ]
        for triple in newcomers:
            answerer.insert(triple)
        assert answerer.answer(query, Strategy.SAT).cardinality == before + 5
        assert answerer.answer(query, Strategy.REF_SCQ).cardinality == before + 5
        for triple in newcomers:
            answerer.delete(triple)
        assert answerer.answer(query, Strategy.SAT).cardinality == before
