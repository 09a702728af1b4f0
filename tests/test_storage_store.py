"""Unit tests for the dictionary and triple store."""

import pytest

from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.schema import Constraint, Schema
from repro.storage import Dictionary, TripleStore

EX = Namespace("http://example.org/")


class TestDictionary:
    def test_encode_is_dense_and_stable(self):
        dictionary = Dictionary()
        first = dictionary.encode(EX.a)
        second = dictionary.encode(EX.b)
        assert (first, second) == (0, 1)
        assert dictionary.encode(EX.a) == first

    def test_decode_roundtrip(self):
        dictionary = Dictionary()
        term_id = dictionary.encode(Literal("v"))
        assert dictionary.decode(term_id) == Literal("v")

    def test_lookup_never_mutates(self):
        dictionary = Dictionary()
        assert dictionary.lookup(EX.a) is None
        assert len(dictionary) == 0

    def test_decode_unknown_raises(self):
        with pytest.raises(KeyError):
            Dictionary().decode(0)

    def test_contains(self):
        dictionary = Dictionary()
        dictionary.encode(EX.a)
        assert EX.a in dictionary
        assert EX.b not in dictionary


class TestTripleStore:
    def graph(self):
        return Graph(
            [
                Triple(EX.a, RDF_TYPE, EX.C),
                Triple(EX.b, RDF_TYPE, EX.C),
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.C, Constraint.subclass(EX.C, EX.D).kind.property_uri, EX.D),
            ]
        )

    def test_load_counts(self):
        store = TripleStore.from_graph(self.graph())
        # 3 data triples + direct constraint + (no extra entailed).
        assert store.triple_count == 4

    def test_closed_schema_stored(self):
        graph = Graph(
            [
                Triple(EX.a, RDF_TYPE, EX.A),
                Constraint.subclass(EX.A, EX.B).to_triple(),
                Constraint.subclass(EX.B, EX.C).to_triple(),
            ]
        )
        store = TripleStore.from_graph(graph)
        entailed = Constraint.subclass(EX.A, EX.C).to_triple()
        encoded = tuple(
            store.term_id(term) for term in entailed.as_tuple()
        )
        assert None not in encoded
        assert store.contains(encoded)  # type: ignore[arg-type]

    def test_separate_schema_argument(self):
        data = Graph([Triple(EX.a, RDF_TYPE, EX.A)])
        schema = Schema([Constraint.subclass(EX.A, EX.B)])
        store = TripleStore.from_graph(data, schema)
        assert store.schema.superclasses(EX.A) == {EX.B}

    def test_duplicate_insert_ignored(self):
        store = TripleStore()
        triple = Triple(EX.a, EX.p, EX.b)
        assert store.insert(triple) is True
        assert store.insert(triple) is False
        assert store.triple_count == 1

    def test_scan_property(self):
        store = TripleStore.from_graph(self.graph())
        p_id = store.term_id(EX.p)
        assert len(list(store.match(property_id=p_id))) == 1

    def test_scan_property_subject(self):
        store = TripleStore.from_graph(self.graph())
        p_id, a_id = store.term_id(EX.p), store.term_id(EX.a)
        assert [o for _, _, o in store.match(a_id, p_id)] == [
            store.term_id(EX.b)
        ]

    def test_scan_property_object(self):
        store = TripleStore.from_graph(self.graph())
        type_id, c_id = store.term_id(RDF_TYPE), store.term_id(EX.C)
        subjects = {s for s, _, _ in store.match(None, type_id, c_id)}
        assert subjects == {store.term_id(EX.a), store.term_id(EX.b)}

    def test_scan_missing_property(self):
        store = TripleStore.from_graph(self.graph())
        assert list(store.match(property_id=99999)) == []
        assert list(store.match(0, 99999)) == []

    def test_type_property_id(self):
        store = TripleStore.from_graph(self.graph())
        assert store.type_property_id == store.term_id(RDF_TYPE)

    def test_to_graph_roundtrip(self):
        graph = self.graph()
        store = TripleStore.from_graph(graph)
        decoded = store.to_graph()
        for triple in graph:
            assert triple in decoded


class TestStatistics:
    def test_summary(self, lubm_small_store):
        summary = lubm_small_store.statistics.summary()
        assert summary["triples"] == lubm_small_store.triple_count
        assert summary["properties"] > 10
        assert summary["classes"] > 5

    def test_class_cardinality(self):
        store = TripleStore.from_graph(
            Graph(
                [
                    Triple(EX.a, RDF_TYPE, EX.C),
                    Triple(EX.b, RDF_TYPE, EX.C),
                    Triple(EX.c, RDF_TYPE, EX.D),
                ]
            )
        )
        c_id = store.term_id(EX.C)
        assert store.statistics.class_count(c_id) == 2

    def test_property_distincts(self):
        store = TripleStore.from_graph(
            Graph(
                [
                    Triple(EX.a, EX.p, EX.x),
                    Triple(EX.a, EX.p, EX.y),
                    Triple(EX.b, EX.p, EX.x),
                ]
            )
        )
        p_id = store.term_id(EX.p)
        stats = store.statistics
        assert stats.property_count(p_id) == 3
        assert stats.property_distinct_subjects(p_id) == 2
        assert stats.property_distinct_objects(p_id) == 2

    def test_absent_property_zeroes(self):
        store = TripleStore()
        assert store.statistics.property_count(123) == 0
        assert store.statistics.property_distinct_subjects(123) == 0

    def test_top_values(self):
        store = TripleStore.from_graph(
            Graph(
                [
                    Triple(EX.a, EX.p, EX.x),
                    Triple(EX.a, EX.p, EX.y),
                    Triple(EX.b, EX.p, EX.z),
                ]
            )
        )
        p_id = store.term_id(EX.p)
        top = store.statistics.per_property[p_id].top_subjects(1)
        assert top[0][0] == store.term_id(EX.a)
        assert top[0][1] == 2
