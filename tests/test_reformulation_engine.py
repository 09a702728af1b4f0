"""Unit tests for the CQ-to-UCQ engine: sizes, guards, equivalence."""

import pytest

from repro.query import ConjunctiveQuery, Cover, TriplePattern, Variable, evaluate
from repro.query.evaluation import evaluate_cq
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.reformulation import (
    ReformulationTooLarge,
    iterate_reformulations,
    jucq_for_cover,
    jucq_fragment_sizes,
    reformulate,
    scq_reformulation,
    ucq_size,
)
from repro.reformulation.atoms import database_graph
from repro.saturation import saturate
from repro.schema import Constraint, Schema

EX = Namespace("http://example.org/")
x, y, u, v = Variable("x"), Variable("y"), Variable("u"), Variable("v")


def library_schema():
    return Schema(
        [
            Constraint.subclass(EX.Book, EX.Publication),
            Constraint.subclass(EX.Novel, EX.Book),
            Constraint.subproperty(EX.writtenBy, EX.hasAuthor),
            Constraint.domain(EX.writtenBy, EX.Book),
            Constraint.range(EX.writtenBy, EX.Person),
        ]
    )


class TestSizes:
    def test_size_is_product_when_independent(self):
        schema = library_schema()
        query = ConjunctiveQuery(
            [x],
            [
                TriplePattern(x, RDF_TYPE, EX.Publication),
                TriplePattern(x, EX.hasAuthor, y),
            ],
        )
        per_atom = [
            len(list(iterate_reformulations(
                ConjunctiveQuery(sorted(atom.variables()), [atom]), schema
            )))
            for atom in query.atoms
        ]
        assert ucq_size(query, schema) == per_atom[0] * per_atom[1]

    def test_size_matches_materialization(self):
        schema = library_schema()
        query = ConjunctiveQuery(
            [x, u],
            [
                TriplePattern(x, RDF_TYPE, u),
                TriplePattern(x, EX.hasAuthor, y),
            ],
        )
        union = reformulate(query, schema)
        assert len(union) == ucq_size(query, schema)

    def test_shared_class_variable_counts_conflicts(self):
        schema = library_schema()
        # u is the class of both x and y: bindings must agree.
        query = ConjunctiveQuery(
            [x, y, u],
            [
                TriplePattern(x, RDF_TYPE, u),
                TriplePattern(y, RDF_TYPE, u),
            ],
        )
        size = ucq_size(query, schema)
        union = reformulate(query, schema)
        assert len(union) == size
        # Conflicting bindings must have been dropped: fewer than the
        # independent product.
        single = ucq_size(
            ConjunctiveQuery([x, u], [TriplePattern(x, RDF_TYPE, u)]), schema
        )
        assert size < single * single

    def test_guard_raises_without_materializing(self):
        schema = library_schema()
        query = ConjunctiveQuery(
            [x, u],
            [TriplePattern(x, RDF_TYPE, u)],
        )
        with pytest.raises(ReformulationTooLarge) as info:
            reformulate(query, schema, max_disjuncts=1)
        assert info.value.size == ucq_size(query, schema)


class TestEquivalence:
    """The correctness contract: q(G∞) = q_ref(db) for every strategy."""

    def graph(self):
        return Graph(
            [
                Triple(EX.b1, RDF_TYPE, EX.Novel),
                Triple(EX.b2, RDF_TYPE, EX.Book),
                Triple(EX.b3, EX.writtenBy, EX.alice),
                Triple(EX.b3, EX.hasTitle, EX.t1),
                Triple(EX.alice, EX.knows, EX.bob),
            ]
        )

    def queries(self):
        return [
            ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Publication)]),
            ConjunctiveQuery([x, y], [TriplePattern(x, EX.hasAuthor, y)]),
            ConjunctiveQuery(
                [x, u],
                [
                    TriplePattern(x, RDF_TYPE, u),
                    TriplePattern(x, EX.writtenBy, y),
                ],
            ),
            ConjunctiveQuery(
                [x, y],
                [
                    TriplePattern(x, RDF_TYPE, EX.Book),
                    TriplePattern(x, EX.hasAuthor, y),
                ],
            ),
            ConjunctiveQuery(
                [x, v, y],
                [TriplePattern(x, v, y)],
            ),
        ]

    def test_ucq_equals_saturation(self):
        schema = library_schema()
        graph = self.graph()
        db = database_graph(graph, schema)
        saturated = saturate(graph, schema)
        for query in self.queries():
            expected = evaluate_cq(saturated, query)
            assert evaluate(db, reformulate(query, schema)) == expected

    def test_scq_equals_saturation(self):
        schema = library_schema()
        graph = self.graph()
        db = database_graph(graph, schema)
        saturated = saturate(graph, schema)
        for query in self.queries():
            expected = evaluate_cq(saturated, query)
            assert evaluate(db, scq_reformulation(query, schema)) == expected

    def test_every_partition_cover_equals_saturation(self):
        from repro.query import enumerate_partition_covers

        schema = library_schema()
        graph = self.graph()
        db = database_graph(graph, schema)
        saturated = saturate(graph, schema)
        query = self.queries()[3]
        expected = evaluate_cq(saturated, query)
        for cover in enumerate_partition_covers(query):
            jucq = jucq_for_cover(cover, schema)
            assert evaluate(db, jucq) == expected

    def test_overlapping_cover_equals_saturation(self):
        schema = library_schema()
        graph = self.graph()
        db = database_graph(graph, schema)
        query = ConjunctiveQuery(
            [x, y],
            [
                TriplePattern(x, RDF_TYPE, EX.Book),
                TriplePattern(x, EX.hasAuthor, y),
                TriplePattern(x, EX.hasTitle, Variable("t")),
            ],
        )
        expected = evaluate_cq(saturate(graph, schema), query)
        cover = Cover(query, [[0, 1], [1, 2]])
        assert evaluate(db, jucq_for_cover(cover, schema)) == expected


class TestJucqHelpers:
    def test_fragment_sizes(self):
        schema = library_schema()
        query = ConjunctiveQuery(
            [x, u],
            [
                TriplePattern(x, RDF_TYPE, u),
                TriplePattern(x, EX.hasAuthor, y),
            ],
        )
        sizes = jucq_fragment_sizes(Cover.per_atom(query), schema)
        assert sizes == [
            ucq_size(ConjunctiveQuery([x, u], [query.atoms[0]]), schema),
            ucq_size(ConjunctiveQuery([x], [query.atoms[1]]), schema),
        ]

    def test_scq_is_per_atom(self):
        schema = library_schema()
        query = ConjunctiveQuery(
            [x],
            [
                TriplePattern(x, RDF_TYPE, EX.Book),
                TriplePattern(x, EX.hasAuthor, y),
            ],
        )
        scq = scq_reformulation(query, schema)
        assert scq.fragment_count() == 2
        # Each fragment is a union of atomic (1-atom) CQs.
        for union in scq.fragments:
            assert all(len(cq.atoms) == 1 for cq in union)

    def test_scq_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            scq_reformulation("nope", library_schema())
