"""Unit tests for the reference evaluator."""

import ast
import inspect

import pytest

from repro import BudgetExceeded, ExecutionBudget
from repro.query import (
    ConjunctiveQuery,
    JoinOfUnions,
    TriplePattern,
    UnionQuery,
    Variable,
    evaluate,
    evaluate_cq,
    evaluate_jucq,
    evaluate_ucq,
)
from repro.query import evaluation
from repro.query.evaluation import join_relations
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture
def graph():
    return Graph(
        [
            Triple(EX.a, RDF_TYPE, EX.C),
            Triple(EX.b, RDF_TYPE, EX.C),
            Triple(EX.a, EX.p, EX.b),
            Triple(EX.b, EX.p, EX.c),
            Triple(EX.a, EX.q, Literal("v")),
        ]
    )


class TestCQ:
    def test_single_atom(self, graph):
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        assert evaluate_cq(graph, query) == frozenset({(EX.a,), (EX.b,)})

    def test_join(self, graph):
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.p, z)]
        )
        assert evaluate_cq(graph, query) == frozenset({(EX.a, EX.c)})

    def test_no_match(self, graph):
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.missing, y)])
        assert evaluate_cq(graph, query) == frozenset()

    def test_boolean_true(self, graph):
        query = ConjunctiveQuery([], [TriplePattern(x, EX.p, y)])
        assert evaluate_cq(graph, query) == frozenset({()})

    def test_boolean_false(self, graph):
        query = ConjunctiveQuery([], [TriplePattern(x, EX.missing, y)])
        assert evaluate_cq(graph, query) == frozenset()

    def test_constant_head(self, graph):
        query = ConjunctiveQuery(
            [x, EX.C], [TriplePattern(x, RDF_TYPE, EX.C)]
        )
        assert (EX.a, EX.C) in evaluate_cq(graph, query)

    def test_repeated_variable_in_atom(self, graph):
        loop_graph = graph.copy()
        loop_graph.add(Triple(EX.s, EX.p, EX.s))
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, x)])
        assert evaluate_cq(loop_graph, query) == frozenset({(EX.s,)})

    def test_cross_product(self, graph):
        query = ConjunctiveQuery(
            [x, y],
            [TriplePattern(x, EX.q, Literal("v")), TriplePattern(y, RDF_TYPE, EX.C)],
        )
        assert len(evaluate_cq(graph, query)) == 2

    def test_set_semantics(self, graph):
        # Two p-edges from distinct objects project to the same subject.
        query = ConjunctiveQuery([y], [TriplePattern(y, EX.p, z)])
        assert evaluate_cq(graph, query) == frozenset({(EX.a,), (EX.b,)})


class TestUCQ:
    def test_union(self, graph):
        union = UnionQuery(
            [
                ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)]),
                ConjunctiveQuery([x], [TriplePattern(x, EX.p, EX.c)]),
            ]
        )
        assert evaluate_ucq(graph, union) == frozenset({(EX.a,), (EX.b,)})


class TestJUCQ:
    def test_join_of_unions(self, graph):
        left = UnionQuery(
            [ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])]
        )
        right = UnionQuery(
            [ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])]
        )
        jucq = JoinOfUnions([x, y], [((x,), left), ((x, y), right)])
        assert evaluate_jucq(graph, jucq) == frozenset(
            {(EX.a, EX.b), (EX.b, EX.c)}
        )

    def test_empty_fragment_short_circuits(self, graph):
        left = UnionQuery(
            [ConjunctiveQuery([x], [TriplePattern(x, EX.missing, y)])]
        )
        right = UnionQuery(
            [ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])]
        )
        jucq = JoinOfUnions([x], [((x,), left), ((x, y), right)])
        assert evaluate_jucq(graph, jucq) == frozenset()

    def test_disconnected_fragments_cross_product(self, graph):
        left = UnionQuery(
            [ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])]
        )
        right = UnionQuery(
            [ConjunctiveQuery([y], [TriplePattern(y, EX.q, Literal("v"))])]
        )
        jucq = JoinOfUnions([x, y], [((x,), left), ((y,), right)])
        assert len(evaluate_jucq(graph, jucq)) == 2

    def test_constant_in_fragment_head(self, graph):
        union = UnionQuery(
            [ConjunctiveQuery([x, EX.C], [TriplePattern(x, RDF_TYPE, EX.C)])]
        )
        jucq = JoinOfUnions([x, y], [((x, Variable("y")), union)])
        answer = evaluate_jucq(graph, jucq)
        assert (EX.a, EX.C) in answer


class TestDispatch:
    def test_evaluate_dispatches(self, graph):
        cq = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        assert evaluate(graph, cq) == evaluate_cq(graph, cq)
        union = UnionQuery([cq])
        assert evaluate(graph, union) == evaluate_ucq(graph, union)

    def test_evaluate_rejects_unknown(self, graph):
        with pytest.raises(TypeError):
            evaluate(graph, "not a query")


class TestJoinRelations:
    def test_output_is_charged_and_a_blowup_refused(self):
        """The oracle's join meters its own output — and stands alone:
        no engine under test is imported to compute it."""
        budget = ExecutionBudget(max_rows=100)
        schema, rows = join_relations(
            (x, y),
            {(EX.a, EX.b), (EX.c, EX.d)},
            (y, EX.k, z),
            {(EX.b, EX.k, EX.e), (EX.b, EX.k, EX.f), (EX.g, EX.k, EX.h)},
            budget=budget,
        )
        assert schema == (x, y, EX.k, z)
        assert rows == {(EX.a, EX.b, EX.k, EX.e), (EX.a, EX.b, EX.k, EX.f)}
        assert budget.rows_charged == 2

        left = {(EX.term("l%d" % i),) for i in range(100)}
        right = {(EX.term("r%d" % i),) for i in range(100)}
        with pytest.raises(BudgetExceeded) as info:
            join_relations(
                (x,), left, (y,), right, budget=ExecutionBudget(max_rows=2000)
            )
        assert info.value.kind == "rows"
        # Refused mid-join, not after the 10,000-row product was built.
        assert 2000 < info.value.rows_produced < 100 * 100

        packages = {
            node.module.split(".")[0]
            for node in ast.walk(ast.parse(inspect.getsource(evaluation)))
            if isinstance(node, ast.ImportFrom)
        }
        assert not packages & {"engine", "columnar", "storage"}, packages
