"""Unit tests for cardinality estimation and plan costing."""

import pytest

from repro.cost import annotate_plan, cardinality
from repro.query import ConjunctiveQuery, TriplePattern, Variable
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.storage import (
    Executor,
    HASH_BACKEND,
    LOOP_BACKEND,
    Planner,
    ScanNode,
    TripleStore,
)

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def skewed_store():
    graph = Graph()
    # 100 instances of C, 5 of D; p fans out 2 objects per subject.
    for index in range(100):
        graph.add(Triple(EX.term("c%d" % index), RDF_TYPE, EX.C))
    for index in range(5):
        graph.add(Triple(EX.term("d%d" % index), RDF_TYPE, EX.D))
    for index in range(50):
        subject = EX.term("c%d" % index)
        graph.add(Triple(subject, EX.p, EX.term("o%d" % (index % 10))))
        graph.add(Triple(subject, EX.p, EX.term("o%d" % ((index + 1) % 10))))
    return TripleStore.from_graph(graph)


def scan_for(store, pattern):
    planner = Planner(store)
    scan = planner._scan_for_atom(pattern)
    assert scan is not None
    annotate_plan(scan, store.statistics, HASH_BACKEND, store.type_property_id)
    return scan


class TestScanEstimates:
    def test_type_scan_uses_exact_class_count(self):
        store = skewed_store()
        scan = scan_for(store, TriplePattern(x, RDF_TYPE, EX.C))
        assert scan.estimated_rows == 100.0
        scan = scan_for(store, TriplePattern(x, RDF_TYPE, EX.D))
        assert scan.estimated_rows == 5.0

    def test_property_extent(self):
        store = skewed_store()
        scan = scan_for(store, TriplePattern(x, EX.p, y))
        assert scan.estimated_rows == 100.0

    def test_bound_subject_uses_distincts(self):
        store = skewed_store()
        scan = scan_for(store, TriplePattern(EX.term("c0"), EX.p, y))
        # 100 triples / 50 distinct subjects = 2 per subject.
        assert scan.estimated_rows == pytest.approx(2.0)

    def test_bound_object_uses_distincts(self):
        store = skewed_store()
        scan = scan_for(store, TriplePattern(x, EX.p, EX.term("o0")))
        assert scan.estimated_rows == pytest.approx(10.0)

    def test_unbound_property_is_table_scan(self):
        store = skewed_store()
        scan = scan_for(store, TriplePattern(x, z, y))
        assert scan.estimated_rows == float(store.triple_count)

    def test_estimates_match_actuals_exactly_here(self):
        # On uniform data the estimates should be spot on.
        store = skewed_store()
        executor = Executor(store)
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        result = executor.run(query)
        scan = next(n for n in result.plan.walk() if isinstance(n, ScanNode))
        assert scan.actual_rows == int(scan.estimated_rows)


class TestJoinEstimates:
    def test_system_r_formula(self):
        rows = cardinality.estimate_join(
            100.0, 50.0, {x: 10.0}, {x: 25.0}, (x,)
        )
        assert rows == pytest.approx(100.0 * 50.0 / 25.0)

    def test_cross_product(self):
        assert cardinality.estimate_join(10.0, 7.0, {}, {}, ()) == 70.0

    def test_join_plan_estimate_close_to_actual(self):
        store = skewed_store()
        executor = Executor(store)
        query = ConjunctiveQuery(
            [x, y],
            [
                TriplePattern(x, RDF_TYPE, EX.C),
                TriplePattern(x, EX.p, y),
            ],
        )
        result = executor.run(query)
        root = result.plan
        # Estimated and actual within a small factor on uniform data.
        assert root.estimated_rows == pytest.approx(result.row_count, rel=0.5)


class TestCostOrdering:
    """Only relative costs matter; check the obvious dominances."""

    def test_larger_scan_costs_more(self):
        store = skewed_store()
        cheap = scan_for(store, TriplePattern(x, RDF_TYPE, EX.D))
        pricey = scan_for(store, TriplePattern(x, RDF_TYPE, EX.C))
        assert pricey.estimated_cost > cheap.estimated_cost

    def test_nested_loop_priciest_on_large_inputs(self):
        store = skewed_store()
        query = ConjunctiveQuery(
            [x, y],
            [
                TriplePattern(x, RDF_TYPE, EX.C),
                TriplePattern(x, EX.p, y),
            ],
        )
        costs = {
            backend.name: Planner(store, backend)
            .plan(query)
            .total_estimated_cost()
            for backend in (HASH_BACKEND, LOOP_BACKEND)
        }
        assert costs["loopdb"] > costs["hashdb"]

    def test_distinct_bounded_by_input(self):
        assert cardinality.distinct_output_rows(10.0, {x: 3.0}) == 3.0
        assert cardinality.distinct_output_rows(2.0, {x: 30.0}) == 2.0
        assert cardinality.distinct_output_rows(0.0, {}) == 0.0


class TestPlannerAnnotation:
    """The planner costs each node once, as it builds it."""

    def test_each_node_of_a_jucq_plan_is_annotated_once(self, monkeypatch):
        from repro.cost import annotate_node
        from repro.datasets import (
            example1_best_cover,
            example1_query,
            generate_lubm,
        )
        from repro.reformulation import jucq_for_cover
        from repro.storage import planner as planner_module

        store = TripleStore.from_graph(generate_lubm(universities=1, seed=9))
        query = example1_query()
        jucq = jucq_for_cover(example1_best_cover(query), store.schema)
        calls = []

        def counting(node, *args):
            calls.append(id(node))
            return annotate_node(node, *args)

        monkeypatch.setattr(planner_module, "annotate_node", counting)
        plan = Planner(store).plan(jucq)
        nodes = list(plan.walk())
        assert len(nodes) > 100
        assert sorted(calls) == sorted(id(node) for node in nodes)

        # Annotating the whole tree again changes no estimate.
        before = [
            (n.estimated_rows, n.estimated_cost, dict(n.column_distincts))
            for n in nodes
        ]
        annotate_plan(
            plan, store.statistics, HASH_BACKEND, store.type_property_id
        )
        assert before == [
            (n.estimated_rows, n.estimated_cost, dict(n.column_distincts))
            for n in nodes
        ]
