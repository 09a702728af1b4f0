"""The columnar engine's own legs: chunk algebra, sortedness
metadata, operator behavior, and budget/metric parity.

The columnar × SQLite × reference-evaluator answer equality lives in
``tests/test_engine_equivalence.py``; this file covers what is
specific to the columnar execution path — the places where it takes a
distinctive physical route (merge unions, sorted distinct, index-range
scans) and must still answer like the reference evaluator.
"""

from __future__ import annotations

from array import array

import pytest

from repro import BudgetExceeded, ExecutionBudget
from repro.columnar.chunks import ColumnChunk, ColumnStream
from repro.columnar.engine import _ColumnarPipeline, run_columnar
from repro.columnar.indexes import StaleRunError
from repro.engine.ir import DistinctNode, ProjectNode, ScanNode, UnionNode
from repro.engine.metrics import PipelineMetrics
from repro.query import ConjunctiveQuery, TriplePattern, Variable, evaluate
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.storage import TripleStore
from repro.storage.executor import Executor

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def small_store() -> TripleStore:
    graph = Graph(
        [Triple(EX.term("s%d" % i), EX.p, EX.term("o%d" % (i % 4)))
         for i in range(12)]
        + [Triple(EX.term("s%d" % i), EX.q, Literal("l%d" % i))
           for i in range(6)]
        + [Triple(EX.term("s%d" % i), RDF_TYPE, EX.C) for i in range(8)]
        + [Triple(EX.loop, EX.p, EX.loop)]
    )
    return TripleStore.from_graph(graph)


# ---------------------------------------------------------------------------
# Chunk algebra


class TestChunks:
    def test_from_rows_round_trip(self):
        chunk = ColumnChunk([array("q", [1, 3, 5]), array("q", [2, 4, 6])])
        assert chunk.arity == 2
        assert len(chunk) == 3
        assert list(chunk.rows()) == [(1, 2), (3, 4), (5, 6)]
        assert chunk.row(1) == (3, 4)

    def test_zero_arity_chunks_carry_row_count(self):
        chunk = ColumnChunk((), 2)
        assert chunk.arity == 0
        assert len(chunk) == 2
        assert list(chunk.rows()) == [(), ()]

    def test_take_is_a_mask_selection(self):
        chunk = ColumnChunk([array("q", [1, 2, 3]), array("q", [10, 20, 30])])
        taken = chunk.take([0, 2])
        assert list(taken.rows()) == [(1, 10), (3, 30)]

    def test_non_integer_values_fall_back_to_lists(self):
        chunk = ColumnChunk([[EX.a, EX.b]])
        assert list(chunk.rows()) == [(EX.a,), (EX.b,)]


class TestSortednessMetadata:
    def test_prefix_orders(self):
        stream = ColumnStream(iter(()), order=(0, 1))
        assert stream.sorted_by(())
        assert stream.sorted_by((0,))
        assert stream.sorted_by((0, 1))
        assert not stream.sorted_by((1,))
        assert not stream.sorted_by((0, 2))

    def test_constants_are_transparent(self):
        stream = ColumnStream(iter(()), order=(0,), constants=frozenset({1}))
        assert stream.sorted_by((1, 0))
        assert stream.sorted_by((0, 1))
        assert stream.fully_sorted(2)
        assert not stream.fully_sorted(3)


# ---------------------------------------------------------------------------
# Operator behavior


class TestColumnarOperators:
    def test_scan_emits_sorted_runs(self):
        store = small_store()
        node = ScanNode(
            [("var", x), ("const", store.term_id(EX.p)), ("var", y)]
        )
        rows, _ = run_columnar(node, store)
        # POS run: rows arrive ordered by (object, subject).
        assert rows == sorted(rows, key=lambda r: (r[1], r[0]))

    def test_repeated_variable_scan_filters(self):
        store = small_store()
        node = ScanNode(
            [("var", x), ("const", store.term_id(EX.p)), ("var", x)]
        )
        rows, _ = run_columnar(node, store)
        loop = store.term_id(EX.loop)
        assert rows == [(loop,)]

    def test_all_constant_scan_yields_empty_row(self):
        store = small_store()
        node = ScanNode(
            [
                ("const", store.term_id(EX.loop)),
                ("const", store.term_id(EX.p)),
                ("const", store.term_id(EX.loop)),
            ]
        )
        rows, _ = run_columnar(node, store)
        assert rows == [()]

    def test_sorted_union_merges_and_dedups_streaming(self):
        store = small_store()
        p_id = store.term_id(EX.p)
        type_id = store.term_id(RDF_TYPE)
        scans = [
            ScanNode([("var", x), ("const", p_id), ("var", y)]),
            ScanNode([("var", x), ("const", p_id), ("var", y)]),
            ScanNode([("var", x), ("const", type_id), ("var", y)]),
        ]
        union = UnionNode(scans, scans[0].columns)
        rows, metrics = run_columnar(union, store)
        # Set semantics computed in the merge: output already distinct
        # and globally sorted (by the scans' shared (o, s) run order),
        # with zero buffered union state.
        assert len(rows) == len(set(rows))
        assert rows == sorted(rows, key=lambda r: (r[1], r[0]))
        union_entry = next(
            e for e in metrics.per_operator() if e.label.startswith("Union")
        )
        assert union_entry.peak_buffered_rows == 0

    def test_sorted_distinct_buffers_nothing(self):
        store = small_store()
        p_id = store.term_id(EX.p)
        scan = ScanNode([("var", x), ("const", p_id), ("var", y)])
        distinct = DistinctNode(scan)
        rows, metrics = run_columnar(distinct, store)
        assert len(rows) == len(set(rows))
        entry = next(
            e for e in metrics.per_operator() if e.label == "Distinct"
        )
        assert entry.peak_buffered_rows == 0
        assert entry.rows_out == len(rows)

    def test_union_of_term_constant_and_id_column(self):
        """A projected ``("term", Term)`` constant — one the store's
        dictionary lacks — is not an id, so it must not count as
        order-transparent: the union cannot merge-compare it with the
        id column the other input carries there."""
        store = small_store()
        type_id = store.term_id(RDF_TYPE)
        by_class = ProjectNode(
            ScanNode([("var", x), ("const", type_id), ("var", y)]),
            [("var", y), ("var", x)],
        )
        unstored = ProjectNode(
            ScanNode(
                [("var", x), ("const", type_id), ("const", store.term_id(EX.C))]
            ),
            [("term", EX.Unstored), ("var", x)],
        )
        union = UnionNode([by_class, unstored], [None, x])
        rows, _ = run_columnar(union, store)
        typed = {store.term_id(EX.term("s%d" % i)) for i in range(8)}
        assert set(rows) == {(store.term_id(EX.C), s) for s in typed} | {
            (EX.Unstored, s) for s in typed
        }

    def test_unordered_union_dedups_through_a_seen_set(self):
        store = small_store()
        p_id = store.term_id(EX.p)
        # The scan is sorted by (y, x); projected to (y, x) it is sorted
        # by its first column, the plain scan by its second: no common
        # total order, so the union concatenates.
        def scan():
            return ScanNode([("var", x), ("const", p_id), ("var", y)])

        def swapped():
            return ProjectNode(scan(), [("var", y), ("var", x)])

        union = UnionNode([swapped(), scan(), swapped()], [None, None])
        rows, metrics = run_columnar(union, store)
        pairs = set(run_columnar(scan(), store)[0])
        expected = pairs | {(b, a) for a, b in pairs}
        assert set(rows) == expected
        # 13 pairs each way; (loop, loop) is its own swap.
        assert metrics.actual_rows(union) == len(expected) == 25
        union_entry = next(
            e for e in metrics.per_operator() if e.label.startswith("Union")
        )
        assert union_entry.peak_buffered_rows == 25

    def test_unbound_property_patterns_agree_with_reference(self):
        store = small_store()
        executor = Executor(store)
        graph = store.to_graph()
        for query in (
            ConjunctiveQuery([x, y, z], [TriplePattern(x, y, z)]),
            ConjunctiveQuery([y], [TriplePattern(EX.s1, y, z)]),
            ConjunctiveQuery([y], [TriplePattern(x, y, EX.o1)]),
            ConjunctiveQuery([y], [TriplePattern(EX.loop, y, EX.loop)]),
        ):
            assert executor.run(query).answer() == evaluate(graph, query), query

    def test_literal_guard_matches_reference(self):
        store = small_store()
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.q, y)])
        answer = Executor(store).run(query).answer()
        assert answer == evaluate(store.to_graph(), query)
        assert all(isinstance(row[1], Literal) for row in answer)


# ---------------------------------------------------------------------------
# Budgets, metrics, and result plumbing


class TestColumnarAccounting:
    def test_budget_charges_per_chunk(self):
        store = small_store()
        node = ScanNode(
            [("var", x), ("var", y), ("var", z)]
        )
        budget = ExecutionBudget(max_rows=4)
        with pytest.raises(BudgetExceeded) as info:
            run_columnar(node, store, budget=budget, batch_size=4)
        exc = info.value
        assert exc.kind == "rows"
        # The structured partial state travels on the error: metrics
        # snapshot plus the rows collected so far.
        assert exc.partial["operators"]
        assert isinstance(exc.partial_rows, list)

    def test_metrics_count_rows_represented(self):
        store = small_store()
        node = ScanNode([("var", x), ("var", y), ("var", z)])
        rows, metrics = run_columnar(node, store, batch_size=5)
        scan_entry = metrics.per_operator()[0]
        assert scan_entry.rows_out == store.triple_count
        assert scan_entry.batches == -(-store.triple_count // 5)
        assert len(rows) == store.triple_count

    def test_execution_result_reports_columnar_peak(self):
        store = small_store()
        executor = Executor(store)
        query = ConjunctiveQuery(
            [x, y], [TriplePattern(x, EX.p, y), TriplePattern(x, RDF_TYPE, EX.C)]
        )
        result = executor.run(query)
        assert result.metrics is not None
        assert result.peak_buffered_rows == result.metrics.peak_buffered_rows

    def test_explain_cardinalities_populated(self):
        store = small_store()
        executor = Executor(store)
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        result = executor.run(query)
        assert any(
            actual is not None and actual > 0
            for _repr, _est, actual in result.node_cardinalities()
        )

    def test_write_during_scan_breaks_the_reader_rule(self):
        """A patch shifts run rows, so a scan that already emitted a
        chunk must refuse to read on after a write."""
        store = small_store()
        node = ScanNode([("var", x), ("const", store.term_id(EX.p)), ("var", y)])
        pipeline = _ColumnarPipeline(store, PipelineMetrics(), None, 4)
        chunks = pipeline.stream(node).chunks
        assert len(next(chunks)) == 4
        store.insert(Triple(EX.fresh, EX.p, EX.fresh_o))
        with pytest.raises(StaleRunError):
            next(chunks)

    def test_mutation_between_runs_is_visible(self):
        store = small_store()
        executor = Executor(store)
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        before = executor.run(query).answer()
        store.insert(Triple(EX.fresh, EX.p, EX.fresh_o))
        after = executor.run(query).answer()
        assert len(after) == len(before) + 1
