"""Differential harness: materialized vs columnar (vs SQLite).

Both in-process engines interpret the same plan IR
(:mod:`repro.engine.ir`), and the SQL lowering hands it to SQLite, so
their contract is testable head-to-head as a byte-identical matrix:

* identical answers for every strategy on the books example and a
  LUBM micro workload (and on the reference evaluator's answers);
* on the Example-1-style SCQ blowup, the columnar engine's memory
  high-water mark (``peak_buffered_rows``) stays strictly below the
  materialized interpreter's largest operator output;
* a row budget aborts the columnar run mid-stream — before the blowup
  materializes — and the error carries the partial metrics and decoded
  partial answer that the degraded-answer path (``allow_partial``)
  turns into a ``CompletenessReport``.
"""

import pytest

from repro import BudgetExceeded, ExecutionBudget, QueryAnswerer, Strategy
from repro.cache import QueryCache
from repro.datasets import example1_query, lubm_queries
from repro.query import (
    ConjunctiveQuery,
    Cover,
    TriplePattern,
    UnionQuery,
    Variable,
    evaluate,
    evaluate_cq,
)
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.reformulation import ReformulationTooLarge
from repro.schema import Constraint, Schema
from repro.storage import (
    LOOP_BACKEND,
    MERGE_BACKEND,
    QueryTooLargeError,
    TripleStore,
)
from repro.storage.executor import Executor

EX = Namespace("http://example.org/")
x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")

STRATEGIES = [
    Strategy.SAT,
    Strategy.REF_UCQ,
    Strategy.REF_SCQ,
    Strategy.REF_JUCQ,
    Strategy.REF_GCOV,
]
STRATEGY_IDS = [strategy.value for strategy in STRATEGIES]

SUBCLASSES = 20
PER_CLASS = 50


def _cover_for(strategy, query):
    return Cover.per_atom(query) if strategy is Strategy.REF_JUCQ else None


@pytest.fixture(scope="module")
def blowup():
    """Example 1 in miniature: a wide type hierarchy (1000 typed
    instances) joined with a single selective ``p`` edge, so the SCQ's
    type fragment materializes a 1000-row union for a one-row answer."""
    schema = Schema(
        [
            Constraint.subclass(EX.term("C%d" % i), EX.C0)
            for i in range(1, SUBCLASSES + 1)
        ]
    )
    graph = Graph()
    for class_index in range(1, SUBCLASSES + 1):
        for instance in range(PER_CLASS):
            graph.add(
                Triple(
                    EX.term("i%d_%d" % (class_index, instance)),
                    RDF_TYPE,
                    EX.term("C%d" % class_index),
                )
            )
    graph.add(Triple(EX.i1_0, EX.p, EX.o0))
    query = ConjunctiveQuery(
        [x, y], [TriplePattern(x, RDF_TYPE, EX.C0), TriplePattern(x, EX.p, y)]
    )
    return graph, schema, query


#: The in-process engines of the differential matrix.
ALL_ENGINES = ["materialized", "columnar"]


@pytest.fixture(scope="module")
def lubm_answerers():
    from repro.datasets import generate_lubm

    graph = generate_lubm(universities=1, seed=3)
    return {
        engine: QueryAnswerer(graph, engine=engine) for engine in ALL_ENGINES
    }


class TestBooksDifferential:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_same_answers(self, books, books_saturated, strategy):
        graph, schema, query = books
        materialized = QueryAnswerer(graph, schema, engine="materialized")
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        sqlite = QueryAnswerer(graph, schema, engine="sqlite")
        cover = _cover_for(strategy, query)
        rm = materialized.answer(query, strategy, cover=cover)
        rc = columnar.answer(query, strategy, cover=cover)
        rs = sqlite.answer(query, strategy, cover=cover)
        assert rc.answer == rm.answer, strategy
        assert rs.answer == rm.answer, strategy
        # All agree with the reference evaluator over the saturation.
        assert rc.answer == evaluate_cq(books_saturated, query)
        # Engine identity travels on the result, with metrics only on
        # the streaming engine (and no execution at all from SQLite).
        assert rm.execution.engine == "materialized"
        assert rm.execution.metrics is None
        assert rs.execution is None
        assert rc.execution.engine == "columnar"
        assert rc.execution.metrics is not None
        assert rc.execution.metrics.total_rows_out() > 0

    def test_builtin_is_materialized_alias(self, books):
        graph, schema, query = books
        answerer = QueryAnswerer(graph, schema, engine="builtin")
        report = answerer.answer(query, Strategy.REF_UCQ)
        assert report.execution.engine == "materialized"


class TestLubmDifferential:
    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q9", "Q13", "Ex1"])
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_same_answers(self, lubm_answerers, name, strategy):
        materialized = lubm_answerers["materialized"]
        query = example1_query() if name == "Ex1" else lubm_queries()[name]
        cover = _cover_for(strategy, query)
        try:
            rm = materialized.answer(query, strategy, cover=cover)
        except (QueryTooLargeError, ReformulationTooLarge) as exc:
            # Size refusals happen at reformulation/planning time, so
            # they must be engine-independent.
            with pytest.raises(type(exc)):
                lubm_answerers["columnar"].answer(query, strategy, cover=cover)
            return
        report = lubm_answerers["columnar"].answer(query, strategy, cover=cover)
        assert report.answer == rm.answer, (name, strategy)


class TestScqBlowup:
    ROW_BUDGET = 1500  # between the merged cover's cost and the SCQ's

    def test_columnar_peak_strictly_lower(self, blowup):
        graph, schema, query = blowup
        materialized = QueryAnswerer(graph, schema, engine="materialized")
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        rm = materialized.answer(query, Strategy.REF_SCQ)
        rc = columnar.answer(query, Strategy.REF_SCQ)
        assert rc.answer == rm.answer == frozenset({(EX.i1_0, EX.o0)})
        # The materialized interpreter held the full type-fragment
        # union; the sorted-run merge dedups it while streaming and
        # merge-joins it group by group, so the columnar peak stays far
        # below the blowup.
        blowup_rows = rm.execution.max_intermediate_rows()
        assert blowup_rows >= SUBCLASSES * PER_CLASS
        assert rc.execution.peak_buffered_rows < blowup_rows

    def test_row_budget_aborts_columnar_mid_stream(self, blowup):
        graph, schema, query = blowup
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        with pytest.raises(BudgetExceeded) as info:
            columnar.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
            )
        exc = info.value
        assert exc.kind == "rows"
        assert exc.partial is not None
        assert exc.partial["engine"] == "columnar"
        # The abort happened while streaming: the engine never
        # buffered anything near the 1000-row union the materialized
        # interpreter would have built.
        assert exc.partial["peak_buffered_rows"] < SUBCLASSES * PER_CLASS
        assert exc.partial["operators"]  # per-operator metrics travel
        assert any(
            repr_ for repr_, _est, _act in exc.partial["node_cardinalities"]
        )
        # Decoded partial rows ride along for the degraded path.
        assert exc.partial_answer is not None
        assert exc.diagnostics()["partial_row_count"] == len(exc.partial_rows)

    def test_materialized_abort_reports_cardinalities(self, blowup):
        graph, schema, query = blowup
        materialized = QueryAnswerer(graph, schema, engine="materialized")
        with pytest.raises(BudgetExceeded) as info:
            materialized.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
            )
        exc = info.value
        assert exc.partial is not None
        assert exc.partial["engine"] == "materialized"
        # Completed subtrees report their actual cardinality; the
        # aborted ancestors stay None.
        cardinalities = exc.partial["node_cardinalities"]
        assert any(actual is not None for _r, _e, actual in cardinalities)
        assert any(actual is None for _r, _e, actual in cardinalities)

    def test_allow_partial_degrades_instead_of_raising(self, blowup):
        graph, schema, query = blowup
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        report = columnar.answer(
            query,
            Strategy.REF_SCQ,
            row_budget=self.ROW_BUDGET,
            budget_fallbacks=0,
            allow_partial=True,
        )
        assert report.details["partial"] is True
        completeness = report.details["completeness"]
        assert completeness["complete"] is False
        assert completeness["endpoints"][0]["status"] == "degraded"
        assert report.details["budget_exceeded"]["kind"] == "rows"
        # Degraded answers are sound: a subset of the complete one.
        complete = columnar.answer(query, Strategy.REF_SCQ).answer
        assert report.answer <= complete

    def test_allow_partial_requires_partial_rows(self, blowup):
        # The materialized interpreter aborts whole operators and has
        # no partial rows to keep — allow_partial re-raises there.
        graph, schema, query = blowup
        materialized = QueryAnswerer(graph, schema, engine="materialized")
        with pytest.raises(BudgetExceeded):
            materialized.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
                allow_partial=True,
            )

    def test_partial_answers_never_cached(self, blowup):
        graph, schema, query = blowup
        cache = QueryCache()
        columnar = QueryAnswerer(graph, schema, engine="columnar", cache=cache)
        degraded = columnar.answer(
            query,
            Strategy.REF_SCQ,
            row_budget=self.ROW_BUDGET,
            budget_fallbacks=0,
            allow_partial=True,
        )
        assert degraded.details["partial"] is True
        follow_up = columnar.answer(query, Strategy.REF_SCQ)
        assert follow_up.details["cache"]["answer"] == "miss"
        assert follow_up.answer == frozenset({(EX.i1_0, EX.o0)})


class TestParallelBudgetAbort:
    """A row budget on the SCQ blowup trips once on either engine: the
    overrun keeps its diagnostics, the degraded answer is a flagged
    sound subset, and the trip happens near the limit."""

    ROW_BUDGET = TestScqBlowup.ROW_BUDGET

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_concurrent_abort_keeps_diagnostics(self, blowup, engine):
        graph, schema, query = blowup
        answerer = QueryAnswerer(graph, schema, engine=engine)
        with pytest.raises(BudgetExceeded) as info:
            answerer.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
            )
        exc = info.value
        assert exc.kind == "rows"
        assert exc.row_budget == self.ROW_BUDGET
        assert exc.partial is not None
        assert exc.partial["engine"] == engine

    def test_concurrent_partial_semantics_match_serial(self, blowup):
        graph, schema, query = blowup
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        kwargs = dict(
            row_budget=self.ROW_BUDGET,
            budget_fallbacks=0,
            allow_partial=True,
        )
        report = columnar.answer(query, Strategy.REF_SCQ, **kwargs)
        assert report.details["partial"] is True
        assert report.details["budget_exceeded"]["kind"] == "rows"
        assert report.details["completeness"]["complete"] is False
        # The degraded answer is a sound subset of the complete one.
        complete = columnar.answer(query, Strategy.REF_SCQ).answer
        assert report.answer <= complete

    def test_budget_not_consumed_twice_across_workers(self, blowup):
        # Every chunk is charged once: the trip lands at (or just past)
        # the limit, not at a multiple of it.
        graph, schema, query = blowup
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        with pytest.raises(BudgetExceeded) as info:
            columnar.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
            )
        # Generous bound: the trip happened well before anything like
        # the unbudgeted evaluation's volume materialized.
        assert info.value.rows_produced < self.ROW_BUDGET * 4


class TestExecutorEngines:
    def _store(self):
        graph = Graph(
            [Triple(EX.term("s%d" % i), EX.p, EX.term("o%d" % i))
             for i in range(30)]
            + [Triple(EX.term("s%d" % i), EX.q, EX.term("t%d" % i))
               for i in range(30)]
        )
        return TripleStore.from_graph(graph)

    def test_engine_validation(self):
        store = self._store()
        with pytest.raises(ValueError):
            Executor(store, engine="vectorized")
        with pytest.raises(ValueError):
            Executor(store).run(
                ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)]),
                engine="vectorized",
            )

    @pytest.mark.parametrize("backend", [MERGE_BACKEND, LOOP_BACKEND],
                             ids=["merge", "nested-loop"])
    def test_join_algorithms_agree(self, backend):
        # Whatever join algorithm the backend profile asks for, the
        # columnar engine must match the materialized interpreter.
        store = self._store()
        executor = Executor(store, backend)
        query = ConjunctiveQuery(
            [x, y, z],
            [TriplePattern(x, EX.p, y), TriplePattern(x, EX.q, z)],
        )
        rm = executor.run(query, engine="materialized")
        rc = executor.run(query, engine="columnar")
        assert rc.answer() == rm.answer()
        assert rm.row_count == 30
        assert rc.row_count == 30

    def test_cross_product_agrees(self):
        store = self._store()
        executor = Executor(store, engine="columnar")
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(z, EX.q, w)]
        )
        reference = executor.run(query, engine="materialized").answer()
        assert len(reference) == 900
        assert executor.run(query).answer() == reference


class TestReferenceEvaluatorBudgets:
    """The satellite bugfix: budgets thread through evaluate_ucq (and
    evaluate) instead of being silently dropped."""

    def test_ucq_disjunct_blowup_refused(self):
        graph = Graph(
            [Triple(EX.term("a%d" % i), EX.p, EX.term("b%d" % i))
             for i in range(30)]
            + [Triple(EX.term("c%d" % i), EX.q, EX.term("d%d" % i))
               for i in range(30)]
        )
        cross = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(z, EX.q, w)]
        )
        union = UnionQuery([cross])
        with pytest.raises(BudgetExceeded):
            evaluate(graph, union, budget=ExecutionBudget(max_rows=100))
        # With room the same evaluation completes (900 product rows).
        answer = evaluate(graph, union, budget=ExecutionBudget(max_rows=10**6))
        assert len(answer) == 900

    def test_jucq_budget_threads_through_fragments(self, blowup):
        from repro.reformulation.atoms import database_graph
        from repro.reformulation.jucq import scq_reformulation

        graph, schema, query = blowup
        jucq = scq_reformulation(query, schema)
        db = database_graph(graph, schema)
        with pytest.raises(BudgetExceeded):
            evaluate(db, jucq, budget=ExecutionBudget(max_rows=100))
        roomy = evaluate(db, jucq, budget=ExecutionBudget(max_rows=10**7))
        assert roomy == evaluate(db, jucq)


class TestIntervalEncodingDifferential:
    """Interval-encoded answering is byte-identical to the classic
    unions on every engine: the hierarchy encoding changes plan shape
    (one range-scanned interval atom per covered union), never the
    answer set — including under budgets and degraded answers."""

    ENGINES = ALL_ENGINES + ["sqlite"]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_books_same_answers(self, books, engine, strategy):
        graph, schema, query = books
        classic = QueryAnswerer(graph, schema, engine=engine)
        encoded = QueryAnswerer(
            graph, schema, engine=engine, interval_encoding=True
        )
        cover = _cover_for(strategy, query)
        expected = classic.answer(query, strategy, cover=cover).answer
        report = encoded.answer(query, strategy, cover=cover)
        assert report.answer == expected, (engine, strategy)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_blowup_same_answer_with_collapsed_union(self, blowup, engine):
        graph, schema, query = blowup
        encoded = QueryAnswerer(
            graph, schema, engine=engine, interval_encoding=True
        )
        report = encoded.answer(query, Strategy.REF_SCQ)
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})
        stats = report.details["interval"]
        assert stats["interval_atoms"] >= 1
        # The interval swallowed the strict-subclass enumeration (the
        # queried class itself stays in the identity alternative).
        assert stats["branches_collapsed"] >= SUBCLASSES - 1

    def test_blowup_reformulation_has_no_subclass_branches(self, blowup):
        from repro.encoding import HierarchyInterval
        from repro.reformulation import reformulate

        graph, schema, query = blowup
        encoded = QueryAnswerer(graph, schema, interval_encoding=True)
        union = reformulate(
            query, encoded.schema, encoded.policy, encoding=encoded.encoding
        )
        subclasses = {
            EX.term("C%d" % i) for i in range(1, SUBCLASSES + 1)
        }
        for disjunct in union.disjuncts:
            for atom in disjunct.atoms:
                assert atom.object not in subclasses
        assert any(
            isinstance(atom.object, HierarchyInterval)
            for disjunct in union.disjuncts
            for atom in disjunct.atoms
        )
        # The classic reformulation enumerates every subclass; the
        # interval one needs a single disjunct per atom choice set.
        classic = reformulate(query, encoded.schema, encoded.policy)
        assert len(union.disjuncts) < len(classic.disjuncts)

    def test_budget_abort_and_allow_partial(self, blowup):
        graph, schema, query = blowup
        encoded = QueryAnswerer(
            graph, schema, engine="columnar", interval_encoding=True
        )
        complete = encoded.answer(query, Strategy.REF_SCQ).answer
        with pytest.raises(BudgetExceeded) as info:
            encoded.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=TestScqBlowup.ROW_BUDGET,
                budget_fallbacks=0,
            )
        assert info.value.kind == "rows"
        assert info.value.partial_answer is not None
        report = encoded.answer(
            query,
            Strategy.REF_SCQ,
            row_budget=TestScqBlowup.ROW_BUDGET,
            budget_fallbacks=0,
            allow_partial=True,
        )
        assert report.details["partial"] is True
        assert report.answer <= complete

    def test_cache_keys_separate_encodings(self, blowup):
        graph, schema, query = blowup
        cache = QueryCache()
        classic = QueryAnswerer(
            graph, schema, engine="columnar", cache=cache
        )
        encoded = QueryAnswerer(
            graph,
            schema,
            engine="columnar",
            cache=cache,
            interval_encoding=True,
        )
        first = classic.answer(query, Strategy.REF_UCQ)
        assert first.details["cache"]["answer"] == "miss"
        # The interval-encoded answerer must not be served the classic
        # entry (its plans speak a different id layout).
        second = encoded.answer(query, Strategy.REF_UCQ)
        assert second.details["cache"]["answer"] == "miss"
        assert second.answer == first.answer
        assert encoded.answer(
            query, Strategy.REF_UCQ
        ).details["cache"]["answer"] == "hit"
