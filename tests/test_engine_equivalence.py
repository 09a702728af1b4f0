"""Differential harness: columnar × SQLite × the reference evaluator.

The columnar engine runs the plan IR (:mod:`repro.engine.ir`) and the
SQL lowering hands the same plans to SQLite; the oracle is the
reference evaluator (:func:`repro.query.evaluate` / ``evaluate_cq``)
over the saturation, which shares no code with either.  Checked:

* identical answers for every strategy on the books example and a
  LUBM micro workload;
* on the Example-1-style SCQ blowup, the columnar engine's memory
  high-water mark (``peak_buffered_rows``) stays strictly below the
  largest operator output of the same run;
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
from repro.core import OptionError
from repro.reformulation import ReformulationTooLarge
from repro.saturation import saturate
from repro.schema import Constraint, Schema
from repro.storage import (
    DEFAULT_BACKENDS,
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


#: The engines of the differential matrix (the reference evaluator is
#: the third column).
ENGINES = ["columnar", "sqlite"]


@pytest.fixture(scope="module")
def lubm_matrix():
    """(answerer per engine, saturated graph) over one LUBM university."""
    from repro.datasets import generate_lubm

    graph = generate_lubm(universities=1, seed=3)
    answerers = {
        engine: QueryAnswerer(graph, engine=engine) for engine in ENGINES
    }
    return answerers, saturate(graph, answerers["columnar"].schema)


class TestBooksDifferential:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_same_answers(self, books, books_saturated, strategy):
        graph, schema, query = books
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        sqlite = QueryAnswerer(graph, schema, engine="sqlite")
        cover = _cover_for(strategy, query)
        rc = columnar.answer(query, strategy, cover=cover)
        rs = sqlite.answer(query, strategy, cover=cover)
        # Both agree with the reference evaluator over the saturation.
        reference = evaluate_cq(books_saturated, query)
        assert rc.answer == reference, strategy
        assert rs.answer == reference, strategy
        # Metrics travel on the columnar result; SQLite has no
        # in-process execution at all.
        assert rs.execution is None
        assert rc.execution.metrics.total_rows_out() > 0


class TestLubmDifferential:
    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q9", "Q13", "Ex1"])
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_same_answers(self, lubm_matrix, name, strategy):
        answerers, saturated = lubm_matrix
        query = example1_query() if name == "Ex1" else lubm_queries()[name]
        cover = _cover_for(strategy, query)
        try:
            report = answerers["columnar"].answer(query, strategy, cover=cover)
        except (QueryTooLargeError, ReformulationTooLarge) as exc:
            # Size refusals happen at reformulation/planning time, so
            # they must be engine-independent.
            with pytest.raises(type(exc)):
                answerers["sqlite"].answer(query, strategy, cover=cover)
            return
        assert report.answer == evaluate_cq(saturated, query), (name, strategy)


class TestScqBlowup:
    ROW_BUDGET = 1500  # between the merged cover's cost and the SCQ's

    def test_columnar_peak_strictly_lower(self, blowup):
        graph, schema, query = blowup
        columnar = QueryAnswerer(graph, schema, engine="columnar")
        rc = columnar.answer(query, Strategy.REF_SCQ)
        assert rc.answer == frozenset({(EX.i1_0, EX.o0)})
        # The type fragment's union is the blowup; the sorted-run merge
        # dedups it while streaming and merge-joins it group by group,
        # so the engine never buffers anything near that many rows.
        blowup_rows = rc.execution.max_intermediate_rows()
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
        # buffered anything near the 1000-row union.
        assert exc.partial["peak_buffered_rows"] < SUBCLASSES * PER_CLASS
        assert exc.partial["operators"]  # per-operator metrics travel
        assert any(
            repr_ for repr_, _est, _act in exc.partial["node_cardinalities"]
        )
        # Decoded partial rows ride along for the degraded path.
        assert exc.partial_answer is not None
        assert exc.diagnostics()["partial_row_count"] == len(exc.partial_rows)

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
    """A row budget on the SCQ blowup trips once: the overrun keeps its
    diagnostics, the degraded answer is a flagged sound subset, and the
    trip happens near the limit."""

    ROW_BUDGET = TestScqBlowup.ROW_BUDGET

    @pytest.mark.parametrize("engine", ["columnar"])
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


class TestMixedKeyColumns:
    """A JUCQ join key that one disjunct binds to a class the store
    never stored, beside disjuncts that carry it as an id column.

    The store holds the data alone, so the schema's class ``B`` has no
    id: reformulating ``x rdf:type c`` under ``A ⊑ B`` and ``p domain
    B`` projects ``c`` as the ready term ``B`` (a ``("term", Term)``
    spec) in two disjuncts of each fragment, and as the stored class
    id in the third.  The two fragments join on ``c``, so ``B`` must
    key the same on both sides of the join, whatever the engine does
    with ids."""

    def _setup(self):
        from repro.reformulation.jucq import jucq_for_cover
        from repro.storage.sql import SqliteBackend

        c = Variable("c")
        schema = Schema([
            Constraint.subclass(EX.A, EX.B), Constraint.domain(EX.p, EX.B),
        ])
        graph = Graph()
        for triple in [
            (EX.i1, RDF_TYPE, EX.A), (EX.i2, RDF_TYPE, EX.A),
            (EX.i3, EX.p, EX.i4), (EX.i5, RDF_TYPE, EX.D),
        ]:
            graph.add(Triple(*triple))
        store = TripleStore.from_graph(graph)
        query = ConjunctiveQuery(
            [x, y, c], [TriplePattern(x, RDF_TYPE, c), TriplePattern(y, RDF_TYPE, c)]
        )
        jucq = jucq_for_cover(Cover.per_atom(query), schema)
        return store, jucq, evaluate_cq(saturate(graph, schema), query), SqliteBackend

    def test_unstored_class_joins_like_stored_ids(self):
        store, jucq, reference, sqlite = self._setup()
        assert store.term_id(EX.B) is None
        projected = [
            spec
            for node in Executor(store).planner.plan(jucq).walk()
            for spec in getattr(node, "specs", ())
        ]
        assert ("term", EX.B) in projected  # the trap is really set
        assert ("var", Variable("c")) in projected  # beside id columns
        assert {row[2] for row in reference} == {EX.A, EX.B, EX.D}
        assert len(reference) == 4 + 9 + 1  # A: i1, i2; B: i1-i3; D: i5
        assert Executor(store).run(jucq).answer() == reference
        assert sqlite(store).run(jucq) == reference
        assert store.term_id(EX.B) is None  # answering stored nothing


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
        # One in-process engine: the interpreter's names are gone.
        graph = self._store().to_graph()
        for engine in ("materialized", "builtin", "vectorized"):
            with pytest.raises(OptionError):
                QueryAnswerer(graph, engine=engine)

    @pytest.mark.parametrize("backend", DEFAULT_BACKENDS,
                             ids=["hash", "merge", "nested-loop"])
    def test_join_algorithms_agree(self, backend):
        # Whichever join algorithm the backend profile prices, its plan
        # on the columnar engine gives the reference answer.
        store = self._store()
        query = ConjunctiveQuery(
            [x, y, z],
            [TriplePattern(x, EX.p, y), TriplePattern(x, EX.q, z)],
        )
        result = Executor(store, backend).run(query)
        assert result.answer() == evaluate(store.to_graph(), query)
        assert result.row_count == 30

    def test_cross_product_agrees(self):
        store = self._store()
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(z, EX.q, w)]
        )
        reference = evaluate(store.to_graph(), query)
        assert len(reference) == 900
        assert Executor(store).run(query).answer() == reference


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
    unions and to the reference evaluator on every engine: the hierarchy
    encoding changes plan shape (one range-scanned interval atom per
    covered union), never the answer set — including under budgets and
    degraded answers."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_books_same_answers(self, books, books_saturated, engine, strategy):
        graph, schema, query = books
        classic = QueryAnswerer(graph, schema, engine=engine)
        encoded = QueryAnswerer(
            graph, schema, engine=engine, interval_encoding=True
        )
        cover = _cover_for(strategy, query)
        expected = classic.answer(query, strategy, cover=cover).answer
        report = encoded.answer(query, strategy, cover=cover)
        assert report.answer == expected, (engine, strategy)
        assert report.answer == evaluate_cq(books_saturated, query)

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
