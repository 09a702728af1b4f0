"""Execution budgets end to end: executor guards, structured
BudgetExceeded diagnostics, and the optimizer's cover fallback.

The adversarial scenario mirrors the paper's Example 1 in miniature: a
query ``?x a C0 . ?x p ?y`` over a schema where C0 has many subclasses
and the data holds many typed instances but almost no ``p`` edges.  The
SCQ (per-atom cover) materializes the full union of type alternatives
before joining — thousands of intermediate rows for a one-row answer —
while a merged cover pushes the selective ``p`` atom into each disjunct
and stays tiny.  A row budget between the two separates them
deterministically: REF_SCQ alone trips the budget, and the fallback
path answers completely through a cheaper cover.
"""

import pytest

from repro import BudgetExceeded, ExecutionBudget, QueryAnswerer, Strategy
from repro.cache import QueryCache
from repro.federation import Endpoint, FederatedAnswerer
from repro.query import ConjunctiveQuery, TriplePattern, Variable, evaluate_cq
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.resilience import FakeClock
from repro.saturation import saturate
from repro.schema import Constraint, Schema
from repro.storage import TripleStore
from repro.storage.executor import Executor

EX = Namespace("http://example.org/")
x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")

SUBCLASSES = 20
PER_CLASS = 50


@pytest.fixture(scope="module")
def adversarial():
    """The blowup dataset: 20 subclasses of C0 with 50 instances each
    (1000 type facts), and a single selective ``p`` edge."""
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


class TestAdversarialScqBudget:
    ROW_BUDGET = 1500  # between the merged cover's cost and the SCQ's

    def test_scq_without_budget_answers(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        report = answerer.answer(query, Strategy.REF_SCQ)
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})
        # The blowup is real: the type-atom fragment materializes the
        # full union of alternatives (1000 rows) for a one-row answer,
        # so the *cumulative* rows cross the budget used below.
        assert (
            report.execution.max_intermediate_rows()
            >= SUBCLASSES * PER_CLASS
        )

    def test_scq_trips_budget_with_diagnostics(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        with pytest.raises(BudgetExceeded) as info:
            answerer.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
            )
        exc = info.value
        assert exc.kind == "rows"
        assert exc.rows_produced > self.ROW_BUDGET
        assert exc.row_budget == self.ROW_BUDGET
        assert exc.operator  # the diagnostics name the tripping operator
        assert exc.diagnostics()["row_budget"] == self.ROW_BUDGET

    def test_fallback_cover_answers_completely(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        report = answerer.answer(
            query,
            Strategy.REF_SCQ,
            row_budget=self.ROW_BUDGET,
            budget_fallbacks=3,
        )
        # The optimizer's next-best cover fit the budget AND produced
        # the complete answer — budgets refuse, they never truncate.
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})
        assert report.details["budget_exceeded"]["kind"] == "rows"
        assert "budget_fallback_cover" in report.details
        assert report.details["budget_fallback_attempts"] >= 1

    def test_gcov_fits_the_budget_directly(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        report = answerer.answer(
            query, Strategy.REF_GCOV, row_budget=self.ROW_BUDGET
        )
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})
        # The cost-chosen cover never needed the fallback machinery.
        assert "budget_fallback_cover" not in report.details

    def test_gcov_fallback_reuses_its_search(self, lubm_small, monkeypatch):
        """An overrun of the cost-chosen cover ranks its fallbacks from
        the search that chose it — one search, not two."""
        import repro.core.answerer as answerer_module
        from repro.datasets import lubm_queries

        searches = []
        real_gcov = answerer_module.gcov

        def counting_gcov(*args, **kwargs):
            searches.append(args[0])
            return real_gcov(*args, **kwargs)

        monkeypatch.setattr(answerer_module, "gcov", counting_gcov)
        query = lubm_queries()["Q8"]
        answerer = QueryAnswerer(lubm_small)
        unbudgeted = answerer.answer(query, Strategy.REF_GCOV)
        assert unbudgeted.details["cover"] == "Cover({t1}, {t2,t4}, {t3}, {t5})"
        del searches[:]
        # One row short of what the chosen cover produces.
        report = answerer.answer(
            query, Strategy.REF_GCOV, row_budget=2967, budget_fallbacks=4
        )
        assert len(searches) == 1
        assert report.answer == unbudgeted.answer
        assert report.details["budget_fallback_cover"] == (
            "Cover({t1}, {t2,t4}, {t3,t5})"
        )
        assert report.details["budget_fallback_failed"] == [
            "Cover({t1}, {t2}, {t3}, {t4}, {t5})",
            "Cover({t1}, {t2,t4,t5}, {t3})",
        ]

    def test_budget_exceeded_answers_never_cached(self, adversarial):
        graph, schema, query = adversarial
        cache = QueryCache()
        answerer = QueryAnswerer(graph, schema, cache=cache)
        with pytest.raises(BudgetExceeded):
            answerer.answer(
                query,
                Strategy.REF_SCQ,
                row_budget=self.ROW_BUDGET,
                budget_fallbacks=0,
            )
        # The failed run stored nothing in the answer tier: the next
        # call is a miss that recomputes the (correct) answer.
        report = answerer.answer(query, Strategy.REF_SCQ)
        assert report.details["cache"]["answer"] == "miss"
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})


class TestAnswererBudgetValidation:
    def test_sqlite_engine_refuses_budgets(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema, engine="sqlite")
        with pytest.raises(ValueError):
            answerer.answer(query, Strategy.REF_SCQ, row_budget=10)

    def test_datalog_refuses_budgets(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        with pytest.raises(ValueError):
            answerer.answer(query, Strategy.DATALOG, row_budget=10)

    def test_invalid_budget_values(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        with pytest.raises(ValueError):
            answerer.answer(query, Strategy.REF_SCQ, row_budget=0)
        with pytest.raises(ValueError):
            answerer.answer(query, Strategy.REF_SCQ, time_budget=-1.0)
        with pytest.raises(ValueError):
            answerer.answer(
                query, Strategy.REF_SCQ, row_budget=5, budget_fallbacks=-1
            )

    def test_budgeted_run_matches_unbudgeted(self, adversarial):
        graph, schema, query = adversarial
        answerer = QueryAnswerer(graph, schema)
        plain = answerer.answer(query, Strategy.REF_UCQ).answer
        roomy = answerer.answer(
            query, Strategy.REF_UCQ, row_budget=10 ** 9
        ).answer
        assert roomy == plain


class TestExecutorBudget:
    def _executor(self):
        graph = Graph(
            [Triple(EX.term("s%d" % i), EX.p, EX.term("o%d" % i))
             for i in range(30)]
            + [Triple(EX.term("s%d" % i), EX.q, EX.term("t%d" % i))
               for i in range(30)]
        )
        store = TripleStore.from_graph(graph)
        return Executor(store)

    def test_within_budget_runs_normally(self):
        executor = self._executor()
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        result = executor.run(query, budget=ExecutionBudget(max_rows=1000))
        assert result.row_count == 30

    def test_cross_product_trips_row_budget(self):
        executor = self._executor()
        # Disconnected atoms: a 30×30 cross product the budget refuses.
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(z, EX.q, w)]
        )
        with pytest.raises(BudgetExceeded) as info:
            executor.run(query, budget=ExecutionBudget(max_rows=200))
        assert info.value.kind == "rows"

    def test_time_budget_on_injected_clock(self):
        executor = self._executor()
        # Every monotonic() read advances the fake clock: evaluation
        # "takes time" without any wall-clock sleep.
        # The scan's chunk is charged at 1 s, the projection's at 2 s.
        clock = FakeClock(auto_advance=1.0)
        budget = ExecutionBudget(max_seconds=1.5, clock=clock)
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        with pytest.raises(BudgetExceeded) as info:
            executor.run(query, budget=budget)
        assert info.value.kind == "time"

    def test_budget_unused_when_none(self):
        executor = self._executor()
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        assert executor.run(query).row_count == 30


class TestFederatedBudget:
    def test_client_side_join_blowup_refused(self):
        left = Graph(
            [Triple(EX.term("a%d" % i), EX.p, EX.term("b%d" % i))
             for i in range(25)]
        )
        right = Graph(
            [Triple(EX.term("c%d" % i), EX.q, EX.term("d%d" % i))
             for i in range(25)]
        )
        federation = FederatedAnswerer(
            [Endpoint("l", left), Endpoint("r", right)],
            Schema([]),
            clock=FakeClock(),
        )
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(z, EX.q, w)]
        )
        with pytest.raises(BudgetExceeded):
            federation.answer(query, budget=ExecutionBudget(max_rows=100))
        # With room, the same query completes (625 product rows).
        answer = federation.answer(
            query, budget=ExecutionBudget(max_rows=10 ** 6)
        )
        assert len(answer.rows) == 625

    def test_budgeted_federated_answer_matches_unbudgeted(self, adversarial):
        graph, schema, query = adversarial
        shards = [Graph() for _ in range(3)]
        for index, triple in enumerate(sorted(graph.data_triples())):
            shards[index % 3].add(triple)
        endpoints = [
            Endpoint("s%d" % i, shard) for i, shard in enumerate(shards)
        ]
        merged = Schema.from_graph(graph)
        for constraint in schema.direct_constraints():
            merged.add(constraint)
        federation = FederatedAnswerer(endpoints, merged, clock=FakeClock())
        plain = federation.answer(query).rows
        budgeted = federation.answer(
            query, budget=ExecutionBudget(max_rows=10 ** 9)
        ).rows
        assert budgeted == plain
        full = graph.copy()
        full.add_all(merged.to_triples())
        assert plain == evaluate_cq(saturate(full), query)
