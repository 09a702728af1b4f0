"""Unit tests for the QueryAnswerer facade."""

import pytest

from repro import QueryAnswerer, Strategy
from repro.cache import QueryCache
from repro.core import COMPLETE_STRATEGIES, OptionError
from repro.datasets import (
    example1_best_cover,
    example1_query,
    generate_lubm,
    lubm_queries,
)
from repro.query import ConjunctiveQuery, Cover
from repro.rdf import Literal, Namespace
from repro.reformulation import ReformulationTooLarge
from repro.resilience.budget import ExecutionBudget
from repro.resilience.errors import BudgetExceeded
from repro.storage import QueryTooLargeError

EX = Namespace("http://example.org/")


@pytest.fixture
def answerer(books):
    graph, schema, _ = books
    return QueryAnswerer(graph, schema)


class TestStrategies:
    def test_all_complete_strategies_agree(self, answerer, books):
        _, _, query = books
        reports = {
            strategy: answerer.answer(
                query,
                strategy,
                cover=Cover(query, [[0, 1], [2]])
                if strategy == Strategy.REF_JUCQ
                else None,
            )
            for strategy in COMPLETE_STRATEGIES
        }
        answers = {report.answer for report in reports.values()}
        assert len(answers) == 1
        assert answers.pop() == frozenset({(Literal("J. L. Borges"),)})

    @pytest.mark.parametrize(
        "strategy",
        sorted(COMPLETE_STRATEGIES | {Strategy.REF_VIRTUOSO},
               key=lambda s: s.value),
        ids=lambda s: s.value,
    )
    def test_type_subproperty_types_with_a_non_class(self, strategy):
        """``p0 ⊑ rdf:type`` makes ``(i0 p0 i0)`` entail ``(i0 rdf:type
        i0)``; i0 is no schema class, yet ``(?a rdf:type ?a)`` must
        find it."""
        from repro.query import TriplePattern, Variable
        from repro.rdf import Graph, RDF_TYPE, Triple
        from repro.schema import Constraint, Schema

        graph = Graph([Triple(EX.i0, EX.p0, EX.i0)])
        schema = Schema([Constraint.subproperty(EX.p0, RDF_TYPE)])
        a = Variable("a")
        query = ConjunctiveQuery([a], [TriplePattern(a, RDF_TYPE, a)])
        cover = (
            Cover(query, [[0]]) if strategy is Strategy.REF_JUCQ else None
        )
        report = QueryAnswerer(graph, schema).answer(query, strategy, cover=cover)
        assert report.answer == frozenset({(EX.i0,)})

    def test_jucq_requires_cover(self, answerer, books):
        _, _, query = books
        with pytest.raises(ValueError):
            answerer.answer(query, Strategy.REF_JUCQ)

    def test_incomplete_strategies_lose_answers(self, answerer, books):
        _, _, query = books
        complete = answerer.answer(query, Strategy.REF_UCQ)
        allegro = answerer.answer(query, Strategy.REF_ALLEGRO)
        # The example query needs subproperty + domain/range reasoning,
        # which the AllegroGraph-style strategy ignores.
        assert len(allegro.answer) < len(complete.answer)

    def test_reports_carry_details(self, answerer, books):
        _, _, query = books
        ucq = answerer.answer(query, Strategy.REF_UCQ)
        assert ucq.details["ucq_disjuncts"] >= 1
        gcov = answerer.answer(query, Strategy.REF_GCOV)
        assert "cover" in gcov.details
        assert gcov.details["explored_covers"] >= 1

    def test_sat_caches_saturation(self, answerer, books):
        _, _, query = books
        assert answerer.saturation_seconds is None
        answerer.answer(query, Strategy.SAT)
        first = answerer.saturation_seconds
        assert first is not None
        answerer.answer(query, Strategy.SAT)
        assert answerer.saturation_seconds == first

    def test_unknown_strategy_rejected(self, answerer, books):
        _, _, query = books
        with pytest.raises(ValueError):
            answerer.answer(query, "nope")


#: ``AnswerReport.details`` keys each strategy's rewrite step reports,
#: in order — pinned so the one shared answering tail stays key-for-key
#: what the per-strategy branches produced.
DETAIL_KEYS = {
    Strategy.SAT: ["saturation_seconds", "minimised"],
    Strategy.DATALOG: ["minimised"],
    Strategy.REF_UCQ: ["ucq_disjuncts", "policy", "minimised"],
    Strategy.REF_VIRTUOSO: ["ucq_disjuncts", "policy", "minimised"],
    Strategy.REF_ALLEGRO: ["ucq_disjuncts", "policy", "minimised"],
    Strategy.REF_SCQ: ["fragments", "atom_count", "minimised"],
    Strategy.REF_JUCQ: ["cover", "atom_count", "minimised"],
    Strategy.REF_GCOV: [
        "cover", "estimated_cost", "runner_up_cost", "explored_covers",
        "fragments_priced", "estimates_computed", "search_seconds",
        "minimised",
    ],
}


class TestDetailsKeys:
    @pytest.mark.parametrize("encoded", [False, True], ids=["classic", "interval"])
    @pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
    @pytest.mark.parametrize(
        "strategy", list(Strategy), ids=[s.value for s in Strategy]
    )
    def test_keys_per_strategy(self, books, strategy, cached, encoded):
        graph, schema, query = books
        answerer = QueryAnswerer(
            graph,
            schema,
            cache=QueryCache() if cached else None,
            interval_encoding=encoded,
        )
        cover = (
            Cover(query, [[0, 1], [2]])
            if strategy is Strategy.REF_JUCQ
            else None
        )
        expected = list(DETAIL_KEYS[strategy])
        if encoded and strategy not in (Strategy.SAT, Strategy.DATALOG):
            expected.append("interval")
        if cached:
            expected.append("cache")
        report = answerer.answer(query, strategy, cover=cover)
        assert list(report.details) == expected
        if cached:
            # A hit replays the stored details, key for key.
            hit = answerer.answer(query, strategy, cover=cover)
            assert hit.details["cache"]["answer"] == "hit"
            assert list(hit.details) == expected

    def test_budget_fallback_keys(self, books):
        graph, schema, query = books
        report = QueryAnswerer(graph, schema).answer(
            query, Strategy.REF_SCQ, row_budget=12, budget_fallbacks=2
        )
        assert list(report.details) == [
            "fragments",
            "atom_count",
            "minimised",
            "budget_exceeded",
            "budget_fallback_cover",
            "budget_fallback_attempts",
        ]
        # The per-atom cover (the SCQ itself) is never retried.
        assert report.details["budget_fallback_cover"] != repr(
            Cover.per_atom(query)
        )


class TestParseLimits:
    def test_ucq_blowup_fails_cleanly(self):
        graph = generate_lubm(universities=1, seed=2)
        answerer = QueryAnswerer(graph)
        with pytest.raises(QueryTooLargeError):
            answerer.answer(example1_query(), Strategy.REF_UCQ)


class TestExample1EndToEnd:
    @pytest.fixture(scope="class")
    def lubm_answerer(self):
        return QueryAnswerer(generate_lubm(universities=1, seed=1))

    def test_paper_cover_matches_sat(self, lubm_answerer):
        query = example1_query()
        sat = lubm_answerer.answer(query, Strategy.SAT)
        best = lubm_answerer.answer(
            query, Strategy.REF_JUCQ, cover=example1_best_cover(query)
        )
        assert best.answer == sat.answer
        assert sat.cardinality > 0

    def test_gcov_matches_sat(self, lubm_answerer):
        query = example1_query()
        sat = lubm_answerer.answer(query, Strategy.SAT)
        gcov = lubm_answerer.answer(query, Strategy.REF_GCOV)
        assert gcov.answer == sat.answer

    def test_intermediate_results_shrink_with_grouping(self, lubm_answerer):
        query = example1_query()
        scq = lubm_answerer.answer(query, Strategy.REF_SCQ)
        best = lubm_answerer.answer(
            query, Strategy.REF_JUCQ, cover=example1_best_cover(query)
        )
        assert (
            best.execution.max_intermediate_rows()
            < scq.execution.max_intermediate_rows()
        )


LUBM_NAMES = ["Q%d" % number for number in range(1, 15)] + ["Ex1"]


def _split_matches(answerer, query, strategy, cover):
    """``execute(compile(...))`` answers like ``answer``, with the same
    detail keys in the same order — or fails with the same error."""
    try:
        expected = answerer.answer(query, strategy, cover=cover)
    except (QueryTooLargeError, ReformulationTooLarge) as exc:
        with pytest.raises(type(exc)):
            answerer.execute(answerer.compile(query, strategy, cover=cover))
        return
    report = answerer.execute(answerer.compile(query, strategy, cover=cover))
    assert report.answer == expected.answer, strategy
    assert list(report.details) == list(expected.details), strategy


class TestCompileExecute:
    """``answer`` is ``execute(compile(...))`` behind the answer tier."""

    @pytest.fixture(scope="class")
    def lubm_answerer(self):
        return QueryAnswerer(generate_lubm(universities=1, seed=1))

    @pytest.mark.parametrize(
        "strategy", list(Strategy), ids=[s.value for s in Strategy]
    )
    def test_books_split_matches_answer(self, answerer, books, strategy):
        _, _, query = books
        _split_matches(answerer, query, strategy, Cover(query, [[0, 1], [2]]))

    @pytest.mark.parametrize("name", LUBM_NAMES)
    def test_lubm_split_matches_answer(self, lubm_answerer, name):
        query = example1_query() if name == "Ex1" else lubm_queries()[name]
        cover = (
            example1_best_cover(query) if name == "Ex1" else Cover.per_atom(query)
        )
        for strategy in Strategy:
            _split_matches(lubm_answerer, query, strategy, cover)

    def test_record_fields(self, lubm_answerer):
        query = lubm_queries()["Q7"]  # t1 and t2 follow from the schema
        sat = lubm_answerer.compile(query, Strategy.SAT)
        assert sat.query == query and sat.dropped == (0, 1)
        assert sat.relational == sat.minimised and len(sat.minimised.atoms) == 2
        assert sat.cover is None and sat.ranked is None
        assert sat.details["minimised"] == (0, 1)
        assert lubm_answerer.compile(query, Strategy.REF_UCQ).cover is None
        scq = lubm_answerer.compile(query, Strategy.REF_SCQ)
        assert scq.cover == Cover.per_atom(scq.minimised) and scq.ranked is None
        gcov = lubm_answerer.compile(query, Strategy.REF_GCOV)
        assert gcov.cover.query == gcov.minimised
        assert repr(gcov.cover) == gcov.details["cover"]
        costs = [cost for _, cost in gcov.ranked]
        assert costs == sorted(costs) and costs[0] == gcov.details["estimated_cost"]
        jucq = lubm_answerer.compile(query, Strategy.REF_JUCQ, Cover.per_atom(query))
        assert jucq.minimised == query and jucq.dropped == ()
        with pytest.raises(AttributeError):
            gcov.cover = None
        with pytest.raises(TypeError):
            gcov.details["cover"] = None

    def test_reformulation_hit_flag(self, books):
        graph, schema, query = books
        plain = QueryAnswerer(graph, schema)
        assert plain.compile(query, Strategy.REF_SCQ).reformulation_hit is None
        cached = QueryAnswerer(graph, schema, cache=QueryCache())
        assert cached.compile(query, Strategy.REF_SCQ).reformulation_hit is False
        assert cached.compile(query, Strategy.REF_SCQ).reformulation_hit is True
        assert cached.compile(query, Strategy.SAT).reformulation_hit is None


class TestCoverMustCoverTheQuery:
    def test_foreign_cover_refused(self):
        """The cover of another query used to answer *that* query."""
        answerer = QueryAnswerer(generate_lubm(universities=1, seed=1))
        queries = lubm_queries()
        with pytest.raises(OptionError, match="cover"):
            answerer.answer(
                queries["Q6"], Strategy.REF_JUCQ, cover=Cover.per_atom(queries["Q14"])
            )

    def test_equal_query_accepted(self, answerer, books):
        _, _, query = books
        rebuilt = ConjunctiveQuery(query.head, query.atoms)
        report = answerer.answer(
            query, Strategy.REF_JUCQ, cover=Cover.per_atom(rebuilt)
        )
        assert report.answer == answerer.answer(query, Strategy.SAT).answer


class TestBudgetFallbackSearchesOnce:
    @pytest.fixture
    def gcov_calls(self, monkeypatch):
        import repro.core.answerer as answerer_module

        calls = []
        real = answerer_module.gcov

        def counting(query, *args, **kwargs):
            calls.append(query)
            return real(query, *args, **kwargs)

        monkeypatch.setattr(answerer_module, "gcov", counting)
        return calls

    def test_scq_overrun_searches_once(self, books, gcov_calls):
        graph, schema, query = books
        report = QueryAnswerer(graph, schema).answer(
            query, Strategy.REF_SCQ, row_budget=12, budget_fallbacks=2
        )
        assert "budget_fallback_cover" in report.details
        assert len(gcov_calls) == 1

    def test_gcov_overrun_falls_back_on_its_ranking(self, books, gcov_calls):
        graph, schema, query = books
        answerer = QueryAnswerer(graph, schema)
        compiled = answerer.compile(query, Strategy.REF_GCOV)
        assert len(gcov_calls) == 1
        with pytest.raises(BudgetExceeded):
            answerer.execute(compiled, ExecutionBudget(max_rows=12))
        report = answerer.execute(
            compiled, ExecutionBudget(max_rows=12), budget_fallbacks=3
        )
        assert len(gcov_calls) == 1  # the record's ranking, no new search
        ranked = [repr(cover) for cover, _ in compiled.ranked]
        assert report.details["budget_fallback_cover"] in ranked[1:]
        assert report.answer == answerer.answer(query, Strategy.SAT).answer
