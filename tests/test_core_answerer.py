"""Unit tests for the QueryAnswerer facade."""

import pytest

from repro import QueryAnswerer, Strategy
from repro.cache import QueryCache
from repro.core import COMPLETE_STRATEGIES
from repro.datasets import (
    example1_best_cover,
    example1_query,
    generate_lubm,
)
from repro.query import Cover
from repro.rdf import Literal, Namespace
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

    def test_answer_all_skips_failures(self):
        graph = generate_lubm(universities=1, seed=2)
        answerer = QueryAnswerer(graph)
        reports = answerer.answer_all(
            example1_query(),
            strategies=(Strategy.REF_UCQ, Strategy.REF_SCQ, Strategy.SAT),
        )
        assert Strategy.REF_UCQ not in reports
        assert Strategy.REF_SCQ in reports
        assert (
            reports[Strategy.REF_SCQ].answer == reports[Strategy.SAT].answer
        )

    def test_answer_all_default_strategies(self, answerer, books):
        """All strategies, no cover: REF_JUCQ is skipped, nothing raises."""
        _, _, query = books
        reports = answerer.answer_all(query)
        assert Strategy.REF_JUCQ not in reports
        assert Strategy.SAT in reports
        assert Strategy.DATALOG in reports

    def test_answer_all_with_cover_includes_jucq(self, answerer, books):
        _, _, query = books
        cover = Cover(query, [[0, 1], [2]])
        reports = answerer.answer_all(
            query, strategies=(Strategy.REF_JUCQ, Strategy.SAT), cover=cover
        )
        assert Strategy.REF_JUCQ in reports
        assert (
            reports[Strategy.REF_JUCQ].answer == reports[Strategy.SAT].answer
        )


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
