"""Property-based differential harness for the cache subsystem.

Extends the generators of :mod:`tests.test_property_based` to random
(schema, graph, query) triples and checks the cache's correctness
contract: a cached :class:`~repro.core.QueryAnswerer` returns exactly
the same answer as a cacheless one for every complete strategy —

* **cold** (first call populates both tiers),
* **warm** (second call must be an answer-tier hit), and
* **after an interleaved update** (insert and delete retire the
  answer tier via the data epoch; the recomputed answer must match a
  from-scratch evaluation of the updated graph).

The three ``@given`` blocks run 220 generated cases in total (80 + 80
+ 60), above the 200-case bar set by the issue.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import QueryCache
from repro.core import COMPLETE_STRATEGIES, QueryAnswerer, Strategy
from repro.query import evaluate_cq
from repro.rdf import Graph
from repro.saturation import saturate

from .test_property_based import (
    cover_st,
    data_triple_st,
    graph_st,
    query_st,
    schema_st,
)

#: Every complete strategy that needs no caller-supplied cover.
STRATEGIES = sorted(
    COMPLETE_STRATEGIES - {Strategy.REF_JUCQ}, key=lambda s: s.value
)


def reference_answer(graph, schema, query):
    """The contract's ground truth: q(G∞) by direct evaluation."""
    return evaluate_cq(saturate(Graph(graph.data_triples()), schema), query)


def assert_strategies_agree(answerer, query, expected, phase):
    for strategy in STRATEGIES:
        report = answerer.answer(query, strategy)
        assert report.answer == expected, (phase, strategy, report.answer)
    return [answerer.answer(query, strategy) for strategy in STRATEGIES]


harness_settings = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@harness_settings
@given(graph=graph_st, schema=schema_st, query=query_st())
def test_cold_and_warm_answers_match_reference(graph, schema, query):
    expected = reference_answer(graph, schema, query)
    answerer = QueryAnswerer(
        Graph(graph.data_triples()), schema, cache=QueryCache()
    )
    assert_strategies_agree(answerer, query, expected, "cold")
    warm = assert_strategies_agree(answerer, query, expected, "warm")
    for report in warm:
        assert report.details["cache"]["answer"] == "hit"


@harness_settings
@given(
    graph=graph_st,
    schema=schema_st,
    query=query_st(),
    extra=data_triple_st,
    delete_index=st.integers(0, 10_000),
)
def test_interleaved_update_keeps_strategies_equivalent(
    graph, schema, query, extra, delete_index
):
    answerer = QueryAnswerer(
        Graph(graph.data_triples()), schema, cache=QueryCache()
    )
    # Warm every tier on the pre-update instance.
    assert_strategies_agree(
        answerer, query, reference_answer(graph, schema, query), "pre-update"
    )

    # The answerer keeps no graph: the test keeps its own model of the
    # data and applies every write to both.
    model = Graph(graph.data_triples())
    answerer.insert(extra)
    model.add(extra)
    expected = reference_answer(model, schema, query)
    assert_strategies_agree(answerer, query, expected, "post-insert")

    triples = sorted(model.data_triples())
    if triples:
        victim = triples[delete_index % len(triples)]
        answerer.delete(victim)
        model.discard(victim)
        expected = reference_answer(model, schema, query)
        assert_strategies_agree(answerer, query, expected, "post-delete")
    # The survivors must still be served correctly (warm or re-derived).
    assert_strategies_agree(answerer, query, expected, "settled")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=graph_st, schema=schema_st, data=st.data())
def test_jucq_with_random_cover_matches_reference(graph, schema, data):
    """REF_JUCQ (caller-supplied random cover) through the cache: cold,
    warm, and after an update, against the cacheless reference."""
    query = data.draw(query_st())
    cover = data.draw(cover_st(query))
    answerer = QueryAnswerer(
        Graph(graph.data_triples()), schema, cache=QueryCache()
    )
    expected = reference_answer(graph, schema, query)
    cold = answerer.answer(query, Strategy.REF_JUCQ, cover=cover)
    warm = answerer.answer(query, Strategy.REF_JUCQ, cover=cover)
    assert cold.answer == expected
    assert warm.answer == expected
    assert warm.details["cache"]["answer"] == "hit"

    extra = data.draw(data_triple_st)
    answerer.insert(extra)
    model = Graph(graph.data_triples())
    model.add(extra)
    updated = answerer.answer(query, Strategy.REF_JUCQ, cover=cover)
    assert updated.answer == reference_answer(model, schema, query)
