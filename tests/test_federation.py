"""Unit and integration tests for federated query answering."""

import pytest

from repro.datasets import GeneratorConfig, generate_lubm, lubm_queries, lubm_schema
from repro.federation import (
    Endpoint,
    ExportForbidden,
    FederatedAnswerer,
)
from repro.query import ConjunctiveQuery, TriplePattern, Variable, evaluate_cq
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple
from repro.saturation import saturate
from repro.schema import Constraint, Schema

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def split_graph(graph, parts=3):
    """Deterministically shard a graph's data triples."""
    shards = [Graph() for _ in range(parts)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % parts].add(triple)
    return shards


@pytest.fixture(scope="module")
def lubm_setup():
    config = GeneratorConfig(departments=2, undergraduate_students=10,
                             graduate_students=5, courses=5, graduate_courses=3)
    graph = generate_lubm(universities=1, seed=6, config=config,
                          include_schema=False)
    schema = lubm_schema()
    shards = split_graph(graph, parts=3)
    endpoints = [
        Endpoint("shard%d" % index, shard)
        for index, shard in enumerate(shards)
    ]
    full = graph.copy()
    full.add_all(schema.to_triples())
    return graph, schema, endpoints, saturate(full)


class TestEndpoint:
    def test_no_reasoning(self):
        graph = Graph(
            [
                Triple(EX.a, RDF_TYPE, EX.Manager),
                Triple(EX.Manager, RDFS_SUBCLASSOF, EX.Employee),
            ]
        )
        endpoint = Endpoint("e", graph)
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        assert len(endpoint.evaluate(query)) == 0  # explicit triples only

    def test_result_limit_truncates(self):
        graph = Graph(
            [Triple(EX.term("s%d" % index), EX.p, EX.o) for index in range(10)]
        )
        endpoint = Endpoint("e", graph, result_limit=3)
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, EX.o)])
        result = endpoint.evaluate(query)
        assert len(result) == 3
        assert result.truncated

    def test_no_truncation_below_limit(self):
        endpoint = Endpoint("e", Graph([Triple(EX.a, EX.p, EX.o)]), result_limit=5)
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, EX.o)])
        assert not endpoint.evaluate(query).truncated

    def test_export_forbidden(self):
        endpoint = Endpoint("e", Graph([Triple(EX.a, EX.p, EX.o)]))
        with pytest.raises(ExportForbidden):
            endpoint.export()

    def test_counters(self):
        endpoint = Endpoint("e", Graph([Triple(EX.a, EX.p, EX.o)]))
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, EX.o)])
        endpoint.evaluate(query)
        endpoint.evaluate(query)
        assert endpoint.requests_served == 2
        assert endpoint.rows_returned == 2
        endpoint.reset_counters()
        assert endpoint.requests_served == 0

    def test_rejects_non_queries(self):
        endpoint = Endpoint("e", Graph([Triple(EX.a, EX.p, EX.o)]))
        with pytest.raises(TypeError):
            endpoint.evaluate("SELECT *")


class TestFederatedAnswering:
    def test_matches_centralized(self, lubm_setup):
        graph, schema, endpoints, saturated = lubm_setup
        federation = FederatedAnswerer(endpoints, schema)
        for name in ("Q1", "Q5", "Q6", "Q13", "Q14"):
            query = lubm_queries()[name]
            expected = evaluate_cq(saturated, query)
            answer = federation.answer(query)
            assert answer.rows == expected, name
            assert not answer.truncated

    def test_cross_endpoint_join(self):
        # The join's two triples live on different endpoints: only
        # client-side joining can find it.
        schema = Schema([Constraint.subproperty(EX.p, EX.q)])
        left = Endpoint("left", Graph([Triple(EX.a, EX.p, EX.b)]))
        right = Endpoint("right", Graph([Triple(EX.b, EX.p, EX.c)]))
        federation = FederatedAnswerer([left, right], schema)
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.q, y), TriplePattern(y, EX.q, z)]
        )
        answer = federation.answer(query)
        assert answer.rows == frozenset({(EX.a, EX.c)})

    def test_constraint_and_fact_in_different_places(self):
        # The constraint lives with the client, the fact at an
        # endpoint: implicit facts spanning sources (paper, §1).
        schema = Schema([Constraint.subclass(EX.Manager, EX.Employee)])
        endpoint = Endpoint("e", Graph([Triple(EX.a, RDF_TYPE, EX.Manager)]))
        federation = FederatedAnswerer([endpoint], schema)
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        assert federation.answer(query).rows == frozenset({(EX.a,)})

    def test_schema_atoms_answered_locally(self, lubm_setup):
        _, schema, endpoints, _ = lubm_setup
        federation = FederatedAnswerer(endpoints, schema)
        federation.reset_counters()
        query = ConjunctiveQuery(
            [x, y], [TriplePattern(x, RDFS_SUBCLASSOF, y)]
        )
        answer = federation.answer(query)
        assert answer.requests == 0  # no endpoint was bothered
        assert len(answer.rows) == len(
            [c for c in schema.entailed_constraints()
             if c.kind.name == "SUBCLASS"]
        )

    def test_truncation_reported(self):
        schema = Schema()
        triples = [
            Triple(EX.term("s%d" % index), EX.p, EX.o) for index in range(20)
        ]
        endpoint = Endpoint("small", Graph(triples), result_limit=5)
        federation = FederatedAnswerer([endpoint], schema)
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, EX.o)])
        answer = federation.answer(query)
        assert answer.truncated
        assert answer.cardinality == 5

    def test_request_accounting(self, lubm_setup):
        _, schema, endpoints, _ = lubm_setup
        federation = FederatedAnswerer(endpoints, schema)
        federation.reset_counters()
        query = lubm_queries()["Q1"]  # two atoms
        answer = federation.answer(query)
        # One request per (atom, endpoint) unless short-circuited.
        assert answer.requests <= len(query.atoms) * len(endpoints)
        assert answer.requests >= len(endpoints)

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            FederatedAnswerer([], Schema())

    def test_boolean_query(self):
        schema = Schema()
        endpoint = Endpoint("e", Graph([Triple(EX.a, EX.p, EX.b)]))
        federation = FederatedAnswerer([endpoint], schema)
        query = ConjunctiveQuery([], [TriplePattern(x, EX.p, y)])
        assert federation.answer(query).rows == frozenset({()})


class TestErrorPaths:
    """Endpoints answering partially, emptily, or not usefully at all."""

    def test_empty_endpoint_does_not_poison_the_union(self):
        schema = Schema([Constraint.subclass(EX.Manager, EX.Employee)])
        populated = Endpoint("full", Graph([Triple(EX.a, RDF_TYPE, EX.Manager)]))
        empty = Endpoint("empty", Graph())
        federation = FederatedAnswerer([populated, empty], schema)
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        answer = federation.answer(query)
        assert answer.rows == frozenset({(EX.a,)})
        assert not answer.truncated

    def test_all_endpoints_empty(self):
        federation = FederatedAnswerer(
            [Endpoint("a", Graph()), Endpoint("b", Graph())], Schema()
        )
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, z)]
        )
        answer = federation.answer(query)
        assert answer.rows == frozenset()
        assert not answer.truncated
        assert answer.rows_transferred == 0

    def test_empty_first_atom_short_circuits_the_join(self):
        # Once an atom with variables yields no rows the join is empty;
        # the client must not bother the endpoints about later atoms.
        endpoints = [
            Endpoint("e%d" % index, Graph([Triple(EX.a, EX.q, EX.b)]))
            for index in range(3)
        ]
        federation = FederatedAnswerer(endpoints, Schema())
        query = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.nowhere, y), TriplePattern(x, EX.q, y)]
        )
        answer = federation.answer(query)
        assert answer.rows == frozenset()
        assert answer.requests == len(endpoints)  # first atom only
        for endpoint in endpoints:
            assert endpoint.requests_served == 1

    def test_truncation_mid_join_is_reported_and_sound(self):
        # One endpoint truncates the first atom's sub-answer: the final
        # answer may miss rows but must be a *subset* of the complete
        # one and carry the truncation flag.
        triples = [
            Triple(EX.term("s%d" % index), EX.p, EX.hub) for index in range(8)
        ]
        join = [Triple(EX.hub, EX.q, EX.target)]
        truncating = Endpoint("short", Graph(triples), result_limit=3)
        other = Endpoint("other", Graph(join))
        federation = FederatedAnswerer([truncating, other], Schema())
        query = ConjunctiveQuery(
            [x, z], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, z)]
        )
        answer = federation.answer(query)
        complete = frozenset(
            {(triple.subject, EX.target) for triple in triples}
        )
        assert answer.truncated
        assert answer.rows <= complete
        assert answer.cardinality == 3

    def test_partial_overlap_across_endpoints_deduplicates(self):
        shared = Triple(EX.a, EX.p, EX.b)
        federation = FederatedAnswerer(
            [
                Endpoint("left", Graph([shared])),
                Endpoint("right", Graph([shared, Triple(EX.c, EX.p, EX.d)])),
            ],
            Schema(),
        )
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        answer = federation.answer(query)
        assert answer.rows == frozenset({(EX.a, EX.b), (EX.c, EX.d)})
        # Both endpoints shipped the shared row; the union deduplicates
        # but the transfer accounting records what actually moved.
        assert answer.rows_transferred == 3

    def test_ground_atom_failure_empties_a_boolean_answer(self):
        endpoint = Endpoint("e", Graph([Triple(EX.a, EX.p, EX.b)]))
        federation = FederatedAnswerer([endpoint], Schema())
        query = ConjunctiveQuery([], [TriplePattern(EX.a, EX.p, EX.missing)])
        assert federation.answer(query).rows == frozenset()


class TestCachedFederation:
    from repro.cache import QueryCache  # noqa: F401 — imported for use below

    def _setup(self, result_limit=None):
        from repro.cache import QueryCache

        schema = Schema([Constraint.subclass(EX.Manager, EX.Employee)])
        endpoints = [
            Endpoint(
                "left",
                Graph([Triple(EX.a, RDF_TYPE, EX.Manager)]),
                result_limit=result_limit,
            ),
            Endpoint("right", Graph([Triple(EX.b, RDF_TYPE, EX.Employee)])),
        ]
        cache = QueryCache()
        return FederatedAnswerer(endpoints, schema, cache=cache), cache

    def test_warm_answer_makes_no_requests(self):
        federation, _ = self._setup()
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        cold = federation.answer(query)
        warm = federation.answer(query)
        assert cold.requests == 2
        assert warm.requests == 0
        assert warm.rows == cold.rows == frozenset({(EX.a,), (EX.b,)})

    def test_invalidate_restores_fetches(self):
        federation, _ = self._setup()
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        federation.answer(query)
        federation.invalidate()
        assert federation.answer(query).requests == 2

    def test_truncation_flag_survives_the_cache(self):
        federation, _ = self._setup(result_limit=0)
        query = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        assert federation.answer(query).truncated
        warm = federation.answer(query)
        assert warm.requests == 0
        assert warm.truncated  # a cached partial answer stays partial

    def test_shared_atoms_hit_across_queries(self):
        federation, cache = self._setup()
        first = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.Employee)])
        second = ConjunctiveQuery(
            [y], [TriplePattern(y, RDF_TYPE, EX.Employee)]
        )  # alpha-equivalent atom
        federation.answer(first)
        assert federation.answer(second).requests == 0

    def test_two_federations_sharing_a_cache_stay_apart(self):
        from repro.cache import QueryCache

        cache = QueryCache()
        schema = Schema()
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        first = FederatedAnswerer(
            [Endpoint("e", Graph([Triple(EX.a, EX.p, EX.b)]))],
            schema,
            cache=cache,
        )
        second = FederatedAnswerer(
            [Endpoint("e", Graph([Triple(EX.c, EX.p, EX.d)]))],
            schema,
            cache=cache,
        )
        assert first.answer(query).rows == frozenset({(EX.a,)})
        # Same endpoint name, same query — but a different federation:
        # the dataset token keeps the sub-answers apart.
        assert second.answer(query).rows == frozenset({(EX.c,)})


class TestMinimisation:
    """The client drops the atoms its schema implies before fetching."""

    def test_implied_atom_costs_no_requests(self, lubm_setup):
        _, schema, endpoints, closure = lubm_setup
        query = lubm_queries()["Q5"]  # memberOf's domain implies Person
        answer = FederatedAnswerer(endpoints, schema).answer(query)
        # One request per endpoint for the one remaining atom, where the
        # unminimised query costs one per endpoint for each of its two.
        assert answer.requests == len(endpoints)
        assert answer.requests < len(query.atoms) * len(endpoints)
        assert answer.rows == evaluate_cq(closure, query)
        assert answer.rows

    def test_range_guard_keeps_literals_out(self):
        """``?x type C`` implied by ``?y p ?x`` under range(p) = C only
        for a non-literal ``?x``: the dropped atom's guard must hold."""
        schema = Schema([Constraint.range(EX.p, EX.C)])
        graph = Graph([Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.p, Literal("v"))])
        query = ConjunctiveQuery(
            [x], [TriplePattern(y, EX.p, x), TriplePattern(x, RDF_TYPE, EX.C)]
        )
        answer = FederatedAnswerer([Endpoint("e", graph)], schema).answer(query)
        assert answer.rows == frozenset({(EX.b,)})
        assert answer.requests == 1
        full = graph.copy()
        full.add_all(schema.to_triples())
        assert answer.rows == evaluate_cq(saturate(full), query)
