"""Unit tests for the cover cost estimator, GCov and the exhaustive oracle."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    example1_best_cover,
    example1_query,
    generate_lubm,
    lubm_queries,
    lubm_schema,
)
from repro.encoding import preencode_hierarchy
from repro.engine.ir import PlanNode
from repro.optimizer import (
    CoverCostEstimator,
    INFINITE_COST,
    exhaustive_cover_search,
    gcov,
)
from repro.query import ConjunctiveQuery, Cover, TriplePattern, Variable
from repro.query.cover import enumerate_partition_covers
from repro.rdf import Namespace, RDF_TYPE
from repro.reformulation import jucq_for_cover
from repro.reformulation.jucq import jucq_fragment_sizes
from repro.storage import DEFAULT_BACKENDS, Planner, TripleStore

from tests.test_property_based import cover_st, graph_st, query_st, schema_st

EX = Namespace("http://example.org/")
x, y, u = Variable("x"), Variable("y"), Variable("u")


@pytest.fixture(scope="module")
def lubm_store():
    return TripleStore.from_graph(generate_lubm(universities=1, seed=9))


@pytest.fixture(scope="module")
def schema():
    return lubm_schema()


class TestEstimator:
    def test_cost_is_positive_and_finite(self, lubm_store, schema):
        query = example1_query()
        estimator = CoverCostEstimator(query, schema, lubm_store)
        cost = estimator.cost(Cover.per_atom(query))
        assert 0 < cost < INFINITE_COST

    def test_oversized_fragment_priced_infinite(self, lubm_store, schema):
        query = example1_query()
        estimator = CoverCostEstimator(
            query, schema, lubm_store, fragment_limit=10
        )
        # The single-fragment cover contains both open type atoms:
        # its UCQ has tens of thousands of disjuncts.
        assert estimator.cost(Cover.single_fragment(query)) == INFINITE_COST

    def test_fragment_estimates_cached(self, lubm_store, schema):
        query = example1_query()
        estimator = CoverCostEstimator(query, schema, lubm_store)
        estimator.cost(Cover.per_atom(query))
        assert estimator.fragments_priced == len(query.atoms)
        computed = estimator.estimates_computed
        estimator.cost(example1_best_cover(query))
        # Four new fragments; the scans (and the join prefixes the
        # disjuncts share) were already there.
        assert estimator.fragments_priced == len(query.atoms) + 4
        grown = estimator.estimates_computed
        assert grown > computed
        estimator.cost(example1_best_cover(query))
        assert estimator.fragments_priced == len(query.atoms) + 4
        # Re-pricing a cover only re-joins its memoised fragments.
        assert estimator.estimates_computed == grown + 3

    def test_paper_cover_beats_scq(self, lubm_store, schema):
        """The cost model must reproduce the paper's ordering: the
        grouped cover of Example 1 is cheaper than the SCQ cover."""
        query = example1_query()
        estimator = CoverCostEstimator(query, schema, lubm_store)
        scq_cost = estimator.cost(Cover.per_atom(query))
        best_cost = estimator.cost(example1_best_cover(query))
        assert best_cost < scq_cost


class TestGCov:
    def test_improves_on_scq(self, lubm_store, schema):
        query = example1_query()
        estimator = CoverCostEstimator(query, schema, lubm_store)
        initial = estimator.cost(Cover.per_atom(query))
        result = gcov(query, schema, lubm_store, estimator=estimator)
        assert result.cost <= initial

    def test_finds_grouping_for_example1(self, lubm_store, schema):
        """GCov must group each open type atom with a selective degree
        atom — the insight of Example 1."""
        query = example1_query()
        result = gcov(query, schema, lubm_store)
        # t1 (index 0) must not be alone: alone it scans every type
        # unfolding of the schema.
        for atom_index in (0, 1):
            fragments = [f for f in result.cover.fragments if atom_index in f]
            assert all(len(f) > 1 for f in fragments)

    def test_explored_space_recorded(self, lubm_store, schema):
        query = example1_query()
        result = gcov(query, schema, lubm_store)
        assert result.explored_count >= result.iterations
        assert all(cost >= result.cost for _, cost in result.explored)

    def test_trivial_query_stays_atomic(self, lubm_store, schema):
        query = ConjunctiveQuery(
            [x], [TriplePattern(x, RDF_TYPE, EX.term("Nothing"))]
        )
        result = gcov(query, schema, lubm_store)
        assert len(result.cover) == 1

    def test_valid_cover_returned(self, lubm_store, schema):
        query = example1_query()
        result = gcov(query, schema, lubm_store)
        covered = set()
        for fragment in result.cover.fragments:
            covered |= fragment
        assert covered == set(range(len(query.atoms)))


class TestExhaustive:
    def test_oracle_on_small_query(self, lubm_store, schema):
        from repro.datasets.lubm import UB

        query = ConjunctiveQuery(
            [x, y],
            [
                TriplePattern(x, RDF_TYPE, UB.Student),
                TriplePattern(x, UB.takesCourse, y),
                TriplePattern(y, RDF_TYPE, UB.Course),
            ],
        )
        result = exhaustive_cover_search(query, schema, lubm_store)
        assert result.cover is not None
        assert len(result.space) == 5  # Bell(3)
        assert result.cost == min(cost for _, cost in result.space)

    def test_gcov_no_worse_than_partition_optimum_modulo_overlap(
        self, lubm_store, schema
    ):
        from repro.datasets.lubm import UB

        query = ConjunctiveQuery(
            [x, y],
            [
                TriplePattern(x, RDF_TYPE, UB.Student),
                TriplePattern(x, UB.takesCourse, y),
            ],
        )
        estimator = CoverCostEstimator(query, schema, lubm_store)
        exhaustive = exhaustive_cover_search(
            query, schema, lubm_store, estimator=estimator
        )
        greedy = gcov(query, schema, lubm_store, estimator=estimator)
        # Greedy may use overlap, so it can even beat the partition
        # optimum; it must never be worse than the SCQ start by design,
        # and on 2 atoms the space is tiny, so require the optimum.
        assert greedy.cost <= exhaustive.cost

    def test_refuses_large_queries(self, lubm_store, schema):
        query = example1_query()
        atoms = list(query.atoms) * 2
        big = ConjunctiveQuery(query.head, atoms)
        with pytest.raises(ValueError):
            exhaustive_cover_search(big, schema, lubm_store)

    def test_ranked_sorted(self, lubm_store, schema):
        from repro.datasets.lubm import UB

        query = ConjunctiveQuery(
            [x], [TriplePattern(x, RDF_TYPE, UB.Student),
                  TriplePattern(x, UB.takesCourse, y)]
        )
        result = exhaustive_cover_search(query, schema, lubm_store)
        ranked = result.ranked()
        costs = [cost for _, cost in ranked]
        assert costs == sorted(costs)


# ---------------------------------------------------------------------------
# The estimator prices from estimates; the planner is its oracle.


def assert_priced_like_the_planner(estimator, cover):
    """``cost(cover)`` is what planning the cover's JUCQ would be
    annotated with — infinite exactly when a fragment is oversized."""
    store, backend = estimator.store, estimator.backend
    cost = estimator.cost(cover)
    oversized = any(
        size > estimator.fragment_limit
        for size in jucq_fragment_sizes(
            cover, estimator.schema, estimator.policy, estimator.encoding
        )
    )
    assert (cost == INFINITE_COST) == oversized, cover
    if not oversized:
        jucq = jucq_for_cover(
            cover, estimator.schema, estimator.policy,
            encoding=estimator.encoding,
        )
        planned = Planner(store, backend).plan(jucq).total_estimated_cost()
        assert cost == pytest.approx(planned, rel=1e-9, abs=1e-12), cover


@pytest.fixture(scope="module", params=[False, True], ids=["classic", "interval"])
def benchmark_store(request):
    """The repository benchmark's ``gcov_mix_small`` graph, classic and
    hierarchy-encoded: ``(store, encoding)``."""
    graph = generate_lubm(universities=2, seed=42)
    schema = TripleStore.from_graph(graph).schema
    store, encoding = TripleStore(), None
    if request.param:
        encoding = preencode_hierarchy(store, schema)
    store.load(graph, schema)
    return store, encoding


class TestPlannerIsTheOracle:
    @pytest.mark.parametrize(
        "name", ["Q%d" % index for index in range(1, 15)] + ["Ex1"]
    )
    def test_every_explored_cover(self, benchmark_store, name):
        store, encoding = benchmark_store
        query = example1_query() if name == "Ex1" else lubm_queries()[name]
        estimator = CoverCostEstimator(
            query, store.schema, store, encoding=encoding
        )
        result = gcov(
            query, store.schema, store, estimator=estimator, encoding=encoding
        )
        for cover, cost in result.explored:
            assert estimator.cost(cover) == cost
            assert_priced_like_the_planner(estimator, cover)

    def test_example1_choice_is_the_papers(self, benchmark_store):
        store, encoding = benchmark_store
        query = example1_query()
        result = gcov(query, store.schema, store, encoding=encoding)
        assert result.cover == example1_best_cover(query)
        assert result.explored_count == 87
        if encoding is None:
            assert result.cost == pytest.approx(30644.637823648613, rel=1e-9)

    def test_every_partition_cover(self, benchmark_store):
        store, encoding = benchmark_store
        query = lubm_queries()["Q7"]
        assert len(query.atoms) == 4
        sizes = jucq_fragment_sizes(
            Cover.single_fragment(query), store.schema, encoding=encoding
        )
        # A limit the single-fragment cover (and only the larger
        # fragments) exceeds, so both outcomes occur.
        estimator = CoverCostEstimator(
            query, store.schema, store, fragment_limit=sizes[0] - 1,
            encoding=encoding,
        )
        costs = []
        for cover in enumerate_partition_covers(query):
            assert_priced_like_the_planner(estimator, cover)
            costs.append(estimator.cost(cover))
        assert INFINITE_COST in costs
        assert min(costs) < INFINITE_COST

    def test_signatures_that_collide_across_guards(self):
        """Domain and range typing of one property can estimate alike
        while only the latter is guarded: combinations that differ in
        *which* atom carries the guard are distinct disjuncts and must
        all be counted."""
        from repro.rdf import Graph, Triple
        from repro.schema import Constraint, Schema

        schema = Schema(
            [Constraint.domain(EX.p, EX.C), Constraint.range(EX.p, EX.C)]
        )
        graph = Graph([Triple(EX.a, EX.p, EX.b), Triple(EX.a, RDF_TYPE, EX.C)])
        store = TripleStore.from_graph(graph, schema)
        query = ConjunctiveQuery(
            [x, y],
            [TriplePattern(x, RDF_TYPE, EX.C), TriplePattern(y, RDF_TYPE, EX.C)],
        )
        estimator = CoverCostEstimator(query, store.schema, store)
        assert_priced_like_the_planner(estimator, Cover.single_fragment(query))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph=graph_st,
        schema=schema_st,
        data=st.data(),
        backend=st.sampled_from(DEFAULT_BACKENDS),
        fragment_limit=st.sampled_from([4, 4096]),
    )
    def test_random_covers(self, graph, schema, data, backend, fragment_limit):
        """Random schemas, queries and covers — overlapping fragments,
        atoms whose alternatives bind each other's variables (where
        choices must be merged, not multiplied) included."""
        query = data.draw(query_st())
        cover = data.draw(cover_st(query))
        store = TripleStore.from_graph(graph, schema)
        estimator = CoverCostEstimator(
            query, store.schema, store, backend, fragment_limit=fragment_limit
        )
        assert_priced_like_the_planner(estimator, cover)


class TestSearchCost:
    """What deciding costs, in counts — not wall time."""

    def test_example1_prices_factors_not_disjuncts(
        self, lubm_store, schema, monkeypatch
    ):
        built = []
        original = PlanNode.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(PlanNode, "__init__", counting)
        result = gcov(example1_query(), schema, lubm_store)
        assert built == []  # no plan node for a cover that is not run
        # Planning every fragment's UCQ took 6,693 disjunct plans.
        assert 0 < result.estimates_computed < 6693
        assert 0 < result.fragments_priced <= 40
