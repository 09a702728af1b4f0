"""Unit tests for the dataset generators and workloads."""


from repro.datasets import (
    UB,
    GeneratorConfig,
    bib_queries,
    books_dataset,
    example1_best_cover,
    example1_query,
    generate_bib,
    generate_geo,
    generate_lubm,
    geo_queries,
    lubm_queries,
    lubm_schema,
    university_uri,
)
from repro.saturation import saturate


class TestBooks:
    def test_shape(self):
        graph, schema, query = books_dataset()
        assert len(graph) == 9  # 5 data + 4 schema triples
        assert len(schema) == 4
        assert len(query.atoms) == 3

    def test_answer_needs_entailment(self, books, books_saturated):
        from repro.query import evaluate_cq
        from repro.rdf import Literal

        graph, _, query = books
        assert evaluate_cq(graph, query) == frozenset()
        assert evaluate_cq(books_saturated, query) == frozenset(
            {(Literal("J. L. Borges"),)}
        )


class TestLubmSchema:
    def test_hierarchy_depth(self):
        schema = lubm_schema()
        assert schema.is_subclass(UB.FullProfessor, UB.Person)
        assert schema.is_subclass(UB.TeachingAssistant, UB.Person)
        assert schema.is_subproperty(UB.headOf, UB.memberOf)
        assert schema.is_subproperty(UB.doctoralDegreeFrom, UB.degreeFrom)

    def test_domain_range_reach(self):
        schema = lubm_schema()
        assert UB.Person in schema.domains(UB.mastersDegreeFrom)
        assert UB.University in schema.ranges(UB.doctoralDegreeFrom)
        assert UB.Organization in schema.ranges(UB.headOf)

    def test_sizes(self):
        schema = lubm_schema()
        assert len(schema.classes()) >= 40
        assert len(schema.properties()) >= 18


class TestLubmGenerator:
    def test_deterministic(self):
        first = generate_lubm(universities=1, seed=5)
        second = generate_lubm(universities=1, seed=5)
        assert set(first) == set(second)

    def test_seed_changes_data(self):
        first = generate_lubm(universities=1, seed=5)
        second = generate_lubm(universities=1, seed=6)
        assert set(first) != set(second)

    def test_scales_with_universities(self):
        one = generate_lubm(universities=1, seed=5)
        two = generate_lubm(universities=2, seed=5)
        assert len(two) > 1.7 * len(one)

    def test_most_specific_types_only(self):
        graph = generate_lubm(universities=1, seed=5)
        # No instance is explicitly typed with a non-leaf class that
        # its specific type already entails.
        assert not graph.subjects_of_type(UB.Professor)
        assert not graph.subjects_of_type(UB.Person)
        assert graph.subjects_of_type(UB.FullProfessor)

    def test_schema_optional(self):
        bare = generate_lubm(universities=1, seed=5, include_schema=False)
        assert not list(bare.schema_triples())

    def test_config_respected(self):
        small = generate_lubm(
            universities=1,
            seed=5,
            config=GeneratorConfig(departments=1, undergraduate_students=2),
        )
        default = generate_lubm(universities=1, seed=5)
        assert len(small) < len(default) / 2

    def test_degree_pool_skewed(self):
        graph = generate_lubm(universities=3, seed=5)
        from collections import Counter

        counts = Counter(
            triple.object
            for triple in graph.match(property=UB.mastersDegreeFrom)
        )
        popular = counts[university_uri(0)] + counts[university_uri(1)]
        assert popular > sum(counts.values()) * 0.25


class TestLubmQueries:
    def test_example1_shape(self):
        query = example1_query()
        assert query.arity == 5
        assert len(query.atoms) == 6
        assert query.atoms[0].is_type_atom()

    def test_example1_best_cover_is_papers(self):
        cover = example1_best_cover()
        assert set(cover.fragments) == {
            frozenset({0, 2}),
            frozenset({2, 4}),
            frozenset({1, 3}),
            frozenset({3, 5}),
        }

    def test_fourteen_queries(self):
        queries = lubm_queries()
        assert len(queries) == 14

    def test_queries_have_answers_on_saturated_data(self):
        from repro.query import evaluate_cq

        graph = generate_lubm(universities=1, seed=3)
        saturated = saturate(graph)
        non_empty = 0
        for name, query in lubm_queries().items():
            if evaluate_cq(saturated, query):
                non_empty += 1
        # Most of the workload must be non-trivial on generated data.
        assert non_empty >= 10


class TestGeoAndBib:
    def test_geo_deterministic_and_sized(self):
        graph = generate_geo(regions=2, departements_per_region=2,
                             communes_per_departement=5, seed=1)
        again = generate_geo(regions=2, departements_per_region=2,
                             communes_per_departement=5, seed=1)
        assert set(graph) == set(again)
        assert len(graph) > 100

    def test_geo_queries_answerable(self):
        from repro.query import evaluate_cq

        graph = generate_geo(regions=1, departements_per_region=2,
                             communes_per_departement=5, seed=1)
        saturated = saturate(graph)
        for name, query in geo_queries().items():
            assert evaluate_cq(saturated, query), name

    def test_geo_reasoning_required(self):
        from repro.query import evaluate_cq

        graph = generate_geo(regions=1, departements_per_region=1,
                             communes_per_departement=3, seed=1)
        query = geo_queries()["G1"]
        assert not evaluate_cq(graph, query)
        assert evaluate_cq(saturate(graph), query)

    def test_bib_deterministic_and_sized(self):
        graph = generate_bib(authors=10, publications=30, venues=3, seed=2)
        again = generate_bib(authors=10, publications=30, venues=3, seed=2)
        assert set(graph) == set(again)
        assert len(graph) > 100

    def test_bib_queries_answerable(self):
        from repro.query import evaluate_cq

        graph = generate_bib(authors=20, publications=60, venues=5, seed=2)
        saturated = saturate(graph)
        for name, query in bib_queries().items():
            assert evaluate_cq(saturated, query), name

    def test_bib_zipf_skew(self):
        from collections import Counter
        from repro.datasets.dblp_like import BIB

        graph = generate_bib(authors=50, publications=300, venues=5, seed=2)
        counts = Counter(
            triple.subject for triple in graph.match(property=BIB.authorOf)
        )
        most = counts.most_common(1)[0][1]
        assert most >= 5 * (sum(counts.values()) / len(counts)) / 2
