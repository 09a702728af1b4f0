"""Unit and property tests for CQ containment, schema minimisation and
UCQ subsumption pruning."""

from hypothesis import HealthCheck, given, settings

from repro.query import ConjunctiveQuery, TriplePattern, UnionQuery, Variable, evaluate
from repro.rdf import Namespace, RDF_TYPE
from repro.reformulation import (
    find_homomorphism,
    is_contained,
    prune_subsumed,
    reformulate,
)
from repro.reformulation.atoms import database_graph

EX = Namespace("http://example.org/")
x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


class TestHomomorphism:
    def test_identity(self):
        query = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        assert find_homomorphism(query, query) is not None

    def test_variable_to_constant(self):
        general = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        specific = ConjunctiveQuery([x], [TriplePattern(x, EX.p, EX.b)])
        assert find_homomorphism(general, specific) is not None
        assert find_homomorphism(specific, general) is None

    def test_head_must_map(self):
        first = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        second = ConjunctiveQuery([y], [TriplePattern(x, EX.p, y)])
        # Mapping head x ↦ y forces (y, p, ?) which only unifies with
        # the body atom if y maps consistently — possible here: x↦y is
        # frozen-target... the heads project different positions, so
        # containment must fail in at least one direction.
        assert (
            is_contained(first, second) and is_contained(second, first)
        ) is False

    def test_arity_mismatch(self):
        first = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        second = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        assert find_homomorphism(first, second) is None

    def test_longer_into_shorter(self):
        # (x p y), (y p z) maps into (x p x') when x' self-loops? No:
        # target (x p y) alone cannot absorb a 2-chain unless variables
        # collapse; with the loop atom it can.
        chain = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.p, z)]
        )
        loop = ConjunctiveQuery([x], [TriplePattern(x, EX.p, x)])
        assert find_homomorphism(chain, loop) is not None
        assert is_contained(loop, chain)


class TestContainment:
    def test_more_atoms_more_specific(self):
        broad = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        narrow = ConjunctiveQuery(
            [x],
            [TriplePattern(x, RDF_TYPE, EX.C), TriplePattern(x, EX.p, y)],
        )
        assert is_contained(narrow, broad)
        assert not is_contained(broad, narrow)

    def test_guard_blocks_containment(self):
        guarded = ConjunctiveQuery(
            [x], [TriplePattern(y, EX.p, x)], nonliteral_variables=[x]
        )
        unguarded = ConjunctiveQuery([x], [TriplePattern(y, EX.p, x)])
        # The guarded query returns fewer rows: contained, not container.
        assert is_contained(guarded, unguarded)
        assert not is_contained(unguarded, guarded)

    def test_equal_guards_contain(self):
        first = ConjunctiveQuery(
            [x], [TriplePattern(y, EX.p, x)], nonliteral_variables=[x]
        )
        assert is_contained(first, first)


class TestPruneSubsumed:
    def test_subsumed_disjunct_dropped(self):
        broad = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, EX.C)])
        narrow = ConjunctiveQuery(
            [x],
            [TriplePattern(x, RDF_TYPE, EX.C), TriplePattern(x, EX.p, y)],
        )
        pruned = prune_subsumed(UnionQuery([broad, narrow]))
        assert list(pruned) == [broad]

    def test_equivalent_pair_keeps_one(self):
        first = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        renamed = ConjunctiveQuery([x], [TriplePattern(x, EX.p, w)])
        pruned = prune_subsumed(UnionQuery([first, renamed]))
        assert len(pruned) == 1

    def test_incomparable_kept(self):
        first = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        second = ConjunctiveQuery([x], [TriplePattern(x, EX.q, y)])
        assert len(prune_subsumed(UnionQuery([first, second]))) == 2

    def test_pruned_reformulation_equivalent(self, books):
        graph, schema, query = books
        db = database_graph(graph, schema)
        union = reformulate(query, schema)
        pruned = prune_subsumed(union)
        assert len(pruned) <= len(union)
        assert evaluate(db, pruned) == evaluate(db, union)


from tests.test_property_based import graph_st, query_st, schema_st  # noqa: E402


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graph_st, schema=schema_st, query=query_st())
def test_pruning_preserves_answers_property(graph, schema, query):
    """prune_subsumed never changes any answer."""
    db = database_graph(graph, schema)
    union = reformulate(query, schema)
    pruned = prune_subsumed(union)
    assert evaluate(db, pruned) == evaluate(db, union)


# ---------------------------------------------------------------------------
# Schema minimisation: atoms another atom entails under the schema


from repro import QueryAnswerer, Strategy  # noqa: E402
from repro.core import COMPLETE_STRATEGIES  # noqa: E402
from repro.datalog import answer_query as datalog_answer  # noqa: E402
from repro.datasets import example1_query, lubm_queries  # noqa: E402
from repro.datasets.lubm import UB  # noqa: E402
from repro.query import Cover  # noqa: E402
from repro.rdf import Graph, Literal, Triple, URI  # noqa: E402
from repro.rdf.namespaces import RDFS_SUBCLASSOF  # noqa: E402
from repro.reformulation import (  # noqa: E402
    ALLEGROGRAPH_STYLE,
    VIRTUOSO_STYLE,
    minimize_under_schema,
)
from repro.saturation import saturate  # noqa: E402
from repro.schema import Constraint, Schema  # noqa: E402


def _cq(head, *atoms):
    return ConjunctiveQuery(head, [TriplePattern(*atom) for atom in atoms])


class TestMinimizeUnderSchema:
    def test_subclass_cycle_keeps_exactly_one(self):
        schema = Schema([
            Constraint.subclass(EX.A, EX.B), Constraint.subclass(EX.B, EX.A),
        ])
        query = _cq([x], (x, RDF_TYPE, EX.A), (x, RDF_TYPE, EX.B))
        minimised, dropped = minimize_under_schema(query, schema)
        assert dropped == (0,)
        assert minimised.atoms == (TriplePattern(x, RDF_TYPE, EX.B),)

    def test_variable_class_or_property_never_dropped(self):
        schema = Schema([
            Constraint.domain(EX.p, EX.C), Constraint.subproperty(EX.p, EX.q),
        ])
        open_class = _cq([x, z], (x, RDF_TYPE, z), (x, EX.p, y))
        assert minimize_under_schema(open_class, schema)[1] == ()
        open_property = _cq([x, z], (x, z, y), (x, EX.p, y))
        assert minimize_under_schema(open_property, schema)[1] == ()
        # A variable implier entails nothing either.
        implied_by_variable = _cq([x, z], (x, EX.q, y), (x, z, y))
        assert minimize_under_schema(implied_by_variable, schema)[1] == ()

    def test_schema_vocabulary_atom_never_dropped(self):
        # Constraint atoms are answered from the stored closed schema
        # alone, which a data triple of a "subproperty" never extends.
        schema = Schema([Constraint.subproperty(EX.p, RDFS_SUBCLASSOF)])
        query = _cq([x, y], (x, RDFS_SUBCLASSOF, y), (x, EX.p, y))
        assert minimize_under_schema(query, schema)[1] == ()

    def test_range_drop_adds_the_guard(self):
        schema = Schema([Constraint.range(EX.p, EX.C)])
        query = _cq([x, y], (y, RDF_TYPE, EX.C), (x, EX.p, y))
        minimised, dropped = minimize_under_schema(query, schema)
        assert dropped == (0,)
        assert minimised.atoms == (TriplePattern(x, EX.p, y),)
        assert minimised.nonliteral_variables == {y}
        # A literal object is never typed: the guard keeps it out.
        graph = Graph([
            Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.p, Literal("l")),
        ])
        saturated = saturate(graph, schema)
        assert evaluate(saturated, minimised) == evaluate(saturated, query) == {
            (EX.a, EX.b),
        }
        db = database_graph(graph, schema)
        assert evaluate(db, reformulate(minimised, schema)) == {(EX.a, EX.b)}
        assert datalog_answer(graph, schema, minimised) == {(EX.a, EX.b)}
        answerer = QueryAnswerer(graph, schema)
        for strategy in COMPLETE_STRATEGIES - {Strategy.REF_JUCQ}:
            report = answerer.answer(query, strategy)
            assert report.answer == {(EX.a, EX.b)}, strategy

    def test_unguarded_entailment_preferred(self):
        schema = Schema([
            Constraint.range(EX.p, EX.C), Constraint.domain(EX.q, EX.C),
        ])
        query = _cq([x, y], (y, RDF_TYPE, EX.C), (x, EX.p, y), (y, EX.q, z))
        minimised, dropped = minimize_under_schema(query, schema)
        assert dropped == (0,)
        assert minimised.nonliteral_variables == frozenset()

    def test_literal_constant_subject_keeps_its_type_atom(self):
        schema = Schema([Constraint.range(EX.p, EX.C)])
        literal = Literal("l")
        query = _cq([x], (literal, RDF_TYPE, EX.C), (x, EX.p, literal))
        assert minimize_under_schema(query, schema) == (query, ())

    def test_policy_gating(self):
        schema = Schema([
            Constraint.subclass(EX.A, EX.B),
            Constraint.subproperty(EX.p, EX.q),
            Constraint.domain(EX.p, EX.D),
        ])
        subclass = _cq([x], (x, RDF_TYPE, EX.A), (x, RDF_TYPE, EX.B))
        subproperty = _cq([x, y], (x, EX.p, y), (x, EX.q, y))
        domain = _cq([x, y], (x, RDF_TYPE, EX.D), (x, EX.p, y))
        for query, complete, virtuoso, allegro in (
            (subclass, (1,), (1,), (1,)),
            (subproperty, (1,), (1,), ()),
            (domain, (0,), (), ()),
        ):
            assert minimize_under_schema(query, schema)[1] == complete
            assert minimize_under_schema(query, schema, VIRTUOSO_STYLE)[1] == virtuoso
            assert minimize_under_schema(query, schema, ALLEGROGRAPH_STYLE)[1] == allegro

    def test_orphaned_head_variable_blocks_the_drop(self, monkeypatch):
        import repro.reformulation.pruning as pruning

        # Pretend every atom entails every other: only the drops that
        # keep every head variable in the body may happen.
        monkeypatch.setattr(pruning, "_implied_guard", lambda *args: ())
        query = _cq([x], (x, EX.p, y), (z, EX.q, w))
        minimised, dropped = minimize_under_schema(query, Schema())
        assert dropped == (1,)
        assert minimised.atoms == (TriplePattern(x, EX.p, y),)

    def test_dropped_indices_name_the_callers_atoms(self):
        schema = Schema([
            Constraint.subclass(EX.A, EX.B), Constraint.domain(EX.p, EX.A),
        ])
        query = _cq(
            [x], (x, RDF_TYPE, EX.B), (x, RDF_TYPE, EX.A), (x, EX.p, y),
        )
        minimised, dropped = minimize_under_schema(query, schema)
        assert dropped == (0, 1)
        assert minimised.atoms == (TriplePattern(x, EX.p, y),)


def _service_templates():
    """The four templates of the repository benchmark's service
    workload, each on one constant."""
    dept = URI("http://www.Department0.University0.edu")
    course = URI("http://www.Department0.University0.edu/GraduateCourse0")
    professor = URI("http://www.Department0.University0.edu/FullProfessor0")
    c, d = Variable("c"), Variable("d")
    return {
        "dept_members(Person)": _cq(
            [x], (x, RDF_TYPE, UB.Person), (x, UB.memberOf, dept)),
        "course_students": _cq(
            [x], (x, RDF_TYPE, UB.Student), (x, UB.takesCourse, course)),
        "advisees": _cq(
            [x, d], (x, RDF_TYPE, UB.Student), (x, UB.advisor, professor),
            (x, UB.memberOf, d)),
        "teacher_students": _cq(
            [x, c], (professor, UB.teacherOf, c), (x, UB.takesCourse, c),
            (x, RDF_TYPE, UB.Student)),
    }


#: What schema minimisation drops from the LUBM queries and the
#: benchmark's service templates (indices into the caller's query).
LUBM_DROPS = {
    "Q1": (), "Q2": (1,), "Q3": (0,), "Q4": (), "Q5": (0,), "Q6": (),
    "Q7": (0, 1), "Q8": (), "Q9": (0, 1, 2), "Q10": (0,), "Q11": (),
    "Q12": (), "Q13": (0,), "Q14": (), "Ex1": (),
    "dept_members(Person)": (0,), "course_students": (0,), "advisees": (),
    "teacher_students": (2,),
}


def test_lubm_drops_pinned(lubm_schema_fixture):
    queries = dict(lubm_queries())
    queries["Ex1"] = example1_query()
    queries.update(_service_templates())
    found = {
        name: minimize_under_schema(query, lubm_schema_fixture)[1]
        for name, query in queries.items()
    }
    assert found == LUBM_DROPS


class TestAnswererMinimises:
    def test_ref_jucq_keeps_the_callers_atoms(self, lubm_small):
        answerer = QueryAnswerer(lubm_small)
        query = lubm_queries()["Q9"]
        cover = Cover(query, [[0, 3], [1, 4], [2, 5]])
        jucq = answerer.answer(query, Strategy.REF_JUCQ, cover=cover)
        gcov = answerer.answer(query, Strategy.REF_GCOV)
        assert jucq.details["minimised"] == ()
        assert gcov.details["minimised"] == (0, 1, 2)
        assert jucq.answer == gcov.answer
        assert jucq.answer == answerer.answer(query, Strategy.SAT).answer

    def test_every_other_strategy_minimises(self, lubm_small):
        answerer = QueryAnswerer(lubm_small)
        query = lubm_queries()["Q7"]
        expected = answerer.answer(query, Strategy.SAT).answer
        for strategy in Strategy:
            if strategy is Strategy.REF_JUCQ:
                continue
            report = answerer.answer(query, strategy)
            # Q7's drops are a domain and a range drop, which only the
            # complete rule set reproduces.
            assert report.details["minimised"] == (
                () if strategy in (Strategy.REF_VIRTUOSO, Strategy.REF_ALLEGRO)
                else (0, 1)
            ), strategy
            if strategy not in (Strategy.REF_VIRTUOSO, Strategy.REF_ALLEGRO):
                assert report.answer == expected, strategy
