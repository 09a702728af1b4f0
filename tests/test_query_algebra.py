"""Unit tests for the query algebra: patterns, CQs, UCQs, JUCQs."""

import pytest

from repro.query import (
    ConjunctiveQuery,
    JoinOfUnions,
    TriplePattern,
    UnionQuery,
    Variable,
    fresh_variable,
)
from repro.rdf import Literal, Namespace, RDF_TYPE, Triple

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestVariable:
    def test_identity(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert len({Variable("x"), Variable("x")}) == 1

    def test_fresh_variables_unique(self):
        names = {fresh_variable().name for _ in range(50)}
        assert len(names) == 50

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Variable("")


class TestTriplePattern:
    def test_variables(self):
        pattern = TriplePattern(x, EX.p, y)
        assert pattern.variables() == {x, y}

    def test_is_type_atom(self):
        assert TriplePattern(x, RDF_TYPE, EX.C).is_type_atom()
        assert not TriplePattern(x, EX.p, EX.C).is_type_atom()

    def test_substitute(self):
        pattern = TriplePattern(x, EX.p, y).substitute({x: EX.a})
        assert pattern == TriplePattern(EX.a, EX.p, y)

    def test_substitute_leaves_unbound(self):
        pattern = TriplePattern(x, y, z).substitute({y: RDF_TYPE})
        assert pattern.subject == x
        assert pattern.property == RDF_TYPE

    def test_matches_binds(self):
        pattern = TriplePattern(x, EX.p, y)
        binding = pattern.matches(Triple(EX.a, EX.p, EX.b))
        assert binding == {x: EX.a, y: EX.b}

    def test_matches_repeated_variable(self):
        pattern = TriplePattern(x, EX.p, x)
        assert pattern.matches(Triple(EX.a, EX.p, EX.a)) == {x: EX.a}
        assert pattern.matches(Triple(EX.a, EX.p, EX.b)) is None

    def test_matches_constant_mismatch(self):
        pattern = TriplePattern(EX.a, EX.p, y)
        assert pattern.matches(Triple(EX.b, EX.p, EX.c)) is None

    def test_ground_to_triple(self):
        pattern = TriplePattern(EX.a, EX.p, Literal("v"))
        assert pattern.to_triple() == Triple(EX.a, EX.p, Literal("v"))

    def test_non_ground_to_triple_rejected(self):
        with pytest.raises(ValueError):
            TriplePattern(x, EX.p, EX.b).to_triple()

    def test_rejects_bad_position(self):
        with pytest.raises(ValueError):
            TriplePattern("x", EX.p, EX.o)


class TestConjunctiveQuery:
    def test_head_must_occur_in_body(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([z], [TriplePattern(x, EX.p, y)])

    def test_head_constants_allowed(self):
        query = ConjunctiveQuery([x, EX.C], [TriplePattern(x, RDF_TYPE, EX.C)])
        assert query.arity == 2

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([], [])

    def test_boolean_query(self):
        query = ConjunctiveQuery([], [TriplePattern(x, EX.p, y)])
        assert query.is_boolean()

    def test_variables(self):
        query = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, z)]
        )
        assert query.variables() == {x, y, z}

    def test_substitute_head_and_body(self):
        query = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        bound = query.substitute({y: EX.b})
        assert bound.head == (x, EX.b)
        assert bound.atoms[0].object == EX.b


class TestCanonicalization:
    def test_renaming_invariance(self):
        first = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, z)]
        )
        a, b = Variable("aa"), Variable("bb")
        second = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, a), TriplePattern(a, EX.q, b)]
        )
        assert first.canonical() == second.canonical()

    def test_atom_order_invariance(self):
        first = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, y), TriplePattern(x, EX.q, z)]
        )
        second = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.q, z), TriplePattern(x, EX.p, y)]
        )
        assert first.canonical() == second.canonical()

    def test_distinguishes_head(self):
        first = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        second = ConjunctiveQuery([y], [TriplePattern(x, EX.p, y)])
        assert first.canonical() != second.canonical()

    def test_distinguishes_structure(self):
        first = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        second = ConjunctiveQuery([x], [TriplePattern(x, EX.p, x)])
        assert first.canonical() != second.canonical()


class TestUnionQuery:
    def test_arity_checked(self):
        one = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        two = ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])
        with pytest.raises(ValueError):
            UnionQuery([one, two])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UnionQuery([])

    def test_atom_count(self):
        cq = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y), TriplePattern(x, EX.q, z)])
        assert UnionQuery([cq, cq]).atom_count() == 4


class TestJoinOfUnions:
    def test_head_variable_must_be_exposed(self):
        union = UnionQuery([ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])])
        with pytest.raises(ValueError):
            JoinOfUnions([z], [((x,), union)])

    def test_fragment_arity_checked(self):
        union = UnionQuery([ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])])
        with pytest.raises(ValueError):
            JoinOfUnions([x], [((x, y), union)])

    def test_shared_variables(self):
        left = UnionQuery(
            [ConjunctiveQuery([x, y], [TriplePattern(x, EX.p, y)])]
        )
        right = UnionQuery(
            [ConjunctiveQuery([y, z], [TriplePattern(y, EX.q, z)])]
        )
        jucq = JoinOfUnions([x, z], [((x, y), left), ((y, z), right)])
        assert jucq.shared_variables() == {y}
        assert jucq.fragment_count() == 2
        assert jucq.atom_count() == 2
