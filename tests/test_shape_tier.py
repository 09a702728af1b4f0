"""The reformulation tier's per-shape GCov entry.

A query's *shape* is its minimised form with every instance constant
lifted to a placeholder (:func:`repro.cache.keys.shape_of`).  The tier
keeps GCov's ranked covers per shape; a query of a known shape maps
them onto its own atoms and rewrites the JUCQ from its own constants.
Covered here:

* the key: which constants lift, atom order, repeated atoms;
* soundness: answers served through the tier — through the shape's
  bound plan whenever the drawn constants may fill its slots — equal a
  cache-less GCov answer and the saturation oracle, for URI,
  blank-node, untyped and typed literal constants, schema classes used
  as instance constants, never-stored URIs, repeated constants and
  permuted atoms (hypothesis, Books, LUBM-1 and a ``p ⊑ rdf:type``
  schema);
* lifecycle in the query service: a second instance runs no search,
  writes keep shapes, schema changes retire them, tenants keep their
  own, pinned reads bypass the tier, stale refreshes use
  it, and misses report the tier's outcome.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import QueryCache
from repro.cache.keys import shape_of
from repro.core import QueryAnswerer
from repro.core import answerer as answerer_module
from repro.datasets import books_dataset, example1_query, lubm_queries
from repro.datasets.lubm import UB
from repro.query import ConjunctiveQuery, TriplePattern, Variable, evaluate_cq
from repro.rdf import (
    BlankNode,
    Literal,
    Namespace,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    Triple,
    URI,
)
from repro.rdf.namespaces import SCHEMA_PROPERTIES, XSD_NS
from repro.rdf import Graph
from repro.resilience.clock import FakeClock
from repro.saturation import saturate
from repro.schema import Constraint, Schema
from repro.service import (
    BrownoutPolicy,
    DONE,
    QueryRequest,
    QueryService,
    STALE_SERVING,
)

BOOKS = Namespace("http://example.org/books/")
LUBM = "http://www.Department0.University0.edu/"
x, y, z = Variable("x"), Variable("y"), Variable("z")


def cq(head, atoms):
    return ConjunctiveQuery(head, [TriplePattern(*atom) for atom in atoms])


def slots(query):
    """The (atom, position) of each instance constant, as the module
    docstring of :mod:`repro.cache.keys` defines them."""
    found = []
    for index, atom in enumerate(query.atoms):
        if atom.property in SCHEMA_PROPERTIES:
            continue
        if not isinstance(atom.subject, Variable):
            found.append((index, 0))
        if not isinstance(atom.object, Variable) and atom.property != RDF_TYPE:
            found.append((index, 2))
    return found


def slot_terms(query):
    """The instance constants of *query*, in :func:`slots` order."""
    return [query.atoms[index].as_tuple()[position] for index, position in slots(query)]


def instance(query, constants, order=None):
    """*query* with its instance constants replaced by *constants* and
    its atoms in *order*."""
    atoms = [list(atom.as_tuple()) for atom in query.atoms]
    for (index, position), constant in zip(slots(query), constants):
        atoms[index][position] = constant
    order = range(len(atoms)) if order is None else order
    return cq(query.head, [atoms[index] for index in order])


@pytest.fixture
def gcov_calls(monkeypatch):
    import repro.core.answerer as answerer_module

    calls = []
    real = answerer_module.gcov

    def counting(query, *args, **kwargs):
        calls.append(query)
        return real(query, *args, **kwargs)

    monkeypatch.setattr(answerer_module, "gcov", counting)
    return calls


# ---------------------------------------------------------------------------
# The key


class TestShapeKey:
    def test_instance_constants_lift_classes_and_properties_stay(self):
        students = cq([x], [(x, RDF_TYPE, UB.Student), (x, UB.takesCourse, URI(LUBM + "C0"))])
        other = instance(students, [Literal("7", XSD_NS.integer)])
        professors = cq([x], [(x, RDF_TYPE, UB.Professor), (x, UB.takesCourse, URI(LUBM + "C0"))])
        advisees = cq([x], [(x, RDF_TYPE, UB.Student), (x, UB.advisor, URI(LUBM + "C0"))])
        assert shape_of(students)[0] == shape_of(other)[0]
        assert shape_of(students)[0] != shape_of(professors)[0]
        assert shape_of(students)[0] != shape_of(advisees)[0]

    def test_subject_constants_lift(self):
        first = cq([y], [(URI(LUBM + "P0"), UB.teacherOf, y)])
        second = cq([y], [(BlankNode("b"), UB.teacherOf, y)])
        assert shape_of(first)[0] == shape_of(second)[0]

    def test_rdfs_vocabulary_atoms_keep_their_constants(self):
        first = cq([x], [(x, RDFS_SUBCLASSOF, UB.Person)])
        second = cq([x], [(x, RDFS_SUBCLASSOF, UB.Student)])
        assert shape_of(first)[0] != shape_of(second)[0]

    def test_lifted_atoms_keep_their_count(self):
        one = cq([x], [(x, UB.takesCourse, URI(LUBM + "C0"))])
        two = cq(
            [x], [(x, UB.takesCourse, URI(LUBM + "C0")), (x, UB.takesCourse, URI(LUBM + "C1"))]
        )
        assert shape_of(one)[0] != shape_of(two)[0]
        assert len(shape_of(two)[0][2]) == 2

    def test_permuted_atoms_share_the_shape_and_map_alike(self):
        query = lubm_queries()["Q4"]
        permuted = instance(query, [URI(LUBM + "D9")], order=[3, 0, 4, 2, 1])
        shape, order = shape_of(query)
        permuted_shape, permuted_order = shape_of(permuted)
        assert shape == permuted_shape
        # Canonical atom i is the same atom, up to the lifted constant.
        for mine, theirs in zip(order, permuted_order):
            assert query.atoms[mine].property == permuted.atoms[theirs].property


def groups(compiled):
    """The compiled cover's fragments as sets of atoms."""
    atoms = compiled.minimised.atoms
    return {frozenset(atoms[index] for index in f) for f in compiled.cover.fragments}


class TestCoverMapping:
    @pytest.mark.parametrize("name", ["Q2", "Q4", "Q8", "Ex1"])
    def test_permuted_query_gets_the_same_fragments(self, lubm_small, name):
        """The tier's covers, mapped back, group the same atoms as the
        search did, whatever order the atoms are written in."""
        query = dict(lubm_queries(), Ex1=example1_query())[name]
        answerer = QueryAnswerer(lubm_small, cache=QueryCache())
        first = answerer.compile(query)
        for order in ([*reversed(range(len(query.atoms)))], [1, 0, *range(2, len(query.atoms))]):
            permuted = answerer.compile(instance(query, [], order))
            assert permuted.reformulation_hit is True
            assert groups(permuted) == groups(first)
            ranked = [{frozenset(c.query.atoms[i] for i in f) for f in c.fragments}
                      for c, _ in permuted.ranked]
            assert ranked == [{frozenset(c.query.atoms[i] for i in f) for f in c.fragments}
                              for c, _ in first.ranked]

    def test_a_hit_maps_the_ranking_on_first_read(self, lubm_small, monkeypatch):
        """A compile builds the chosen cover; the ranking's covers are
        mapped onto the query when something reads them."""
        answerer = QueryAnswerer(lubm_small, cache=QueryCache())
        expected = list(answerer.compile(example1_query()).ranked)
        built = []
        real = answerer_module.Cover
        monkeypatch.setattr(
            answerer_module, "Cover", lambda *args: built.append(args) or real(*args)
        )
        served = answerer.compile(example1_query())
        assert served.reformulation_hit is True and len(built) == 1
        assert len(served.ranked) == len(expected) > 1 and len(built) == 1
        assert list(served.ranked[:2]) == expected[:2]
        assert list(served.ranked) == expected
        assert len(built) == 1 + len(expected)

    def test_cached_cover_is_the_fresh_search_s(self, lubm_small):
        cached = QueryAnswerer(lubm_small, cache=QueryCache())
        plain = QueryAnswerer(lubm_small)
        for name, query in lubm_queries().items():
            fresh = plain.compile(query)
            for _ in range(2):  # the search, then the tier
                served = cached.compile(query)
                assert served.cover == fresh.cover, name
                assert [c for c, _ in served.ranked] == [c for c, _ in fresh.ranked], name


# ---------------------------------------------------------------------------
# Soundness: tier answers == cache-less GCov == saturation oracle


def _books():
    graph, schema, query = books_dataset()
    templates = [
        query,  # x1 x4 "1949": a literal in a variable-property atom
        cq([x], [
            (y, BOOKS.hasAuthor, x), (y, RDF_TYPE, BOOKS.Book),
            (y, BOOKS.hasTitle, Literal("El Aleph")),
        ]),
        cq([z], [(BOOKS.doi1, BOOKS.writtenBy, y), (y, BOOKS.hasName, z)]),
    ]
    pool = [
        BOOKS.doi1, BOOKS.doi2, BlankNode("b1"), BlankNode("b9"), Literal("1949"),
        Literal("1949", XSD_NS.integer), Literal("El Aleph"), Literal("J. L. Borges"),
        BOOKS.Book,  # a schema class
    ]
    return graph, schema, templates, pool


def _lubm(graph):
    queries = lubm_queries()
    templates = [queries[name] for name in ("Q1", "Q3", "Q4", "Q5")] + [
        cq([x, z], [
            (x, RDF_TYPE, UB.Student), (x, UB.advisor, URI(LUBM + "FullProfessor0")),
            (x, UB.memberOf, z),
        ]),
        cq([x, y], [
            (URI(LUBM + "FullProfessor1"), UB.teacherOf, y), (x, UB.takesCourse, y),
            (x, RDF_TYPE, UB.Student),
        ]),
        # Two slots: draws repeat a constant across them.
        cq([x], [
            (x, UB.advisor, URI(LUBM + "FullProfessor0")),
            (x, UB.takesCourse, URI(LUBM + "GraduateCourse0")),
        ]),
    ]
    pool = [
        URI(LUBM + "GraduateCourse1"), URI(LUBM + "Course3"), URI(LUBM + "FullProfessor2"),
        URI(LUBM + "AssociateProfessor0"), URI("http://www.Department1.University0.edu"),
        URI("http://www.University0.edu"), BlankNode("b1"), Literal("Course3"),
        Literal("0", XSD_NS.integer), UB.Course, URI(LUBM + "NeverStored"),
    ]
    return graph, None, templates, pool


TYPED = Namespace("http://example.org/typed/")


def _typed():
    """``kind ⊑ rdf:type``: a ``kind`` triple types its subject with its
    object, so the lifted object of an open-property atom is read as a
    class — with subclasses when it is one."""
    schema = Schema([
        Constraint.subproperty(TYPED.kind, RDF_TYPE),
        Constraint.subclass(TYPED.A, TYPED.B),
        Constraint.domain(TYPED.p, TYPED.B),
    ])
    graph = Graph([
        Triple(TYPED.i1, TYPED.kind, TYPED.A), Triple(TYPED.i2, RDF_TYPE, TYPED.B),
        Triple(TYPED.i3, TYPED.kind, TYPED.c1), Triple(TYPED.i4, TYPED.p, TYPED.c2),
        Triple(TYPED.i5, RDF_TYPE, TYPED.c2), Triple(TYPED.i1, TYPED.p, Literal("c1")),
    ])
    templates = [
        cq([x], [(x, y, TYPED.c1)]),
        cq([x], [(x, TYPED.kind, TYPED.c1)]),
        cq([x, y], [(x, RDF_TYPE, TYPED.B), (x, TYPED.p, TYPED.c2), (y, TYPED.kind, TYPED.i1)]),
    ]
    pool = [
        TYPED.c1, TYPED.c2, TYPED.i1, TYPED.A, TYPED.B, TYPED.nowhere, Literal("c1"),
    ]
    return graph, schema, templates, pool


class _Tier:
    """One cached and one cache-less answerer over a dataset, and the
    saturation the oracle reads.  ``defined`` records which templates
    defined their shape's plan (constants stored, distinct, no class or
    property of the schema)."""

    def __init__(self, graph, schema, templates, pool):
        self.cached = QueryAnswerer(graph, schema, cache=QueryCache())
        self.plain = QueryAnswerer(graph, schema)
        self.saturated = saturate(graph, schema if schema is not None else self.plain.schema)
        self.templates, self.pool = templates, pool
        schema = self.cached.schema
        self.schema_terms = schema.classes() | schema.properties()
        self.defined = [  # the first instance of each shape
            self.cached.compile(template).plan is not None for template in templates
        ]

    def check(self, template, constants, order):
        query = instance(template, constants, order)
        compiled = self.cached.compile(query)
        assert compiled.reformulation_hit is True
        if any(constant in self.schema_terms for constant in constants):
            assert compiled.plan is None  # a class or property: compiled anew
        elif self.defined[self.templates.index(template)] and not any(
            isinstance(term, Literal) for term in constants + slot_terms(template)
        ):
            assert compiled.plan is not None and compiled.relational is None
        served = self.cached.execute(compiled).answer
        assert served == self.plain.answer(query).answer
        assert served == evaluate_cq(self.saturated, query)


@pytest.fixture(scope="module")
def books_tier():
    return _Tier(*_books())


@pytest.fixture(scope="module")
def lubm_tier(lubm_small):
    return _Tier(*_lubm(lubm_small))


@pytest.fixture(scope="module")
def typed_tier():
    return _Tier(*_typed())


def _drawn(data, tier):
    template = data.draw(st.sampled_from(tier.templates), label="template")
    constants = data.draw(
        st.lists(
            st.sampled_from(tier.pool),
            min_size=len(slots(template)),
            max_size=len(slots(template)),
        ),
        label="constants",
    )
    order = data.draw(st.permutations(range(len(template.atoms))), label="order")
    return template, constants, order


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestTierSoundness:
    @_SETTINGS
    @given(data=st.data())
    def test_books(self, books_tier, data):
        books_tier.check(*_drawn(data, books_tier))

    @_SETTINGS
    @given(data=st.data())
    def test_lubm(self, lubm_tier, data):
        lubm_tier.check(*_drawn(data, lubm_tier))

    @_SETTINGS
    @given(data=st.data())
    def test_a_subproperty_of_rdf_type(self, typed_tier, data):
        typed_tier.check(*_drawn(data, typed_tier))

    def test_every_template_defines_its_plan(self, books_tier, lubm_tier, typed_tier):
        assert all(books_tier.defined + lubm_tier.defined + typed_tier.defined)

    @pytest.mark.parametrize("constant", [
        URI(LUBM + "GraduateCourse3"), URI(LUBM + "NeverStored"), UB.Course,
    ])
    def test_one_constant_in_both_slots(self, lubm_tier, constant):
        """The two-slot template's plan, bound with one constant twice
        (or a schema class, compiled anew)."""
        lubm_tier.check(lubm_tier.templates[-1], [constant, constant], [1, 0])

    @pytest.mark.parametrize(
        "constant",
        [Literal("GraduateCourse0"), Literal("GraduateCourse0", XSD_NS.string), BlankNode("c")],
    )
    def test_literal_after_a_uri(self, lubm_tier, constant):
        """Q1's first instance had a URI; a literal or blank node in its
        place shares the covers and still answers correctly (here: no
        row, as nothing takes a literal course)."""
        lubm_tier.check(lubm_tier.templates[0], [constant], [1, 0])


# ---------------------------------------------------------------------------
# Lifecycle in the query service


def course_students(course):
    return cq([x], [(x, RDF_TYPE, UB.Student), (x, UB.takesCourse, URI(LUBM + course))])


def make_service(graph, tenants=("a",), **kwargs):
    return QueryService(
        graph, tenants=list(tenants), clock=FakeClock(auto_advance=0.001), **kwargs
    )


def round_trip(service, tenant, query, **kwargs):
    ticket = service.submit(QueryRequest(tenant, query, **kwargs))
    service.step()
    assert ticket.status == DONE
    return ticket


def tier_counts(service, tenant="a"):
    stats = service.cache_stats()[tenant]["reformulation"]
    return stats["hits"], stats["misses"], stats["entries"]


class TestServiceTier:
    def test_second_instance_is_a_hit_and_searches_nothing(self, lubm_small, gcov_calls):
        service = make_service(lubm_small)
        first = round_trip(service, "a", course_students("GraduateCourse0"))
        second = round_trip(service, "a", course_students("GraduateCourse1"))
        assert len(gcov_calls) == 1
        assert first.report.details["cache"] == {
            "answer": "miss", "reformulation": "miss", "tenant": "a"
        }
        assert second.report.details["cache"] == {
            "answer": "miss", "reformulation": "hit", "tenant": "a"
        }
        assert tier_counts(service) == (1, 1, 1)
        direct = QueryAnswerer(lubm_small)
        assert second.answer == direct.answer(course_students("GraduateCourse1")).answer
        again = round_trip(service, "a", course_students("GraduateCourse1"))
        assert again.report.details["cache"] == {"answer": "hit", "tenant": "a"}
        assert tier_counts(service) == (1, 1, 1)  # an answer hit compiles nothing

    def test_data_write_keeps_shapes_and_retires_answers(self, lubm_small, gcov_calls):
        service = make_service(lubm_small)
        query = course_students("GraduateCourse0")
        before = round_trip(service, "a", query)
        student = URI(LUBM + "NewStudent")
        assert service.insert(Triple(student, UB.takesCourse, URI(LUBM + "GraduateCourse0")))
        assert service.insert(Triple(student, RDF_TYPE, UB.GraduateStudent))
        after = round_trip(service, "a", query)
        assert after.cache == "miss"
        assert after.report.details["cache"]["reformulation"] == "hit"
        assert len(gcov_calls) == 1
        assert after.answer == before.answer | {(student,)}

    def test_schema_change_retires_every_shape(self, lubm_small, gcov_calls):
        service = make_service(lubm_small)
        round_trip(service, "a", course_students("GraduateCourse0"))
        round_trip(service, "a", cq([y], [(URI(LUBM + "FullProfessor0"), UB.teacherOf, y)]))
        assert tier_counts(service)[2] == 2
        # The store's listener fires note_schema_change for a constraint.
        EX = Namespace("http://example.org/shapes/")
        assert service.answerer.store.insert(Triple(EX.Sub, RDFS_SUBCLASSOF, EX.Super))
        assert tier_counts(service)[2] == 0
        after = round_trip(service, "a", course_students("GraduateCourse1"))
        assert after.report.details["cache"]["reformulation"] == "miss"
        assert len(gcov_calls) == 3

    def test_tenants_keep_their_shapes_private(self, lubm_small, gcov_calls):
        service = make_service(lubm_small, tenants=("a", "b"))
        round_trip(service, "a", course_students("GraduateCourse0"))
        other = round_trip(service, "b", course_students("GraduateCourse1"))
        assert other.report.details["cache"]["reformulation"] == "miss"
        assert tier_counts(service, "b") == (0, 1, 1)
        assert len(gcov_calls) == 2

    def test_pinned_reads_bypass_the_tier(self, lubm_small, gcov_calls):
        service = make_service(lubm_small)
        round_trip(service, "a", course_students("GraduateCourse0"))
        snapshot = service.pin()
        pinned = round_trip(
            service, "a", course_students("GraduateCourse1"), snapshot=snapshot
        )
        assert pinned.cache is None and "cache" not in pinned.report.details
        assert tier_counts(service) == (0, 1, 1)
        assert len(gcov_calls) == 2

    def test_stale_refresh_compiles_through_the_tier(self, lubm_small, gcov_calls):
        service = make_service(lubm_small, brownout=BrownoutPolicy())
        query = course_students("GraduateCourse0")
        round_trip(service, "a", query)
        # A write the minimised query (``?x takesCourse GraduateCourse0``)
        # reads: it retires the answer.
        assert service.insert(
            Triple(URI(LUBM + "Noise"), UB.takesCourse, URI(LUBM + "GraduateCourse0"))
        )
        service.brownout.force(STALE_SERVING, "test")
        stale = round_trip(service, "a", query)  # the refresh runs this round
        assert stale.cache == "stale"
        totals = service.metrics.totals()
        assert (totals["refreshes"], totals["refresh_failures"]) == (1, 0)
        assert len(gcov_calls) == 1
        assert tier_counts(service) == (1, 1, 1)
        fresh = round_trip(service, "a", query)
        assert fresh.cache == "hit"
        assert fresh.report.details["cache"] == {"answer": "hit", "tenant": "a"}
