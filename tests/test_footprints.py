"""Footprint retirement: a data write retires exactly the cached answers
whose reformulation reads a triple pattern it matches.

A hypothesis property interleaves reads with data inserts and deletes,
through a one-tenant :class:`~repro.service.QueryService` and through a
:class:`~repro.core.QueryAnswerer` holding a
:class:`~repro.cache.QueryCache`.  Every answer either serves — a hit
kept across writes, or a miss — must equal a cache-less answer and the
saturation oracle over the graph as written so far.

* Reads: LUBM catalog queries, instance variants of the four templates
  of the ``service_zipf_rw`` benchmark workload (class × department,
  course, advisor, teacher), a variable-property query, queries naming
  a never-stored constant and a literal with or without a datatype, and
  the Books queries.
* Writes: ``rdf:type`` triples; triples naming the never-stored
  constants, which the first such write stores; triples the
  variable-property query reads; and a literal with and without a
  datatype under ``takesCourse``'s range (``Course``) or as the
  ``publishedIn`` year the Books query names.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import QueryCache
from repro.core import QueryAnswerer, Strategy
from repro.datasets import books_dataset, generate_lubm, lubm_queries
from repro.datasets.lubm import UB
from repro.query import ConjunctiveQuery, TriplePattern, Variable, evaluate_cq
from repro.rdf import Literal, Namespace, RDF_TYPE, Triple, URI
from repro.rdf.namespaces import XSD_NS
from repro.resilience.clock import FakeClock
from repro.saturation import saturate
from repro.service import DONE, QueryRequest, QueryService

TENANT = "solo"
LUBM = "http://www.Department0.University0.edu/"
BOOKS = Namespace("http://example.org/books/")
x, y, c, d, p = (Variable(name) for name in "xycdp")

NEVER_COURSE = URI(LUBM + "NeverStoredCourse")
NEVER_PROFESSOR = URI(LUBM + "NeverStoredProfessor")
COURSE_TEXT = Literal("GraduateCourse0")
COURSE_STRING = Literal("GraduateCourse0", XSD_NS.string)


def cq(head, atoms):
    return ConjunctiveQuery(head, [TriplePattern(*atom) for atom in atoms])


def dept_members(klass, department):
    return cq([x], [(x, RDF_TYPE, klass), (x, UB.memberOf, department)])


def course_students(course):
    return cq([x], [(x, RDF_TYPE, UB.Student), (x, UB.takesCourse, course)])


def advisees(professor):
    return cq([x, d], [(x, RDF_TYPE, UB.Student), (x, UB.advisor, professor), (x, UB.memberOf, d)])


def teacher_students(teacher):
    return cq([x, c], [(teacher, UB.teacherOf, c), (x, UB.takesCourse, c), (x, RDF_TYPE, UB.Student)])


def _lubm_reads():
    catalog = lubm_queries()
    reads = [catalog[name] for name in ("Q1", "Q4", "Q5", "Q6", "Q7", "Q10", "Q13", "Q14")]
    for number in (0, 1):
        department = URI("http://www.Department%d.University0.edu" % number)
        reads += [
            dept_members(UB.GraduateStudent, department),
            dept_members(UB.Person, department),
            course_students(URI(LUBM + "GraduateCourse%d" % number)),
            advisees(URI(LUBM + "FullProfessor%d" % number)),
            teacher_students(URI(LUBM + "FullProfessor%d" % number)),
        ]
    return reads + [
        course_students(NEVER_COURSE),
        advisees(NEVER_PROFESSOR),
        course_students(COURSE_TEXT),
        course_students(COURSE_STRING),
        cq([x], [(x, RDF_TYPE, UB.Course)]),  # range-typed: never a literal
        cq([x, p], [(x, p, URI(LUBM + "GraduateCourse1"))]),  # open property
    ]


def _lubm_writes():
    students = [URI(LUBM + "DrawnStudent%d" % index) for index in range(2)]
    existing = URI(LUBM + "GraduateStudent0")
    writes = [
        Triple(existing, RDF_TYPE, UB.ResearchAssistant),
        Triple(existing, RDF_TYPE, UB.UndergraduateStudent),
        Triple(existing, UB.takesCourse, NEVER_COURSE),
        Triple(existing, UB.advisor, NEVER_PROFESSOR),
        Triple(existing, UB.teachingAssistantOf, URI(LUBM + "GraduateCourse1")),
        Triple(existing, UB.memberOf, URI("http://www.Department0.University0.edu")),
        Triple(existing, UB.advisor, URI(LUBM + "FullProfessor1")),
        Triple(URI(LUBM + "FullProfessor1"), UB.teacherOf, URI(LUBM + "GraduateCourse0")),
    ]
    for student in students:
        writes += [
            Triple(student, RDF_TYPE, UB.GraduateStudent),
            Triple(student, UB.takesCourse, URI(LUBM + "GraduateCourse0")),
            Triple(student, UB.takesCourse, COURSE_TEXT),
            Triple(student, UB.takesCourse, COURSE_STRING),
            Triple(student, UB.memberOf, URI("http://www.Department1.University0.edu")),
            Triple(student, UB.advisor, URI(LUBM + "FullProfessor0")),
        ]
    return writes


def _books_reads():
    _, _, query = books_dataset()
    return [
        query,  # ?x1 ?x4 "1949": a literal in an open-property atom
        cq([x], [(x, RDF_TYPE, BOOKS.Publication)]),
        cq([y], [(x, BOOKS.hasAuthor, y), (x, BOOKS.publishedIn, Literal("1949", XSD_NS.integer))]),
        cq([y], [(BOOKS.doi2, BOOKS.writtenBy, x), (x, BOOKS.hasName, y)]),  # never stored
    ]


def _books_writes():
    doi2, author = BOOKS.doi2, BOOKS.author2
    return [
        Triple(doi2, RDF_TYPE, BOOKS.Book),
        Triple(doi2, BOOKS.writtenBy, author),
        Triple(author, BOOKS.hasName, Literal("A. Writer")),
        Triple(doi2, BOOKS.publishedIn, Literal("1949")),
        Triple(doi2, BOOKS.publishedIn, Literal("1949", XSD_NS.integer)),
        Triple(doi2, BOOKS.hasTitle, Literal("Ficciones")),
    ]


DATASETS = {
    "lubm": (generate_lubm(universities=1, seed=3), _lubm_reads(), _lubm_writes()),
    "books": (books_dataset()[0], _books_reads(), _books_writes()),
}
STRATEGIES = [Strategy.REF_GCOV, Strategy.REF_SCQ, Strategy.SAT]


class _World:
    """The one write stream, applied to a service, a cached answerer, a
    cache-less answerer and the oracle's graph."""

    def __init__(self, graph):
        self.service = QueryService(graph, tenants=[TENANT], clock=FakeClock(auto_advance=0.001))
        self.cached = QueryAnswerer(graph, cache=QueryCache(128, 512))
        self.plain = QueryAnswerer(graph)
        self.graph = graph.copy()
        self.saturated = None

    def write(self, action, triple):
        changed = getattr(self.plain, action)(triple)
        assert getattr(self.service, action)(triple) == changed
        assert getattr(self.cached, action)(triple) == changed
        if changed:
            getattr(self.graph, "add" if action == "insert" else "discard")(triple)
            self.saturated = None

    def read(self, query, strategy):
        if self.saturated is None:
            self.saturated = saturate(self.graph)
        truth = evaluate_cq(self.saturated, query)
        ticket = self.service.submit(QueryRequest(TENANT, query, strategy))
        self.service.step()
        assert ticket.status == DONE, ticket.error
        assert ticket.answer == truth, (query, strategy, "service", ticket.cache)
        report = self.cached.answer(query, strategy)
        assert report.answer == truth, (query, strategy, "answerer", report.details["cache"])
        assert self.plain.answer(query, strategy).answer == truth


def _replay(name, data):
    """Draw up to three reads to focus on and a stream of writes and
    of reads among them, so most writes land between two reads of one
    cached query."""
    graph, reads, writes = DATASETS[name]
    focus = data.draw(
        st.lists(st.sampled_from(range(len(reads))), min_size=1, max_size=3, unique=True),
        label="focus",
    )
    read = st.tuples(st.just("read"), st.sampled_from(focus), st.sampled_from(STRATEGIES))
    write = st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, len(writes) - 1))
    ops = data.draw(st.lists(st.one_of(read, write), min_size=1, max_size=12), label="ops")
    world = _World(graph)
    for op in ops:
        if op[0] == "read":
            world.read(reads[op[1]], op[2])
        else:
            world.write(op[0], writes[op[1]])


_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(st.data())
def test_lubm_answers_survive_only_writes_they_cannot_see(data):
    _replay("lubm", data)


@_SETTINGS
@given(st.data())
def test_books_answers_survive_only_writes_they_cannot_see(data):
    _replay("books", data)


def _outcome(world, query):
    return world.cached.answer(query).details["cache"]["answer"]


def test_a_write_storing_a_named_constant_retires_its_answer():
    """The query names a course no triple held when it was cached."""
    world = _World(DATASETS["lubm"][0])
    query = course_students(NEVER_COURSE)
    world.read(query, Strategy.REF_GCOV)
    world.write("insert", Triple(URI(LUBM + "DrawnStudent0"), UB.takesCourse, NEVER_COURSE))
    world.read(query, Strategy.REF_GCOV)
    assert world.cached.cache.stats()["retired_lookups"] == 1


def test_a_bound_plan_miss_retires_on_its_own_constant_only():
    """``GraduateCourse1`` defines the shape's plan; ``GraduateCourse0``
    binds it, and its footprint names its own course."""
    world = _World(DATASETS["lubm"][0])
    defining, bound = (course_students(URI(LUBM + "GraduateCourse%d" % n)) for n in (1, 0))
    world.read(defining, Strategy.REF_GCOV)
    assert world.cached.compile(bound).relational is None  # bound, not compiled anew
    world.read(bound, Strategy.REF_GCOV)
    student = URI(LUBM + "DrawnStudent0")
    world.write("insert", Triple(student, UB.takesCourse, URI(LUBM + "GraduateCourse1")))
    assert _outcome(world, bound) == "hit"
    world.write("insert", Triple(student, UB.takesCourse, URI(LUBM + "GraduateCourse0")))
    world.read(bound, Strategy.REF_GCOV)
    assert world.cached.cache.stats()["retired_lookups"] == 1


def test_an_open_property_reads_every_property():
    world = _World(DATASETS["lubm"][0])
    query = cq([x, p], [(x, p, URI(LUBM + "GraduateCourse1"))])
    world.read(query, Strategy.REF_GCOV)
    world.write("insert", Triple(URI(LUBM + "DrawnStudent0"), UB.teachingAssistantOf, URI(LUBM + "GraduateCourse1")))
    world.read(query, Strategy.REF_GCOV)
    assert world.cached.cache.stats()["retired_lookups"] == 1


def test_a_literal_matches_its_own_datatype_only():
    world = _World(DATASETS["lubm"][0])
    query = course_students(COURSE_STRING)
    world.read(query, Strategy.REF_GCOV)
    student = URI(LUBM + "DrawnStudent0")
    world.write("insert", Triple(student, UB.takesCourse, COURSE_TEXT))
    assert _outcome(world, query) == "hit"
    world.write("insert", Triple(student, UB.takesCourse, COURSE_STRING))
    world.read(query, Strategy.REF_GCOV)
    assert world.cached.cache.stats()["retired_lookups"] == 1


def test_a_sat_answer_retires_on_a_write_that_only_entails_what_it_reads():
    """Sat evaluates over ``G∞``: a ``takesCourse`` triple types its
    subject a ``Student`` (the property's domain)."""
    world = _World(DATASETS["lubm"][0])
    query = lubm_queries()["Q6"]  # ?x type Student
    world.read(query, Strategy.SAT)
    world.write("insert", Triple(URI(LUBM + "DrawnStudent0"), UB.takesCourse, URI(LUBM + "GraduateCourse0")))
    world.read(query, Strategy.SAT)


def test_a_write_elsewhere_keeps_every_ref_answer():
    graph, reads, _ = DATASETS["lubm"]
    world = _World(graph)
    for query in reads:
        world.read(query, Strategy.REF_GCOV)
    # No query above reads publications' titles.
    world.write("insert", Triple(URI(LUBM + "Publication0"), UB.title, Literal("Footprints")))
    for query in reads:
        assert _outcome(world, query) == "hit"
    assert world.cached.cache.stats()["retired_lookups"] == 0
