"""The GCov shape entry's bound plan: plan once per query shape.

The first query of a shape that may define it plans the chosen cover's
JUCQ with a slot for each instance constant; a later query of the shape
binds its own constants to the slots and executes, building no JUCQ and
planning nothing.  Covered here:

* the counts: a known-shape miss calls neither ``jucq_for_cover`` nor
  ``Planner.plan``, and a service replay plans once per shape;
* when a query compiles as before: a literal in a URI's slot (or the
  reverse), a schema class, repeated or unstored constants in the
  defining query, a constant the plan found absent, the SQLite engine;
* a never-stored constant in a later query binds to an empty scan;
* runs leave the shared plan unchanged, and the benchmark's
  ``execute_plan`` shim still writes ``actual_rows`` on its own plan.
"""

import pytest

from repro.cache import QueryCache
from repro.core import QueryAnswerer
from repro.core import answerer as answerer_module
from repro.datasets.lubm import UB
from repro.query import ConjunctiveQuery, TriplePattern, Variable
from repro.rdf import Literal, RDF_TYPE, Triple, URI
from repro.resilience.clock import FakeClock
from repro.service import DONE, QueryRequest, QueryService
from repro.storage import Planner, execute_plan

LUBM = "http://www.Department0.University0.edu/"
x, y = Variable("x"), Variable("y")


def cq(head, atoms):
    return ConjunctiveQuery(head, [TriplePattern(*atom) for atom in atoms])


def students_of(course):
    return cq([x], [(x, RDF_TYPE, UB.Student), (x, UB.takesCourse, course)])


def course(name):
    return URI(LUBM + name)


@pytest.fixture
def counts(monkeypatch):
    """How often the answerer builds a JUCQ and plans one."""
    calls = {"jucq": 0, "plan": 0}
    real_jucq, real_plan = answerer_module.jucq_for_cover, Planner.plan

    def jucq(*args, **kwargs):
        calls["jucq"] += 1
        return real_jucq(*args, **kwargs)

    def plan(self, query):
        calls["plan"] += 1
        return real_plan(self, query)

    monkeypatch.setattr(answerer_module, "jucq_for_cover", jucq)
    monkeypatch.setattr(Planner, "plan", plan)
    return calls


@pytest.fixture(scope="module")
def plain(lubm_small):
    return QueryAnswerer(lubm_small)


def cached(graph, **kwargs):
    return QueryAnswerer(graph, cache=QueryCache(), **kwargs)


class TestCounts:
    def test_a_known_shape_miss_builds_no_jucq_and_plans_nothing(
        self, lubm_small, plain, counts
    ):
        answerer = cached(lubm_small)
        first = answerer.answer(students_of(course("GraduateCourse0")))
        assert counts == {"jucq": 1, "plan": 1}
        for name in ("GraduateCourse1", "Course3", "GraduateCourse0"):
            query = students_of(course(name))
            compiled = answerer.compile(query)
            assert compiled.reformulation_hit is True
            assert compiled.relational is None and compiled.plan is not None
            assert answerer.execute(compiled).answer == plain.answer(query).answer
        assert counts["jucq"] == 1 + 3 and counts["plan"] == 1 + 3  # plain's
        assert first.answer == plain.answer(students_of(course("GraduateCourse0"))).answer

    def test_a_service_plans_once_per_shape(self, lubm_small, counts):
        """Three shapes, each asked for five constants with writes in
        between (every write retires every cached answer): three JUCQs
        and three plans in all."""
        service = QueryService(
            lubm_small, tenants=["a"], clock=FakeClock(auto_advance=0.001)
        )
        shapes = [
            students_of,
            lambda c: cq([y], [(c, UB.teacherOf, y)]),
            lambda c: cq([x], [(x, UB.advisor, c), (x, UB.takesCourse, course("Course3"))]),
        ]
        names = ["GraduateCourse0", "FullProfessor0", "Course3", "AssociateProfessor1", "X"]
        for index, name in enumerate(names):
            for shape in shapes:
                ticket = service.submit(QueryRequest("a", shape(course(name))))
                service.step()
                assert ticket.status == DONE
            service.insert(Triple(course("New%d" % index), UB.takesCourse, course(name)))
        assert counts == {"jucq": 3, "plan": 3}

    def test_the_plan_is_shared_and_left_as_built(self, lubm_small):
        answerer = cached(lubm_small)
        plans = [answerer.compile(students_of(course(n))).plan for n in ("Course1", "Course2")]
        assert plans[0] is plans[1]
        before = [dict(vars(node)) for node in plans[0].walk()]
        for name in ("Course1", "Course2", "Nowhere"):
            answerer.answer(students_of(course(name)))
        assert [dict(vars(node)) for node in plans[0].walk()] == before


class TestWhenAMissCompilesAsBefore:
    def _served(self, answerer, plain, query):
        compiled = answerer.compile(query)
        assert compiled.reformulation_hit is True
        assert answerer.execute(compiled).answer == plain.answer(query).answer
        return compiled

    @pytest.mark.parametrize("constant", [
        Literal("GraduateCourse1"),  # a literal in a URI's slot
        UB.Course,  # a class of the schema
        UB.takesCourse,  # a property of the schema
    ])
    def test_a_constant_that_may_not_fill_the_slot(self, lubm_small, plain, constant):
        answerer = cached(lubm_small)
        answerer.compile(students_of(course("GraduateCourse0")))
        compiled = self._served(answerer, plain, students_of(constant))
        assert compiled.plan is None and compiled.relational is not None

    def test_a_never_stored_constant_binds_an_empty_scan(self, lubm_small, plain):
        answerer = cached(lubm_small)
        answerer.compile(students_of(course("GraduateCourse0")))
        compiled = self._served(answerer, plain, students_of(course("NeverStored")))
        assert compiled.plan is not None and compiled.binding == (None,)
        assert answerer.execute(compiled).answer == frozenset()

    @pytest.mark.parametrize("defining", [
        # One constant twice: its slots would merge.
        cq([x], [(x, UB.advisor, course("Course3")), (x, UB.takesCourse, course("Course3"))]),
        # Never stored: the planner would bake an empty scan.
        cq([x], [(x, UB.advisor, course("Nowhere")), (x, UB.takesCourse, course("Course3"))]),
    ])
    def test_a_query_that_may_not_define_the_plan(self, lubm_small, plain, defining):
        answerer = cached(lubm_small)
        assert answerer.compile(defining).plan is None
        later = cq([x], [
            (x, UB.advisor, course("FullProfessor0")), (x, UB.takesCourse, course("Course1")),
        ])
        first = self._served(answerer, plain, later)  # defines it
        assert first.plan is not None and first.relational is not None
        again = self._served(answerer, plain, later)
        assert again.plan is first.plan and again.relational is None
        repeated = cq([x], [(x, UB.advisor, course("Course3")), (x, UB.takesCourse, course("Course3"))])
        assert self._served(answerer, plain, repeated).plan is first.plan

    def test_a_constant_the_plan_found_absent(self, lubm_small):
        """A class the data never stored empties its disjunct; a write
        that stores it must be seen, so that plan is not kept."""
        graph = lubm_small.copy()
        answerer = cached(graph)
        query = cq([x], [(x, RDF_TYPE, UB.term("Alumnus")), (x, UB.takesCourse, course("Course3"))])
        assert answerer.answer(query).answer == frozenset()
        student = URI(LUBM + "NewAlumnus")
        answerer.insert(Triple(student, RDF_TYPE, UB.term("Alumnus")))
        answerer.insert(Triple(student, UB.takesCourse, course("Course3")))
        compiled = answerer.compile(query)
        assert compiled.relational is not None  # planned anew
        assert answerer.execute(compiled).answer == {(student,)}

    def test_sqlite_always_compiles(self, lubm_small, plain):
        answerer = cached(lubm_small, engine="sqlite")
        for name in ("GraduateCourse0", "GraduateCourse1"):
            compiled = answerer.compile(students_of(course(name)))
            assert compiled.plan is None and compiled.relational is not None
        assert answerer.execute(compiled).answer == plain.answer(
            students_of(course("GraduateCourse1"))
        ).answer


def test_execute_plan_writes_actual_rows_on_the_callers_plan(lubm_small_store):
    """The benchmark's replay reads ``node.actual_rows`` after
    ``execute_plan``; nothing else does."""
    plan = Planner(lubm_small_store).plan(students_of(course("GraduateCourse0")))
    rows = execute_plan(plan, lubm_small_store)
    assert plan.actual_rows == len(rows)
    assert all(node.actual_rows is not None for node in plan.walk())
