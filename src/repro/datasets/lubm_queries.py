"""The LUBM query workload, plus the paper's Example 1 query.

LUBM ships fourteen benchmark queries; we restate the ones expressible
in the conjunctive SPARQL dialect of the paper (all fourteen are BGPs;
a few relied on OWL-only inference — ``Q12``'s transitive
``subOrganizationOf`` chain, for instance — and are stated here in
their RDFS-answerable form, as the paper's systems would).  Each query
is a plain :class:`~repro.query.algebra.ConjunctiveQuery` over the
:data:`~repro.datasets.lubm.UB` vocabulary, so every strategy in the
library can answer it.

The star of the show is :func:`example1_query` — Section 4's

    q(x, u, y, v, z) :- x rdf:type u, y rdf:type v,
                        x ub:mastersDegreeFrom U,
                        y ub:doctoralDegreeFrom U,
                        x ub:memberOf z, y ub:memberOf z

whose UCQ reformulation explodes (318,096 CQs on the authors' LUBM
schema), whose SCQ drowns in intermediate results, and whose best
cover ``{{t1,t3},{t3,t5},{t2,t4},{t4,t6}}`` runs 430× faster.
:func:`example1_best_cover` builds exactly that cover.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..query.algebra import ConjunctiveQuery, TriplePattern, Variable
from ..query.cover import Cover
from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import URI
from .lubm import UB, university_uri


def _v(name: str) -> Variable:
    return Variable(name)


def example1_query(university: Optional[URI] = None) -> ConjunctiveQuery:
    """The six-atom query of the paper's Example 1.

    *university* defaults to a well-represented member of the
    generator's Zipf-skewed degree pool (the paper used
    ``http://www.Univ532.edu`` on the 100M-triple LUBM; any pool
    university exercises the same joins).
    """
    if university is None:
        university = university_uri(1)
    x, u, y, v, z = _v("x"), _v("u"), _v("y"), _v("v"), _v("z")
    return ConjunctiveQuery(
        [x, u, y, v, z],
        [
            TriplePattern(x, RDF_TYPE, u),                      # t1
            TriplePattern(y, RDF_TYPE, v),                      # t2
            TriplePattern(x, UB.mastersDegreeFrom, university),  # t3
            TriplePattern(y, UB.doctoralDegreeFrom, university), # t4
            TriplePattern(x, UB.memberOf, z),                   # t5
            TriplePattern(y, UB.memberOf, z),                   # t6
        ],
    )


def example1_best_cover(query: Optional[ConjunctiveQuery] = None) -> Cover:
    """The paper's fastest cover: ``{{t1,t3},{t3,t5},{t2,t4},{t4,t6}}``
    (0-based fragments {0,2},{2,4},{1,3},{3,5})."""
    if query is None:
        query = example1_query()
    return Cover(query, [[0, 2], [2, 4], [1, 3], [3, 5]])


def lubm_queries(university: Optional[URI] = None) -> Dict[str, ConjunctiveQuery]:
    """The fourteen LUBM queries (RDFS-answerable form).

    Queries that reference a specific university/department use the
    generator's first university unless *university* is given.
    """
    if university is None:
        university = university_uri(0)
    department = URI("http://www.Department0.University0.edu")
    x, y, z = _v("x"), _v("y"), _v("z")

    queries: Dict[str, ConjunctiveQuery] = {}

    # Q1: graduate students taking a specific graduate course.
    course = URI("http://www.Department0.University0.edu/GraduateCourse0")
    queries["Q1"] = ConjunctiveQuery(
        [x],
        [
            TriplePattern(x, RDF_TYPE, UB.GraduateStudent),
            TriplePattern(x, UB.takesCourse, course),
        ],
    )

    # Q2: graduate students with a degree from the university whose
    # department they are members of.
    queries["Q2"] = ConjunctiveQuery(
        [x, y, z],
        [
            TriplePattern(x, RDF_TYPE, UB.GraduateStudent),
            TriplePattern(y, RDF_TYPE, UB.University),
            TriplePattern(z, RDF_TYPE, UB.Department),
            TriplePattern(x, UB.memberOf, z),
            TriplePattern(z, UB.subOrganizationOf, y),
            TriplePattern(x, UB.undergraduateDegreeFrom, y),
        ],
    )

    # Q3: publications of a known assistant professor.
    author = URI("http://www.Department0.University0.edu/AssistantProfessor0")
    queries["Q3"] = ConjunctiveQuery(
        [x],
        [
            TriplePattern(x, RDF_TYPE, UB.Publication),
            TriplePattern(x, UB.publicationAuthor, author),
        ],
    )

    # Q4: professors working for a department, with contact details.
    w1, w2, w3 = _v("name"), _v("email"), _v("phone")
    queries["Q4"] = ConjunctiveQuery(
        [x, w1, w2, w3],
        [
            TriplePattern(x, RDF_TYPE, UB.Professor),
            TriplePattern(x, UB.worksFor, department),
            TriplePattern(x, UB.name, w1),
            TriplePattern(x, UB.emailAddress, w2),
            TriplePattern(x, UB.researchInterest, w3),
        ],
    )

    # Q5: persons who are members of a department.
    queries["Q5"] = ConjunctiveQuery(
        [x],
        [
            TriplePattern(x, RDF_TYPE, UB.Person),
            TriplePattern(x, UB.memberOf, department),
        ],
    )

    # Q6: all students.
    queries["Q6"] = ConjunctiveQuery(
        [x], [TriplePattern(x, RDF_TYPE, UB.Student)]
    )

    # Q7: students taking a course taught by a known professor.
    professor = URI("http://www.Department0.University0.edu/FullProfessor0")
    queries["Q7"] = ConjunctiveQuery(
        [x, y],
        [
            TriplePattern(x, RDF_TYPE, UB.Student),
            TriplePattern(y, RDF_TYPE, UB.Course),
            TriplePattern(x, UB.takesCourse, y),
            TriplePattern(professor, UB.teacherOf, y),
        ],
    )

    # Q8: students who are members of a department of a university,
    # with their email.
    email = _v("email")
    queries["Q8"] = ConjunctiveQuery(
        [x, y, email],
        [
            TriplePattern(x, RDF_TYPE, UB.Student),
            TriplePattern(y, RDF_TYPE, UB.Department),
            TriplePattern(x, UB.memberOf, y),
            TriplePattern(y, UB.subOrganizationOf, university),
            TriplePattern(x, UB.emailAddress, email),
        ],
    )

    # Q9: the student–faculty–course triangle.
    queries["Q9"] = ConjunctiveQuery(
        [x, y, z],
        [
            TriplePattern(x, RDF_TYPE, UB.Student),
            TriplePattern(y, RDF_TYPE, UB.Faculty),
            TriplePattern(z, RDF_TYPE, UB.Course),
            TriplePattern(x, UB.advisor, y),
            TriplePattern(y, UB.teacherOf, z),
            TriplePattern(x, UB.takesCourse, z),
        ],
    )

    # Q10: students taking a specific graduate course.
    queries["Q10"] = ConjunctiveQuery(
        [x],
        [
            TriplePattern(x, RDF_TYPE, UB.Student),
            TriplePattern(x, UB.takesCourse, course),
        ],
    )

    # Q11: research groups of a university.
    queries["Q11"] = ConjunctiveQuery(
        [x],
        [
            TriplePattern(x, RDF_TYPE, UB.ResearchGroup),
            TriplePattern(x, UB.subOrganizationOf, _v("d")),
            TriplePattern(_v("d"), UB.subOrganizationOf, university),
        ],
    )

    # Q12: department heads (LUBM asks for Chairs; RDFS derives
    # headship from the headOf property).
    queries["Q12"] = ConjunctiveQuery(
        [x, y],
        [
            TriplePattern(x, RDF_TYPE, UB.Professor),
            TriplePattern(y, RDF_TYPE, UB.Department),
            TriplePattern(x, UB.headOf, y),
            TriplePattern(y, UB.subOrganizationOf, university),
        ],
    )

    # Q13: alumni — persons with any degree from the university.
    queries["Q13"] = ConjunctiveQuery(
        [x],
        [
            TriplePattern(x, RDF_TYPE, UB.Person),
            TriplePattern(x, UB.degreeFrom, university),
        ],
    )

    # Q14: all undergraduate students (the no-reasoning baseline).
    queries["Q14"] = ConjunctiveQuery(
        [x], [TriplePattern(x, RDF_TYPE, UB.UndergraduateStudent)]
    )

    return queries
