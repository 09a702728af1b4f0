"""The four workloads: every input is a pure function of the seed.

A workload is a LUBM-style graph plus a list of operations materialised
before anything is timed.  A read carries plain inputs only — the
SPARQL-lite text, the strategy name and (for ``ref-jucq``) the cover as
index tuples; a write carries the triple.  The program under test sees
nothing else of the generator.

Operation counts are frozen per workload (``SPECS``) and scale only
with ``--seconds``: a run never stops on a clock, so two commits
compared at the same ``--seconds`` do identical work.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.datasets.lubm import UB, LubmGenerator, lubm_schema
from repro.datasets.lubm_queries import (
    example1_best_cover,
    example1_query,
    lubm_queries,
)
from repro.query.algebra import ConjunctiveQuery, TriplePattern, Variable
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.schema.schema import Schema

#: The ``--seconds`` the op counts below were calibrated for (a 2-core
#: box, Python 3.11): each timed loop then runs about this long.
NOMINAL_SECONDS = 15

#: Writers in the update streams are new individuals of this namespace.
BENCH_NS = "http://bench.example/"

CoverSpec = Tuple[Tuple[int, ...], ...]


class Op(NamedTuple):
    """One operation: a read (text + strategy [+ cover]) or a write."""

    kind: str
    action: str  # "read" | "insert" | "delete"
    text: Optional[str] = None
    strategy: Optional[str] = None
    cover: Optional[CoverSpec] = None
    triple: Optional[Triple] = None


class Workload(NamedTuple):
    name: str
    door: str  # which front door: "answerer" | "service"
    saturated: bool  # set-up includes saturated_store()
    read_only: bool  # ops are whole passes over the kinds, no writes
    universities: int
    graph: Graph
    schema: Schema
    kinds: Tuple[str, ...]
    warmup: Tuple[Op, ...]  # untimed first pass, each kind once
    ops: Tuple[Op, ...]  # the timed loop
    #: Reads checked against the oracle: for a read-only workload each
    #: kind once (so every timed answer is covered); for a read/write
    #: workload 40 reads answered after the loop, over the final graph.
    samples: Tuple[Tuple[str, Op], ...]


#: scale = universities; count = passes (read-only) or ops (read/write)
#: at NOMINAL_SECONDS.  The smoke_* values are the toy scale of --smoke.
SPECS: Dict[str, Dict] = {
    "gcov_mix_small": {
        "scale": 2, "count": 9, "smoke_scale": 1, "smoke_count": 1,
    },
    "fixed_cover_scan": {
        "scale": 7, "count": 15, "smoke_scale": 1, "smoke_count": 1,
    },
    "service_zipf_rw": {
        "scale": 10, "count": 700, "smoke_scale": 1, "smoke_count": 40,
        "mix": (95, 3, 2), "pool": 1000,
    },
    "sat_update_mix": {
        "scale": 10, "count": 4800, "smoke_scale": 1, "smoke_count": 80,
        # 60/28/12, not the 50/35/15 first proposed: with half the ops
        # sub-millisecond writes the median op sits on the edge between
        # the write and the read mode and flips from run to run.
        "mix": (15, 7, 3), "pool": 200,
    },
}

#: How many reads a read/write workload checks over its final graph.
FINAL_SAMPLES = 40


def scaled(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / NOMINAL_SECONDS))


def sparql_text(query: ConjunctiveQuery) -> str:
    """The SPARQL-lite text ``query.parser.parse_query`` reads back."""

    def show(term) -> str:
        return "?" + term.name if isinstance(term, Variable) else term.n3()

    head = " ".join(show(item) for item in query.head)
    body = " . ".join(
        " ".join(show(term) for term in atom.as_tuple()) for atom in query.atoms
    )
    return "SELECT %s WHERE { %s }" % (head, body)


def _read(kind: str, query: ConjunctiveQuery, strategy: str, cover=None) -> Op:
    spec = None
    if cover is not None:
        spec = tuple(tuple(sorted(fragment)) for fragment in cover.fragments)
    return Op(kind, "read", sparql_text(query), strategy, spec)


# ----------------------------------------------------------------------
# Read-only workloads


def _gcov_mix_kinds(smoke: bool) -> List[Op]:
    queries = lubm_queries()
    reads = [
        _read(name, queries[name], "ref-gcov")
        for name in ("Q%d" % index for index in range(1, 15))
    ]
    if not smoke:
        # Ex1's cover search alone takes ~2 s whatever the data size,
        # so the toy-scale smoke run leaves it out.
        reads.append(_read("Ex1", example1_query(), "ref-gcov"))
    return reads


def _fixed_cover_kinds(smoke: bool) -> List[Op]:
    queries = lubm_queries()
    example1 = example1_query()
    return [
        _read("Ex1.scq", example1, "ref-scq"),
        _read("Ex1.jucq", example1, "ref-jucq", example1_best_cover(example1)),
        _read("Q2.scq", queries["Q2"], "ref-scq"),
        _read("Q9.scq", queries["Q9"], "ref-scq"),
        _read("Q5.ucq", queries["Q5"], "ref-ucq"),
        _read("Q13.ucq", queries["Q13"], "ref-ucq"),
        _read("Q6.ucq", queries["Q6"], "ref-ucq"),
    ]


def _read_only(name, kinds_of, graph, schema, scale, passes, smoke) -> Workload:
    reads = kinds_of(smoke)
    return Workload(
        name=name,
        door="answerer",
        saturated=False,
        read_only=True,
        universities=scale,
        graph=graph,
        schema=schema,
        kinds=tuple(op.kind for op in reads),
        warmup=tuple(reads),
        ops=tuple(reads) * passes,
        samples=tuple((op.kind, op) for op in reads),
    )


# ----------------------------------------------------------------------
# Read/write workloads


def _subjects(graph: Graph, klass: URI) -> List[URI]:
    return sorted(
        triple.subject for triple in graph.match(property=RDF_TYPE, object=klass)
    )


def _query(head: Sequence[str], atoms: Sequence[Tuple]) -> ConjunctiveQuery:
    def term(item):
        return Variable(item) if isinstance(item, str) else item

    return ConjunctiveQuery(
        [Variable(name) for name in head],
        [TriplePattern(*(term(item) for item in atom)) for atom in atoms],
    )


def _dept_members(klass: URI, department: URI) -> ConjunctiveQuery:
    return _query(
        ["x"], [("x", RDF_TYPE, klass), ("x", UB.memberOf, department)]
    )


def _course_students(course: URI) -> ConjunctiveQuery:
    return _query(
        ["x"], [("x", RDF_TYPE, UB.Student), ("x", UB.takesCourse, course)]
    )


def _advisees(professor: URI) -> ConjunctiveQuery:
    return _query(
        ["x", "d"],
        [
            ("x", RDF_TYPE, UB.Student),
            ("x", UB.advisor, professor),
            ("x", UB.memberOf, "d"),
        ],
    )


def _teacher_students(teacher: URI) -> ConjunctiveQuery:
    return _query(
        ["x", "c"],
        [
            (teacher, UB.teacherOf, "c"),
            ("x", UB.takesCourse, "c"),
            ("x", RDF_TYPE, UB.Student),
        ],
    )


class _Entities(NamedTuple):
    departments: List[URI]
    courses: List[URI]
    advisors: List[URI]
    teachers: List[URI]


def _entities(graph: Graph) -> _Entities:
    return _Entities(
        departments=_subjects(graph, UB.Department),
        courses=sorted(
            _subjects(graph, UB.Course) + _subjects(graph, UB.GraduateCourse)
        ),
        advisors=sorted({t.object for t in graph.match(property=UB.advisor)}),
        teachers=sorted({t.subject for t in graph.match(property=UB.teacherOf)}),
    )


def _update_stream(
    rng: random.Random, count: int, mix: Tuple[int, int, int], draw_read, new_triple
) -> List[Op]:
    """*count* ops in blocks of exactly *mix* = (reads, inserts,
    deletes), shuffled inside each block: the shares are the same for
    every seed, only the order and the constants change.  A delete
    removes the oldest triple the stream itself inserted and is still
    present, so no write is ever a no-op."""
    block = ["read"] * mix[0] + ["insert"] * mix[1] + ["delete"] * mix[2]
    ops: List[Op] = []
    pending: List[Triple] = []
    inserted = 0
    while len(ops) < count:
        rng.shuffle(block)
        for action in block[: count - len(ops)]:
            if action == "read":
                ops.append(draw_read())
            elif action == "insert" or not pending:
                triple = new_triple(inserted)
                inserted += 1
                pending.append(triple)
                ops.append(Op("insert", "insert", triple=triple))
            else:
                ops.append(Op("delete", "delete", triple=pending.pop(0)))
    return ops


def _rw_warmup(reads: Sequence[Op], new_triple) -> Tuple[Op, ...]:
    """Each kind once: one read per template, then an insert and the
    delete that undoes it (so the timed loop starts from the loaded
    graph)."""
    triple = new_triple(-1)
    return tuple(reads) + (
        Op("insert", "insert", triple=triple),
        Op("delete", "delete", triple=triple),
    )


def _service_zipf_rw(graph, schema, scale, count, spec, rng) -> Workload:
    found = _entities(graph)
    # Seven classes x departments, so every template has as many
    # constants as the others and none sits wholly in the Zipf head.
    classes = [
        UB.Person, UB.Student, UB.Employee, UB.Faculty, UB.Professor,
        UB.GraduateStudent, UB.UndergraduateStudent,
    ]
    templates = {
        "dept_members": (
            _dept_members, list(itertools.product(classes, found.departments))
        ),
        "course_students": (_course_students, [(c,) for c in found.courses]),
        "advisees": (_advisees, [(p,) for p in found.advisors]),
        "teacher_students": (_teacher_students, [(t,) for t in found.teachers]),
    }
    per_template = spec["pool"] // len(templates)
    picked: Dict[str, List[Tuple]] = {}
    for kind, (_, constants) in templates.items():
        constants = list(constants)
        rng.shuffle(constants)
        picked[kind] = constants[:per_template]

    def read(kind: str, constant: Tuple) -> Op:
        return _read(kind, templates[kind][0](*constant), "ref-gcov")

    # Popularity rank interleaves the templates, so every seed's Zipf
    # head holds the same template mix and only the constants change.
    pool = [
        read(kind, constant)
        for group in itertools.zip_longest(*picked.values())
        for kind, constant in zip(picked, group)
        if constant is not None
    ]
    weights = list(
        itertools.accumulate(1.0 / (rank + 1) for rank in range(len(pool)))
    )
    # Writes land on the courses of the most popular course_students
    # reads, so they change answers the loop and the final check see.
    targets = [course for (course,) in picked["course_students"][:25]]

    def new_triple(index: int) -> Triple:
        student = URI("%sstudent/%d" % (BENCH_NS, index))
        return Triple(student, UB.takesCourse, targets[index % len(targets)])

    ops = _update_stream(
        rng,
        count,
        spec["mix"],
        lambda: pool[rng.choices(range(len(pool)), cum_weights=weights)[0]],
        new_triple,
    )
    return Workload(
        name="service_zipf_rw",
        door="service",
        saturated=False,
        read_only=False,
        universities=scale,
        graph=graph,
        schema=schema,
        kinds=tuple(templates) + ("insert", "delete"),
        # The warm-up reads do not depend on the shuffle: the first
        # constant of each template in sorted order.
        warmup=_rw_warmup(
            [read(kind, constants[0]) for kind, (_, constants) in templates.items()],
            new_triple,
        ),
        ops=tuple(ops),
        samples=tuple(
            ("sample-%02d" % index, op)
            for index, op in enumerate(pool[:FINAL_SAMPLES])
        ),
    )


def _sat_update_mix(graph, schema, scale, count, spec, rng) -> Workload:
    found = _entities(graph)
    half = spec["pool"] // 2
    courses = rng.sample(found.courses, min(half, len(found.courses)))
    departments = found.departments[:half]
    reads = [
        _read("course_students", _course_students(course), "sat")
        for course in courses
    ] + [
        _read("dept_members", _dept_members(UB.Person, dept), "sat")
        for dept in departments
    ]

    def new_triple(index: int) -> Triple:
        # Three triples per new person, each firing another rule
        # family; the derived types overlap, so deletes exercise the
        # saturator's support counts and not only plain eviction.
        person = URI("%sperson/%d" % (BENCH_NS, index // 3))
        shape = index % 3
        if shape == 0:  # domain + range
            return Triple(person, UB.takesCourse, courses[index % len(courses)])
        if shape == 1:  # subclass chain
            return Triple(person, RDF_TYPE, UB.GraduateStudent)
        # subproperty + domain
        return Triple(
            person, UB.worksFor, departments[index % len(departments)]
        )

    ops = _update_stream(
        rng,
        count,
        spec["mix"],
        lambda: rng.choice(reads),
        new_triple,
    )
    picked = rng.sample(reads, min(FINAL_SAMPLES, len(reads)))
    return Workload(
        name="sat_update_mix",
        door="answerer",
        saturated=True,
        read_only=False,
        universities=scale,
        graph=graph,
        schema=schema,
        kinds=("course_students", "dept_members", "insert", "delete"),
        warmup=_rw_warmup([reads[0], reads[-1]], new_triple),
        ops=tuple(ops),
        samples=tuple(
            ("sample-%02d" % index, op) for index, op in enumerate(picked)
        ),
    )


# ----------------------------------------------------------------------


def build(name: str, seed: int, seconds: float, smoke: bool = False) -> Workload:
    """The workload *name* for *seed*: same arguments, same inputs."""
    spec = SPECS[name]
    scale = spec["smoke_scale"] if smoke else spec["scale"]
    count = spec["smoke_count"] if smoke else scaled(spec["count"], seconds)
    graph = LubmGenerator(seed=seed).generate(universities=scale)
    schema = lubm_schema()
    if name == "gcov_mix_small":
        return _read_only(name, _gcov_mix_kinds, graph, schema, scale, count, smoke)
    if name == "fixed_cover_scan":
        return _read_only(name, _fixed_cover_kinds, graph, schema, scale, count, smoke)
    # The op stream has its own generator, seeded apart from the graph's.
    rng = random.Random("%s/%d" % (name, seed))
    if name == "service_zipf_rw":
        return _service_zipf_rw(graph, schema, scale, count, spec, rng)
    return _sat_update_mix(graph, schema, scale, count, spec, rng)


def final_graph(workload: Workload) -> Graph:
    """The graph after the warm-up and every timed op were applied —
    computed from the op list alone, never read back from the program."""
    graph = workload.graph.copy()
    for op in workload.warmup + workload.ops:
        if op.action == "insert":
            graph.add(op.triple)
        elif op.action == "delete":
            graph.discard(op.triple)
    return graph
