"""Property-based tests (hypothesis): the library's core invariants on
randomly generated graphs, schemas and queries in the DB fragment.

The headline property is the paper's correctness contract,

    q(G∞) = UCQ_ref(db) = SCQ_ref(db) = JUCQ_ref(db, any cover)
          = Dat(q, G)    = relational executor on any backend,

plus the algebraic laws of saturation (idempotence, monotonicity,
naive/fast agreement) and incremental-maintenance exactness.
"""

from __future__ import annotations

import random as random_module

import pytest

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.datalog import answer_query as datalog_answer
from repro.query import (
    ConjunctiveQuery,
    Cover,
    TriplePattern,
    Variable,
    evaluate,
    evaluate_cq,
)
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.reformulation import reformulate, scq_reformulation, jucq_for_cover
from repro.reformulation.atoms import database_graph
from repro.saturation import IncrementalSaturator, saturate, saturate_naive
from repro.schema import Constraint, Schema
from repro.storage import DEFAULT_BACKENDS, Executor, QueryTooLargeError, TripleStore
from repro.storage.planner import query_atom_total

EX = Namespace("http://example.org/")

CLASSES = [EX.term("C%d" % index) for index in range(5)]
PROPERTIES = [EX.term("p%d" % index) for index in range(4)]
INDIVIDUALS = [EX.term("i%d" % index) for index in range(6)]
LITERALS = [Literal("l%d" % index) for index in range(2)]


# ---------------------------------------------------------------------------
# Strategies

constraint_st = st.one_of(
    st.builds(
        Constraint.subclass,
        st.sampled_from(CLASSES),
        st.sampled_from(CLASSES),
    ),
    st.builds(
        Constraint.subproperty,
        st.sampled_from(PROPERTIES),
        st.sampled_from(PROPERTIES),
    ),
    st.builds(
        Constraint.domain,
        st.sampled_from(PROPERTIES),
        st.sampled_from(CLASSES),
    ),
    st.builds(
        Constraint.range,
        st.sampled_from(PROPERTIES),
        st.sampled_from(CLASSES),
    ),
)

#: ``constraint_st`` plus ``p rdfs:subPropertyOf rdf:type``: admissible
#: (triples of p entail type triples, whatever their object), so the
#: incremental saturator must chase the superclasses of their objects
#: and reformulation must type a subject with a non-class object.
schema_st = st.lists(
    st.one_of(
        constraint_st,
        st.builds(
            Constraint.subproperty, st.sampled_from(PROPERTIES), st.just(RDF_TYPE)
        ),
    ),
    max_size=8,
).map(Schema)

data_triple_st = st.one_of(
    st.builds(
        Triple,
        st.sampled_from(INDIVIDUALS),
        st.just(RDF_TYPE),
        st.sampled_from(CLASSES),
    ),
    st.builds(
        Triple,
        st.sampled_from(INDIVIDUALS),
        st.sampled_from(PROPERTIES),
        st.sampled_from(INDIVIDUALS + LITERALS),
    ),
)

graph_st = st.lists(data_triple_st, max_size=12).map(Graph)

#: Data triples whose property objects may also be classes, so a
#: ``p rdfs:subPropertyOf rdf:type`` constraint types a subject with a
#: class that has superclasses.
class_object_triple_st = st.one_of(
    data_triple_st,
    st.builds(
        Triple,
        st.sampled_from(INDIVIDUALS),
        st.sampled_from(PROPERTIES),
        st.sampled_from(CLASSES),
    ),
)

saturation_graph_st = st.lists(class_object_triple_st, max_size=12).map(Graph)

_VARS = [Variable(name) for name in "abcd"]


@st.composite
def query_st(draw):
    """A 1–3 atom CQ over the fixed vocabulary, possibly with variables
    in class/property position, head = all its variables."""
    atom_count = draw(st.integers(1, 3))
    atoms = []
    for _ in range(atom_count):
        subject = draw(st.sampled_from(_VARS + INDIVIDUALS[:2]))
        form = draw(st.integers(0, 3))
        if form == 0:
            atoms.append(
                TriplePattern(
                    subject, RDF_TYPE, draw(st.sampled_from(CLASSES))
                )
            )
        elif form == 1:
            atoms.append(
                TriplePattern(subject, RDF_TYPE, draw(st.sampled_from(_VARS)))
            )
        elif form == 2:
            atoms.append(
                TriplePattern(
                    subject,
                    draw(st.sampled_from(PROPERTIES)),
                    draw(st.sampled_from(_VARS + INDIVIDUALS[:2] + LITERALS[:1])),
                )
            )
        else:
            atoms.append(
                TriplePattern(
                    subject,
                    draw(st.sampled_from(_VARS)),
                    draw(st.sampled_from(_VARS + INDIVIDUALS[:2])),
                )
            )
    variables = sorted(
        {v for atom in atoms for v in atom.variables()},
        key=lambda v: v.name,
    )
    if not variables:
        # Keep at least a boolean query meaningful.
        return ConjunctiveQuery([], atoms)
    return ConjunctiveQuery(variables, atoms)


@st.composite
def cover_st(draw, query):
    atom_count = len(query.atoms)
    assignment = [draw(st.integers(0, 2)) for _ in range(atom_count)]
    fragments = {}
    for index, block in enumerate(assignment):
        fragments.setdefault(block, []).append(index)
    specs = list(fragments.values())
    if draw(st.booleans()):
        specs.append([draw(st.integers(0, atom_count - 1))])
    return Cover(query, specs)


common_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Saturation laws


@common_settings
@given(graph=graph_st, schema=schema_st)
def test_fast_saturation_equals_naive(graph, schema):
    combined = graph.copy()
    combined.add_all(schema.to_triples())
    assert set(saturate(combined)) == set(saturate_naive(combined))


@common_settings
@given(graph=graph_st, schema=schema_st)
def test_saturation_idempotent(graph, schema):
    once = saturate(graph, schema)
    assert set(saturate(once)) == set(once)


@common_settings
@given(graph=graph_st, schema=schema_st, extra=data_triple_st)
def test_saturation_monotone(graph, schema, extra):
    bigger = graph.copy()
    bigger.add(extra)
    assert set(saturate(graph, schema)) <= set(saturate(bigger, schema))


@common_settings
@given(graph=saturation_graph_st, schema=schema_st)
def test_incremental_insert_matches_batch(graph, schema):
    incremental = IncrementalSaturator(schema)
    for triple in graph.data_triples():
        incremental.insert(triple)
    expected = saturate(Graph(graph.data_triples()), schema)
    assert set(incremental.saturated()) == set(expected)


@common_settings
@given(
    graph=saturation_graph_st,
    schema=schema_st,
    seed=st.integers(0, 1000),
)
def test_incremental_delete_matches_batch(graph, schema, seed):
    triples = list(graph.data_triples())
    incremental = IncrementalSaturator(schema, triples)
    rng = random_module.Random(seed)
    rng.shuffle(triples)
    removed = triples[: len(triples) // 2]
    for triple in removed:
        incremental.delete(triple)
    remaining = [t for t in triples if t not in removed]
    expected = saturate(Graph(remaining), schema)
    assert set(incremental.saturated()) == set(expected)


@common_settings
@given(
    graph=saturation_graph_st,
    schema=schema_st,
    writes=st.lists(st.tuples(st.booleans(), class_object_triple_st), max_size=8),
    seed=st.integers(0, 1000),
)
@example(  # the chase: (i0 p0 C0) with p0 ⊑ rdf:type and C0 ⊑ C1
    graph=Graph([Triple(INDIVIDUALS[0], PROPERTIES[0], CLASSES[0])]),
    schema=Schema(
        [
            Constraint.subproperty(PROPERTIES[0], RDF_TYPE),
            Constraint.subclass(CLASSES[0], CLASSES[1]),
        ]
    ),
    writes=[(True, Triple(INDIVIDUALS[1], PROPERTIES[0], CLASSES[0]))],
    seed=0,
)
def test_answerer_saturated_store_matches_batch_under_writes(
    graph, schema, writes, seed
):
    """The answerer's Sat store, once built, equals ``saturate(G)``
    after every write: random inserts and deletes, then an explicit
    insert of a triple already derived, the deletion of some of the
    triples that derive it, and its own deletion."""
    from repro import QueryAnswerer

    answerer = QueryAnswerer(graph, schema)
    answerer.saturated_store()
    live = Graph(graph.data_triples())

    def check():
        assert set(answerer.saturated_store().triples()) == set(
            saturate(live, schema)
        )

    check()
    for insert, triple in writes:
        if insert:
            answerer.insert(triple)
            live.add(triple)
        else:
            answerer.delete(triple)
            live.discard(triple)
        check()
    derived = sorted(
        triple
        for triple in saturate(live, schema).data_triples()
        if triple not in live
    )
    if not derived:
        return
    rng = random_module.Random(seed)
    triple = rng.choice(derived)
    assert answerer.insert(triple)
    live.add(triple)
    check()
    others = sorted(t for t in live if t != triple)
    for support in rng.sample(others, rng.randint(0, len(others))):
        answerer.delete(support)
        live.discard(support)
        check()
    assert answerer.delete(triple)
    live.discard(triple)
    check()


# ---------------------------------------------------------------------------
# The correctness contract


@common_settings
@given(graph=graph_st, schema=schema_st, query=query_st())
def test_ucq_reformulation_equals_saturation(graph, schema, query):
    saturated = saturate(graph, schema)
    expected = evaluate_cq(saturated, query)
    db = database_graph(graph, schema)
    union = reformulate(query, schema)
    assert evaluate(db, union) == expected


@common_settings
@given(graph=graph_st, schema=schema_st, query=query_st())
def test_scq_reformulation_equals_saturation(graph, schema, query):
    saturated = saturate(graph, schema)
    expected = evaluate_cq(saturated, query)
    db = database_graph(graph, schema)
    assert evaluate(db, scq_reformulation(query, schema)) == expected


@common_settings
@given(graph=graph_st, schema=schema_st, data=st.data())
def test_arbitrary_cover_equals_saturation(graph, schema, data):
    query = data.draw(query_st())
    cover = data.draw(cover_st(query))
    saturated = saturate(graph, schema)
    expected = evaluate_cq(saturated, query)
    db = database_graph(graph, schema)
    assert evaluate(db, jucq_for_cover(cover, schema)) == expected


@common_settings
@given(graph=graph_st, schema=schema_st, query=query_st())
def test_datalog_equals_saturation(graph, schema, query):
    saturated = saturate(graph, schema)
    expected = evaluate_cq(saturated, query)
    assert datalog_answer(graph, schema, query) == expected


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graph_st, schema=schema_st, query=query_st())
# Three type atoms under two ``p ⊑ rdf:type`` chains: a 27,783-atom
# UCQ, past the ``loopdb`` profile's 20,000-atom parse limit.
@example(
    graph=Graph(
        [Triple(INDIVIDUALS[i], RDF_TYPE, CLASSES[c])
         for i, c in ((0, 0), (2, 2), (4, 4), (1, 3), (3, 4), (4, 3))]
        + [Triple(EX.i1, EX.p3, EX.i4), Triple(EX.i1, EX.p3, LITERALS[0]),
           Triple(EX.i4, EX.p2, EX.i1)]
    ),
    schema=Schema([
        Constraint.subproperty(EX.p2, EX.p0),
        Constraint.domain(EX.p2, EX.C4),
        Constraint.subproperty(EX.p0, RDF_TYPE),
        Constraint.subproperty(EX.p3, RDF_TYPE),
        Constraint.range(EX.p3, EX.C1),
        Constraint.subclass(EX.C4, EX.C1),
        Constraint.range(EX.p3, EX.C0),
    ]),
    query=ConjunctiveQuery(
        [Variable("a"), Variable("b"), Variable("c"), Variable("d")],
        [TriplePattern(Variable("d"), RDF_TYPE, Variable("a")),
         TriplePattern(EX.i1, RDF_TYPE, Variable("b")),
         TriplePattern(EX.i0, RDF_TYPE, Variable("c"))],
    ),
)
def test_executor_matches_reference_on_all_backends(graph, schema, query):
    """Every backend answers like the reference evaluator, or, when the
    UCQ is past its parse limit, refuses it with the documented
    ``QueryTooLargeError`` before planning."""
    db = database_graph(graph, schema)
    store = TripleStore.from_graph(graph, schema)
    union = reformulate(query, schema)
    size = query_atom_total(union)
    expected = None
    for backend in DEFAULT_BACKENDS:
        executor = Executor(store, backend)
        if backend.max_query_atoms < size:
            with pytest.raises(QueryTooLargeError):
                executor.run(union)
            continue
        if expected is None:
            expected = evaluate(db, union)
        assert executor.run(union).answer() == expected


# ---------------------------------------------------------------------------
# Reformulation size accounting


@common_settings
@given(schema=schema_st, query=query_st())
def test_ucq_size_matches_materialization(schema, query):
    from repro.reformulation import ucq_size

    assert ucq_size(query, schema) == len(reformulate(query, schema))


# ---------------------------------------------------------------------------
# Incomplete strategies are sound (never invent answers)


@common_settings
@given(graph=graph_st, schema=schema_st, query=query_st())
def test_incomplete_policies_are_sound(graph, schema, query):
    from repro.reformulation import ALLEGROGRAPH_STYLE, VIRTUOSO_STYLE

    db = database_graph(graph, schema)
    complete = evaluate(db, reformulate(query, schema))
    for policy in (VIRTUOSO_STYLE, ALLEGROGRAPH_STYLE):
        partial = evaluate(db, reformulate(query, schema, policy))
        assert partial <= complete


# ---------------------------------------------------------------------------
# Schema minimisation: dropping entailed atoms changes no answer


@st.composite
def implied_query_st(draw):
    """``(schema, query)``: a random CQ plus one atom an existing atom
    entails by construction — the atom's superclass or superproperty,
    or its property's domain or range (the range over whatever the
    object is, a literal included) — with the constraint that makes it
    so added to a random schema."""
    constraints = draw(st.lists(constraint_st, max_size=6))
    query = draw(query_st())
    anchors = [
        atom
        for atom in query.atoms
        if not isinstance(atom.property, Variable)
        and not (atom.property == RDF_TYPE and isinstance(atom.object, Variable))
    ]
    atoms = list(query.atoms)
    if anchors:
        anchor = draw(st.sampled_from(anchors))
    else:
        anchor = TriplePattern(
            draw(st.sampled_from(_VARS)),
            draw(st.sampled_from(PROPERTIES)),
            draw(st.sampled_from(_VARS + INDIVIDUALS[:2] + LITERALS[:1])),
        )
        atoms.append(anchor)
    subject, prop, obj = anchor.as_tuple()
    if prop == RDF_TYPE:
        parent = draw(st.sampled_from([c for c in CLASSES if c != obj]))
        constraints.append(Constraint.subclass(obj, parent))
        implied = TriplePattern(subject, RDF_TYPE, parent)
    else:
        kind = draw(st.sampled_from(["superproperty", "domain", "range"]))
        if kind == "superproperty":
            parent = draw(st.sampled_from([p for p in PROPERTIES if p != prop]))
            constraints.append(Constraint.subproperty(prop, parent))
            implied = TriplePattern(subject, parent, obj)
        else:
            klass = draw(st.sampled_from(CLASSES))
            if kind == "domain":
                constraints.append(Constraint.domain(prop, klass))
                implied = TriplePattern(subject, RDF_TYPE, klass)
            else:
                constraints.append(Constraint.range(prop, klass))
                implied = TriplePattern(obj, RDF_TYPE, klass)
    atoms.insert(draw(st.integers(0, len(atoms))), implied)
    variables = sorted(
        {v for atom in atoms for v in atom.variables()}, key=lambda v: v.name
    )
    return Schema(constraints), ConjunctiveQuery(variables, atoms)


@common_settings
@given(graph=graph_st, case=implied_query_st())
def test_schema_minimisation_preserves_answers(graph, case):
    from repro import QueryAnswerer, Strategy
    from repro.reformulation import (
        ALLEGROGRAPH_STYLE,
        VIRTUOSO_STYLE,
        minimize_under_schema,
    )

    schema, query = case
    minimised, dropped = minimize_under_schema(query, schema)
    event("dropped %s atom(s)" % ("no" if not dropped else "some"))
    saturated = saturate(graph, schema)
    expected = evaluate_cq(saturated, query)
    assert evaluate_cq(saturated, minimised) == expected
    answerer = QueryAnswerer(graph, schema)
    for strategy in (
        Strategy.REF_GCOV, Strategy.REF_UCQ, Strategy.REF_SCQ, Strategy.SAT,
        Strategy.DATALOG,
    ):
        report = answerer.answer(query, strategy)
        assert report.details["minimised"] == dropped, strategy
        assert report.answer == expected, strategy
    # The incomplete strategies minimise under their own policy and
    # still answer exactly what their unminimised reformulation does.
    db = database_graph(graph, schema)
    for strategy, policy in (
        (Strategy.REF_VIRTUOSO, VIRTUOSO_STYLE),
        (Strategy.REF_ALLEGRO, ALLEGROGRAPH_STYLE),
    ):
        assert answerer.answer(query, strategy).answer == evaluate(
            db, reformulate(query, schema, policy)
        ), strategy


# ---------------------------------------------------------------------------
# Federation equals centralized answering


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=graph_st,
    schema=schema_st,
    query=query_st(),
    parts=st.integers(1, 3),
)
# The endpoint's dictionary lacks C1, so the reformulated union projects
# it as a ready term next to a disjunct carrying class ids there.
@example(
    graph=Graph([Triple(INDIVIDUALS[0], RDF_TYPE, CLASSES[0])]),
    schema=Schema([Constraint.subclass(CLASSES[0], CLASSES[1])]),
    query=ConjunctiveQuery(
        [_VARS[0], _VARS[1]], [TriplePattern(_VARS[0], RDF_TYPE, _VARS[1])]
    ),
    parts=1,
)
def test_federation_matches_centralized(graph, schema, query, parts):
    from repro.federation import Endpoint, FederatedAnswerer

    # The federated client handles data-level queries; patterns with an
    # unbound property can match endpoint-local schema triples the
    # client would answer from its own (possibly richer) closure, so
    # restrict the property positions this test exercises.
    for atom in query.atoms:
        prop = atom.property
        from repro.query import Variable as V

        if isinstance(prop, V):
            return
    shards = [Graph() for _ in range(parts)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % parts].add(triple)
    endpoints = [
        Endpoint("s%d" % index, shard) for index, shard in enumerate(shards)
    ]
    merged_schema = Schema.from_graph(graph)
    for constraint in schema.direct_constraints():
        merged_schema.add(constraint)
    federation = FederatedAnswerer(endpoints, merged_schema)

    full = Graph(graph.data_triples())
    expected = evaluate_cq(saturate(full, merged_schema), query)
    assert federation.answer(query).rows == expected
