"""The columnar index layer: the sorted runs are the triple table and
stay exact under any mutation history.

The headline property (hypothesis): after ANY interleaving of inserts,
deletes, duplicate inserts, absent deletes, bulk loads (into empty and
non-empty stores), checkpoint restores, WAL replays and snapshot pins
followed by a write, each of the SPO/POS/OSP sorted integer runs
equals a set of triples the test keeps itself, sorted under its
permutation, and every ``match`` probe equals a brute-force filter of
that model.  A pinned snapshot's frozen copy equals the model as it
was before the write.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar.indexes import ORDER_PERMUTATIONS, SortedRunIndex
from repro.durability.ops import (
    OP_DELETE,
    OP_INSERT,
    apply_op,
    decode_op,
    encode_op,
)
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.schema import Constraint, Schema
from repro.storage import SnapshotManager, TripleStore

EX = Namespace("http://example.org/")

SUBJECTS = [EX.term("s%d" % index) for index in range(5)]
PROPERTIES = [EX.term("p%d" % index) for index in range(3)] + [RDF_TYPE]
OBJECTS = SUBJECTS + [EX.term("C%d" % index) for index in range(3)] + [
    Literal("l0"),
    Literal("l1"),
]

triple_st = st.builds(
    Triple,
    st.sampled_from(SUBJECTS),
    st.sampled_from(PROPERTIES),
    st.sampled_from(OBJECTS),
)

#: Steps of the write-history property; the second element picks the
#: triple (or bulk payload) the step uses.
operation_st = st.one_of(
    st.tuples(st.just("insert"), triple_st),
    st.tuples(st.just("delete"), triple_st),
    st.tuples(st.just("insert-duplicate"), st.integers(0, 50)),
    st.tuples(st.just("delete-absent"), triple_st),
    st.tuples(st.just("load"), st.lists(triple_st, max_size=8)),
    st.tuples(st.just("load-non-empty"), st.lists(triple_st, min_size=1, max_size=8)),
    st.tuples(st.just("from-encoded"), st.none()),
    st.tuples(st.just("wal-replay"), st.none()),
    st.tuples(st.just("pin-write"), st.tuples(triple_st, st.booleans())),
)

GHOST = EX.term("ghost")


def encode_model(store: TripleStore, model) -> set:
    """The model's triples as the store's ids."""
    return {tuple(store.term_id(term) for term in t.as_tuple()) for t in model}


def assert_runs_exact(store: TripleStore, model) -> None:
    """Every order's run is exactly the model, sorted its way, and
    probing agrees with a brute-force filter of it."""
    triples = encode_model(store, model)
    assert len(store) == store.statistics.total_triples == len(triples)
    indexes = store.columnar()
    for name, permutation in ORDER_PERMUTATIONS.items():
        run = indexes.order(name)
        expected = sorted(tuple(t[p] for p in permutation) for t in triples)
        assert list(zip(*run.columns)) == expected, name
    assert list(store) == sorted(triples)
    # Probes: every (s, p, o) binding subset over one present and one
    # absent triple agrees with a brute-force filter of the model.
    samples = sorted(triples)[:1] + [(-1, -2, -3)]
    for s, p, o in samples:
        assert store.contains((s, p, o)) == ((s, p, o) in triples)
        for mask in range(8):
            bound = (
                s if mask & 4 else None,
                p if mask & 2 else None,
                o if mask & 1 else None,
            )
            got = list(store.match(*bound))
            brute = [
                t
                for t in triples
                if all(b is None or t[i] == b for i, b in enumerate(bound))
            ]
            assert sorted(got) == sorted(brute), bound
            # And the enumeration itself is duplicate-free.
            assert len(got) == len(set(got))


def assert_built_runs_exact(store: TripleStore) -> None:
    """Every *built* run holds the SPO run's triples, sorted its way
    (probes nothing, so it builds nothing)."""
    triples = list(store.columnar().order("spo").iter_triples())
    for name, run in store.columnar()._orders.items():
        permutation = ORDER_PERMUTATIONS[name]
        expected = sorted(tuple(t[p] for p in permutation) for t in triples)
        assert list(zip(*run.columns)) == expected, name


def _watched(store: TripleStore, log: list):
    """Log every successful write of *store* as a WAL payload, the way
    a durable store's listener does, and put a snapshot manager on it."""
    store.add_listener(
        lambda triple, operation: log.append(
            encode_op(OP_INSERT if operation == "insert" else OP_DELETE, triple)
        )
    )
    return store, SnapshotManager(store)


def _replay(log: list) -> TripleStore:
    """Recover *log* into a fresh store the way recovery does: each run
    of consecutive ``T+`` records, encoded as read, in one bulk insert."""
    store = TripleStore()
    inserts = []
    for record in log:
        op, triple = decode_op(record)
        if op == OP_INSERT:
            inserts.append(store.encode(triple))
            continue
        store.insert_encoded(inserts)
        inserts = []
        apply_op(store, None, op, triple)
    store.insert_encoded(inserts)
    return store


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=st.lists(operation_st, max_size=25))
def test_indexes_exact_under_interleaved_histories(operations):
    """After every step each run equals the model sorted its way, every
    write reports whether it changed the store, and listeners saw one
    record per triple added or removed."""
    log: list = []
    model: set = set()
    store, manager = _watched(TripleStore(), log)
    for name in ORDER_PERMUTATIONS:
        store.columnar().order(name)
    for kind, payload in operations:
        previous, logged = set(model), len(log)
        if kind == "insert":
            assert store.insert(payload) == (payload not in model)
            model.add(payload)
        elif kind == "delete":
            assert store.delete(payload) == (payload in model)
            model.discard(payload)
        elif kind == "insert-duplicate":
            present = sorted(model, key=Triple.n3)
            if present:
                assert not store.insert(present[payload % len(present)])
        elif kind == "delete-absent":
            assert not store.delete(Triple(GHOST, payload.property, payload.object))
        elif kind in ("load", "load-non-empty"):
            if kind == "load-non-empty" and not model:
                assert store.insert(payload[0])
                model.add(payload[0])
            store.load(Graph(list(payload)))
            model.update(payload)
        elif kind == "from-encoded":  # checkpoint restore into a fresh store
            terms, encoded = store.encoded_state()
            assert encoded == sorted(encoded)  # the documented contract
            store, manager = _watched(
                TripleStore.from_encoded(terms, encoded, store.schema), log
            )
        elif kind == "wal-replay":  # recover the whole log into a fresh store
            replayed = _replay(log)
            assert replayed.to_graph() == store.to_graph()
            store, manager = _watched(replayed, log)
        else:  # pin a snapshot, then write one triple, alone or as a load
            triple, bulk = payload
            with manager.pin() as snapshot:
                if bulk:
                    store.load(Graph([triple]))
                else:
                    store.insert(triple)
                model.add(triple)
                assert set(snapshot.store().to_graph()) == previous
                assert_runs_exact(snapshot.store(), previous)
        assert len(log) - logged == len(model ^ previous), kind
        assert_runs_exact(store, model)


def _state(store: TripleStore):
    """Everything a copy must equal: ids, triples, statistics (summary,
    per-property and per-class counts), schema and the built runs."""
    stats = store.statistics
    return (
        store.encoded_state(),
        stats.summary(),
        {
            prop: (entry.triples, entry.distinct_subjects, entry.distinct_objects)
            for prop, entry in stats.per_property.items()
        },
        dict(stats.class_cardinality),
        store.schema.fingerprint(),
        {name: list(zip(*run.columns)) for name, run in store.columnar()._orders.items()},
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    loaded=st.lists(triple_st, max_size=20),
    deleted=st.lists(triple_st, max_size=5),
    orders=st.sets(st.sampled_from(["pos", "osp"])),
    writes=st.lists(
        st.tuples(st.booleans(), st.booleans(), triple_st), min_size=1, max_size=6
    ),
)
def test_copy_equals_the_store_and_is_independent(loaded, deleted, orders, writes):
    """``TripleStore.copy`` (the snapshot freeze) equals the store —
    ids, runs, statistics, schema — and a write to either side leaves
    the other unchanged."""
    schema = Schema([Constraint.subclass(OBJECTS[5], OBJECTS[6])])
    store = TripleStore.from_graph(Graph(loaded), schema)
    for triple in deleted:
        store.delete(triple)
    for name in orders:
        store.columnar().order(name)
    copy = store.copy()
    assert _state(copy) == _state(store)
    copy.schema.add(Constraint.domain(PROPERTIES[0], OBJECTS[7]))
    assert store.schema == schema  # the schemas are separate too
    for to_copy, insert, triple in writes:
        side, other = (copy, store) if to_copy else (store, copy)
        untouched = _state(other)
        (side.insert if insert else side.delete)(triple)
        assert _state(other) == untouched
    for side in (store, copy):
        assert_runs_exact(side, set(side.to_graph()))


def test_single_writes_patch_runs_in_place():
    store = TripleStore()
    for subject in SUBJECTS[:3]:
        store.insert(Triple(subject, PROPERTIES[0], OBJECTS[0]))
    indexes = store.columnar()
    built = {name: indexes.order(name) for name in ("spo", "pos")}
    store.insert(Triple(SUBJECTS[4], PROPERTIES[1], OBJECTS[2]))
    assert_built_runs_exact(store)
    store.delete(Triple(SUBJECTS[1], PROPERTIES[0], OBJECTS[0]))
    assert_built_runs_exact(store)
    for name, run in built.items():
        assert indexes.order(name) is run  # the same arrays, patched
    # An order never probed is still built on demand, from SPO.
    assert "osp" not in indexes._orders
    indexes.order("osp")
    assert_built_runs_exact(store)


def test_patch_is_a_no_op_on_present_insert_and_absent_delete():
    run = SortedRunIndex("pos", [(1, 2, 3), (4, 2, 5)])
    assert run.patch((1, 2, 3), insert=True) is False
    assert run.patch((9, 9, 9), insert=False) is False
    assert list(run.iter_triples()) == [(1, 2, 3), (4, 2, 5)]
    assert run.patch((0, 2, 4), insert=True) is True
    assert list(zip(*run.columns)) == [(2, 3, 1), (2, 4, 0), (2, 5, 4)]
    assert run.patch((1, 2, 3), insert=False) is True
    assert list(zip(*run.columns)) == [(2, 4, 0), (2, 5, 4)]


@pytest.mark.parametrize("name", sorted(ORDER_PERMUTATIONS))
@pytest.mark.parametrize("batch", [1, 3, 40, 400])
def test_merge_keeps_runs_exact(name, batch):
    """A batch much smaller than the run is spliced in; a larger one is
    sorted in with it.  Both leave the run equal to a fresh sort."""
    rng = random.Random(batch)
    universe = [(s, p, o) for s in range(12) for p in range(4) for o in range(12)]
    rng.shuffle(universe)
    base, extra = universe[:100], universe[100:100 + batch]
    run = SortedRunIndex(name, base)
    run.merge(sorted(extra))
    expected = sorted(map(itemgetter(*ORDER_PERMUTATIONS[name]), base + extra))
    assert list(zip(*run.columns)) == expected


def test_from_encoded_sorts_and_dedups_untrusted_input():
    """A checkpoint is input from outside the program: a shuffled
    triple list with a duplicate still gives exact runs and counts."""
    source = TripleStore()
    for subject in SUBJECTS:
        for obj in OBJECTS[:4]:
            source.insert(Triple(subject, PROPERTIES[0], obj))
    terms, encoded = source.encoded_state()
    shuffled = encoded + [encoded[3]]
    random.Random(7).shuffle(shuffled)
    restored = TripleStore.from_encoded(terms, shuffled)
    assert restored.triple_count == len(encoded) == 20
    assert restored.statistics.total_triples == 20
    assert restored.encoded_state() == (terms, encoded)
    assert_runs_exact(restored, set(source.to_graph()))


def test_reads_do_not_rebuild():
    store = TripleStore()
    for subject in SUBJECTS:
        store.insert(Triple(subject, PROPERTIES[0], OBJECTS[0]))
    indexes = store.columnar()
    runs = {name: indexes.order(name) for name in ("spo", "pos")}
    for _ in range(3):
        list(store.match(property_id=store.term_id(PROPERTIES[0])))
        list(store)
    for name, run in runs.items():
        assert indexes.order(name) is run  # one build per probed order, ever


def test_range_prefix_narrowing():
    run = SortedRunIndex(
        "spo", [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    )
    assert run.range() == (0, 4)
    assert run.range(1) == (0, 3)
    assert run.range(1, 1) == (0, 2)
    assert run.range(1, 1, 2) == (1, 2)
    assert run.range(3) == (4, 4)
    assert run.range(1, 9) == (3, 3)


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        SortedRunIndex("pso", [])


def test_store_iteration_is_sorted_and_deterministic():
    store = TripleStore()
    for subject in reversed(SUBJECTS):
        for obj in OBJECTS[:3]:
            store.insert(Triple(subject, PROPERTIES[1], obj))
    first = list(store)
    assert first == sorted(first)
    assert list(store.scan_all()) == first
    assert store.encoded_state()[1] == first
