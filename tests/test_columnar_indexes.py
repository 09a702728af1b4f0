"""The columnar index layer: sorted runs stay exact under any
mutation history.

The headline properties (hypothesis): after ANY interleaving of
inserts, deletes, bulk loads and checkpoint-restore recoveries, each of
the SPO/POS/OSP sorted integer runs equals the set-based triple table
sorted under its permutation, and every ``match`` probe equals a
brute-force filter of the set — including rebuild-after-restore, where
mutations reached the store through ``_insert_encoded`` without ever
touching the Triple-level listeners (the epoch machinery's job).  And a
single write patches the built runs in place: only bulk loads and
restores (checkpoint, ``from_encoded``, WAL replay) ever sort a run.
"""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar.indexes import ORDER_PERMUTATIONS, SortedRunIndex
from repro.durability.ops import OP_DELETE, OP_INSERT, apply_op, decode_op, encode_op
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, Triple
from repro.storage import TripleStore

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
    st.tuples(st.just("from-encoded"), st.none()),
    st.tuples(st.just("wal-replay"), st.none()),
)

#: Steps allowed to sort a run: bulk loads and restores.
REBUILDING_STEPS = frozenset({"load", "from-encoded", "wal-replay"})

GHOST = EX.term("ghost")


def assert_runs_exact(store: TripleStore) -> None:
    """Every order's run is exactly the set store, sorted its way, and
    probing agrees with a brute-force filter."""
    indexes = store.columnar()
    triples = set(store._triples)
    for name, permutation in ORDER_PERMUTATIONS.items():
        run = indexes.order(name)
        expected = sorted(triples, key=itemgetter(*permutation))
        assert len(run) == len(expected)
        assert list(run.iter_triples()) != [] or not expected
        # The run enumerates the permuted sort of the set, exactly.
        permuted = [tuple(t[p] for p in permutation) for t in expected]
        assert list(zip(*run.columns)) == permuted if expected else True
    # Probes: every (s, p, o) binding subset over one present and one
    # absent triple agrees with a brute-force filter of the set.
    samples = sorted(triples)[:1] + [(-1, -2, -3)]
    for s, p, o in samples:
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
    """Every *built* run equals the set store sorted its way (probes
    nothing, so it builds nothing)."""
    triples = store._triples
    for name, run in store.columnar()._orders.items():
        permutation = ORDER_PERMUTATIONS[name]
        expected = sorted(tuple(t[p] for p in permutation) for t in triples)
        assert list(zip(*run.columns)) == expected, name


def _logging(store: TripleStore, log: list) -> TripleStore:
    """Log every successful write of *store* as a WAL payload, the way
    a durable store's listener does."""
    store.add_listener(
        lambda triple, operation: log.append(
            encode_op(OP_INSERT if operation == "insert" else OP_DELETE, triple)
        )
    )
    return store


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=st.lists(operation_st, max_size=25))
def test_indexes_exact_under_interleaved_histories(operations):
    """After every step each built run equals the store's triples sorted
    its way, and ``build_count`` grows only on bulk or restore steps:
    single writes patch the runs in place, duplicate inserts and absent
    deletes leave them alone."""
    log: list = []
    store = _logging(TripleStore(), log)
    for name in ORDER_PERMUTATIONS:
        store.columnar().order(name)
    for kind, payload in operations:
        before = store.columnar().build_count
        if kind == "insert":
            store.insert(payload)
        elif kind == "delete":
            store.delete(payload)
        elif kind == "insert-duplicate":
            present = sorted(store._triples)
            if present:
                encoded = present[payload % len(present)]
                triple = Triple(*(store.dictionary.decode(i) for i in encoded))
                assert not store.insert(triple)
        elif kind == "delete-absent":
            assert not store.delete(Triple(GHOST, payload.property, payload.object))
        elif kind == "load":
            store.load(Graph(list(payload)))
        elif kind == "from-encoded":  # checkpoint restore into a fresh store
            terms, encoded = store.encoded_state()
            assert encoded == sorted(encoded)  # the documented contract
            store = _logging(
                TripleStore.from_encoded(terms, encoded, store.schema), log
            )
            before = 0
        else:  # WAL replay: recover the whole log into a fresh store
            replayed = TripleStore()
            for record in log:
                apply_op(replayed, None, *decode_op(record))
            assert replayed.to_graph() == store.to_graph()
            store = _logging(replayed, log)
            before = 0
        assert_runs_exact(store)  # probes every order, building any missing
        if kind not in REBUILDING_STEPS:
            assert store.columnar().build_count == before, kind


def test_encoded_mutations_invalidate_without_listeners():
    """Checkpoint restore and ``from_encoded`` write through
    ``_insert_encoded`` — no Triple-level listener fires, and the
    epoch alone must invalidate the built runs."""
    store = TripleStore()
    store.insert(Triple(SUBJECTS[0], PROPERTIES[0], OBJECTS[0]))
    indexes = store.columnar()
    run = indexes.order("spo")
    assert indexes.has_current("spo")
    ids = [
        store.dictionary.encode(term)
        for term in (SUBJECTS[1], PROPERTIES[0], OBJECTS[1])
    ]
    assert store._insert_encoded(tuple(ids))
    assert not indexes.has_current("spo")
    rebuilt = indexes.order("spo")
    assert rebuilt is not run
    assert len(rebuilt) == 2
    assert_runs_exact(store)


def test_single_writes_patch_runs_in_place():
    store = TripleStore()
    for subject in SUBJECTS[:3]:
        store.insert(Triple(subject, PROPERTIES[0], OBJECTS[0]))
    indexes = store.columnar()
    built = {name: indexes.order(name) for name in ("spo", "pos")}
    before = indexes.build_count
    store.insert(Triple(SUBJECTS[4], PROPERTIES[1], OBJECTS[2]))
    assert indexes.has_current("spo") and indexes.has_current("pos")
    assert_built_runs_exact(store)
    store.delete(Triple(SUBJECTS[1], PROPERTIES[0], OBJECTS[0]))
    assert_built_runs_exact(store)
    for name, run in built.items():
        assert indexes.order(name) is run  # the same arrays, patched
    assert indexes.build_count == before
    # An order never probed is still built on demand, from the store.
    indexes.order("osp")
    assert indexes.build_count == before + 1
    assert_built_runs_exact(store)


def test_patch_is_a_no_op_on_present_insert_and_absent_delete():
    run = SortedRunIndex("pos", [(1, 2, 3), (4, 2, 5)])
    run.patch((1, 2, 3), insert=True)
    run.patch((9, 9, 9), insert=False)
    assert list(run.iter_triples()) == [(1, 2, 3), (4, 2, 5)]
    run.patch((0, 2, 4), insert=True)
    assert list(zip(*run.columns)) == [(2, 3, 1), (2, 4, 0), (2, 5, 4)]


def test_load_invalidates_up_front():
    store = TripleStore()
    store.insert(Triple(SUBJECTS[0], PROPERTIES[0], OBJECTS[0]))
    indexes = store.columnar()
    indexes.order("spo")
    store.load(Graph([Triple(s, PROPERTIES[1], OBJECTS[1]) for s in SUBJECTS]))
    assert indexes._orders == {}  # no patch per loaded triple
    before = indexes.build_count
    indexes.order("spo")
    assert indexes.build_count == before + 1
    assert_runs_exact(store)


def test_reads_do_not_rebuild():
    store = TripleStore()
    for subject in SUBJECTS:
        store.insert(Triple(subject, PROPERTIES[0], OBJECTS[0]))
    indexes = store.columnar()
    for _ in range(3):
        indexes.order("spo")
        indexes.order("pos")
        list(store.match(property_id=store.term_id(PROPERTIES[0])))
    assert indexes.build_count == 2  # one build per probed order, ever


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
    # Serving from the built SPO run changes nothing.
    store.columnar().order("spo")
    assert list(store) == first
