"""The answerer answers over its store: one copy of the data.

* A :class:`~repro.storage.store.TripleStore` handed to
  :class:`~repro.core.QueryAnswerer` is answered over as-is — no copy,
  no listener unless a cache is passed — and refuses ``schema`` and
  ``interval_encoding`` (the store carries its closed schema and ids).
* A schema triple written through the answerer or the service is
  refused with ``ValueError`` before any state changes, with Sat built
  or not: a constraint must go through ``DurableStore.add_constraint``.
* Readers wrap stores.  A pinned read after a write rebuilds none:
  the test counts ``TripleStore.to_graph`` / ``from_graph`` /
  ``from_encoded`` calls with monkeypatched counters, no timing.  A
  Sat read by an answerer over a follower's store leaves no listener
  on the durable store.
"""

from __future__ import annotations

import pytest

from repro.cache import QueryCache
from repro.core import OptionError, QueryAnswerer, Strategy
from repro.datasets import books_dataset
from repro.query import parse_query
from repro.rdf import (
    Graph, Namespace, RDF_TYPE, RDFS_DOMAIN, RDFS_SUBCLASSOF, Triple,
)
from repro.replication import ReplicationCluster
from repro.resilience.clock import FakeClock
from repro.service import QueryRequest, QueryService
from repro.schema import Constraint, Schema
from repro.storage import TripleStore

EX = Namespace("http://example.org/one-copy/")

STUDENT_QUERY = parse_query(
    "SELECT ?x WHERE { ?x rdf:type <http://example.org/one-copy/Student> }"
)


def student_graph(students: int = 3) -> Graph:
    graph = Graph([Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student)])
    for index in range(students):
        graph.add(Triple(EX["s%d" % index], RDF_TYPE, EX.Grad))
    return graph


def rows(answer):
    return sorted(answer)


# ---------------------------------------------------------------------------
# Answering over a store


def test_answerer_wraps_a_store_without_copying():
    graph, schema, query = books_dataset()
    store = TripleStore.from_graph(graph, schema)
    answerer = QueryAnswerer(store)
    assert answerer.store is store
    assert answerer.schema is store.schema
    assert store._listeners == []  # no cache, no listener
    reference = QueryAnswerer(graph, schema)
    for strategy in (Strategy.SAT, Strategy.REF_GCOV, Strategy.DATALOG):
        assert (
            answerer.answer(query, strategy).answer
            == reference.answer(query, strategy).answer
        ), strategy
    # The answerer's writes are the store's.
    before = store.triple_count
    assert answerer.insert(Triple(EX.extra, RDF_TYPE, EX.Thing))
    assert store.triple_count == before + 1


def test_answerer_over_a_store_watches_it_with_its_cache():
    store = TripleStore.from_graph(student_graph())
    cache = QueryCache()
    answerer = QueryAnswerer(store, cache=cache)
    assert len(store._listeners) == 1
    cold = answerer.answer(STUDENT_QUERY)
    assert answerer.answer(STUDENT_QUERY).details["cache"]["answer"] == "hit"
    store.insert(Triple(EX.late, RDF_TYPE, EX.Student))  # not via the answerer
    after = answerer.answer(STUDENT_QUERY)
    assert after.details["cache"]["answer"] == "miss"
    assert len(after.answer) == len(cold.answer) + 1


@pytest.mark.parametrize(
    "kwargs", [{"schema": books_dataset()[1]}, {"interval_encoding": True}]
)
def test_answerer_over_a_store_refuses_schema_and_encoding(kwargs):
    store = TripleStore.from_graph(student_graph())
    with pytest.raises(OptionError):
        QueryAnswerer(store, **kwargs)


def test_data_triples_skip_the_schema_and_follow_spo_order():
    graph = student_graph()
    store = TripleStore.from_graph(graph)
    data = list(store.data_triples())
    assert set(data) == set(graph.data_triples())
    assert [store.encode(t) for t in data] == sorted(
        store.encode(t) for t in data
    )
    assert len(store) > len(data)  # the closed schema's triples are stored


# ---------------------------------------------------------------------------
# Schema triples are refused before any state changes


def _state(answerer, cache):
    saturator = answerer._saturator
    return (
        answerer.store.triple_count,
        answerer.store.mutation_epoch,
        cache.data_epoch,
        cache.schema_epoch,
        answerer.schema.fingerprint(),
        None if saturator is None else saturator.store.triple_count,
    )


@pytest.mark.parametrize("sat_built", [False, True], ids=["no-sat", "sat"])
@pytest.mark.parametrize("operation", ["insert", "delete"])
def test_answerer_refuses_schema_triples(sat_built, operation):
    cache = QueryCache()
    answerer = QueryAnswerer(student_graph(), cache=cache)
    if sat_built:
        answerer.answer(STUDENT_QUERY, Strategy.SAT)
    triple = (
        Triple(EX.Postdoc, RDFS_SUBCLASSOF, EX.Student)  # new
        if operation == "insert"
        else Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student)  # stored
    )
    before = _state(answerer, cache)
    with pytest.raises(ValueError, match="add_constraint"):
        getattr(answerer, operation)(triple)
    assert _state(answerer, cache) == before
    assert answerer.answer(STUDENT_QUERY, Strategy.SAT).cardinality == 3


@pytest.mark.parametrize("operation", ["insert", "delete"])
def test_service_refuses_schema_triples(operation):
    service = QueryService(
        student_graph(), tenants=["t"], clock=FakeClock(auto_advance=0.001)
    )
    store = service.answerer.store
    before = (store.triple_count, store.mutation_epoch, service.snapshots.epoch)
    with pytest.raises(ValueError, match="add_constraint"):
        getattr(service, operation)(Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student))
    after = (store.triple_count, store.mutation_epoch, service.snapshots.epoch)
    assert after == before


# ---------------------------------------------------------------------------
# Readers wrap stores: no rebuild on the read paths


@pytest.fixture
def rebuilds(monkeypatch):
    """Count the calls that would rebuild a store or a graph."""
    calls = []
    to_graph = TripleStore.to_graph
    from_graph = TripleStore.from_graph.__func__
    from_encoded = TripleStore.from_encoded.__func__

    def counting_to_graph(self):
        calls.append("to_graph")
        return to_graph(self)

    def counting_from_graph(cls, *args, **kwargs):
        calls.append("from_graph")
        return from_graph(cls, *args, **kwargs)

    def counting_from_encoded(cls, *args, **kwargs):
        calls.append("from_encoded")
        return from_encoded(cls, *args, **kwargs)

    monkeypatch.setattr(TripleStore, "to_graph", counting_to_graph)
    monkeypatch.setattr(TripleStore, "from_graph", classmethod(counting_from_graph))
    monkeypatch.setattr(
        TripleStore, "from_encoded", classmethod(counting_from_encoded)
    )
    return calls


def test_counters_see_a_rebuild(rebuilds):
    """The counters see the calls, so the zeros below mean something."""
    store = TripleStore.from_graph(student_graph())
    QueryAnswerer(store.to_graph())
    assert rebuilds == ["from_graph", "to_graph", "from_graph"]


@pytest.mark.parametrize("engine", ["columnar", "sqlite"])
def test_pinned_read_after_a_write_rebuilds_nothing(rebuilds, engine):
    service = QueryService(
        student_graph(),
        tenants=["t"],
        engine=engine,
        clock=FakeClock(auto_advance=0.001),
    )
    rebuilds.clear()
    snapshot = service.pin()
    assert service.insert(Triple(EX.late, RDF_TYPE, EX.Student))
    pinned = service.submit(QueryRequest("t", STUDENT_QUERY, snapshot=snapshot))
    live = service.submit(QueryRequest("t", STUDENT_QUERY))
    service.drain()
    assert rebuilds == []
    assert len(pinned.report.answer) == 3
    assert len(live.report.answer) == 4
    service.release(snapshot)


def test_replica_sat_readers_leave_no_listener_on_the_store(tmp_path):
    """Each LSN move gets a new answerer over the follower's store; a
    Sat read builds that answerer's saturated store over the durable
    store, and the saturator keeps no listener there, so later writes
    pay no Sat maintenance for an answerer that is gone."""
    cluster = ReplicationCluster(str(tmp_path / "cluster"), ("n1", "n2"), seed=0)
    try:
        cluster.primary_node.load(student_graph())
        cluster.pump_until_converged()
        follower = cluster.nodes["n2"]
        store = follower.durable.store
        listeners = (list(store._listeners), list(store._pre_listeners))
        for late in range(3):
            reader = QueryAnswerer(follower.durable.store)
            assert len(reader.answer(STUDENT_QUERY, Strategy.SAT).answer) == 3 + late
            assert (store._listeners, store._pre_listeners) == listeners
            cluster.primary_node.insert(Triple(EX["late%d" % late], RDF_TYPE, EX.Grad))
            cluster.pump_until_converged()
        assert (store._listeners, store._pre_listeners) == listeners
    finally:
        cluster.close()



def supervision_graph() -> Graph:
    """A domain types data that states no type."""
    return Graph(
        [
            Triple(EX.supervises, RDFS_DOMAIN, EX.Professor),
            Triple(EX.Professor, RDFS_SUBCLASSOF, EX.Faculty),
            Triple(EX.p0, EX.supervises, EX.s0),
        ]
    )


FACULTY_QUERY = parse_query(
    "SELECT ?x WHERE { ?x rdf:type <http://example.org/one-copy/Faculty> }"
)


def test_a_sat_read_leaves_the_replica_state_crc_alone(tmp_path):
    """Saturating the follower's store adds no id to it, so its state
    fingerprint still matches the primary's."""
    cluster = ReplicationCluster(str(tmp_path / "cluster"), ("n1", "n2"), seed=0)
    try:
        graph = supervision_graph()
        for constraint in sorted(Schema.from_graph(graph).direct_constraints(),
                                 key=Constraint.to_triple):
            cluster.primary_node.add_constraint(constraint)
        cluster.primary_node.insert(Triple(EX.p0, EX.supervises, EX.s0))
        cluster.pump_until_converged()
        follower = cluster.nodes["n2"]
        crc = follower.state_crc()
        assert crc == cluster.primary_node.state_crc()
        reader = QueryAnswerer(follower.durable.store)
        assert len(reader.answer(FACULTY_QUERY, Strategy.SAT).answer) == 1
        assert follower.state_crc() == crc
        assert cluster.verify_consistency() == []
    finally:
        cluster.close()


def test_a_saturating_node_restarts_without_a_reseed(tmp_path):
    """A node that saturates live and recovers from its WAL alone ends
    with the ids its primary has: the bulk load and the restart's
    replay encode the same terms in the same order."""
    cluster = ReplicationCluster(
        str(tmp_path / "cluster"), ("n1", "n2"), seed=0, with_saturator=True)
    try:
        cluster.primary_node.load(supervision_graph())
        cluster.pump_until_converged()
        assert cluster.verify_consistency() == []
        cluster.primary_node.insert(Triple(EX.p1, EX.supervises, EX.s1))
        cluster.pump_until_converged()
        cluster.kill("n2")
        cluster.restart("n2")
        cluster.pump_until_converged()
        assert cluster.verify_consistency() == []
        assert cluster.reseed_log == []
        reader = QueryAnswerer(cluster.nodes["n2"].durable.store)
        assert len(reader.answer(FACULTY_QUERY, Strategy.SAT).answer) == 2
    finally:
        cluster.close()
