"""The deterministic concurrency harness for the multi-tenant service.

Every test here is seeded and driven by a
:class:`~repro.resilience.clock.FakeClock`-stepped schedule — zero
wall-clock sleeps.  The scheduling loop of
:class:`~repro.service.QueryService` is step-driven, so a scripted
sequence of submit/step/write events *is* an interleaving, and the same
script replays identically on every run.  Covered:

* admission: bounded queues, typed shedding with retry-after hints,
  standing quotas, deadline expiry;
* weighted fair scheduling: exact stride-schedule ratios and
  no-starvation under a flooding tenant;
* snapshot isolation: byte-identical answers at a pinned epoch under
  concurrent inserts, bulk loads, saturation, and (through the durable
  store) constraint changes — on the columnar and SQLite engines;
* service == direct-answerer equivalence, including the per-tenant
  cache partitions and their shared-epoch invalidation;
* budget attribution: overruns name the originating tenant/request,
  never an innocent bystander;
* a hypothesis property: random tenant/priority/arrival schedules
  conserve requests (admitted + shed == submitted) and never starve.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QueryAnswerer, Strategy
from repro.datasets import books_dataset, generate_lubm, lubm_queries
from repro.query import Cover, parse_query
from repro.rdf import Graph, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple
from repro.resilience.clock import FakeClock
from repro.resilience.errors import BudgetExceeded
from repro.schema import Constraint
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    DONE,
    EXPIRED,
    FAILED,
    QueryRequest,
    QueryService,
    REASON_QUEUE_FULL,
    REASON_QUOTA_EXHAUSTED,
    REASON_UNKNOWN_TENANT,
    TenantConfig,
)
from repro.storage.snapshot import SnapshotManager
from repro.storage.store import TripleStore

EX = Namespace("http://example.org/svc/")

STUDENT_QUERY = "SELECT ?x WHERE { ?x rdf:type <http://example.org/svc/Student> }"


def tiny_dataset():
    """Two students (one via subclass entailment) and a student query."""
    graph = Graph()
    graph.add(Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student))
    graph.add(Triple(EX.alice, RDF_TYPE, EX.Grad))
    graph.add(Triple(EX.bob, RDF_TYPE, EX.Student))
    return graph, parse_query(STUDENT_QUERY)


def make_service(graph, schema=None, *, tenants, clock=None, **kwargs):
    clock = clock if clock is not None else FakeClock(auto_advance=0.001)
    return QueryService(graph, schema, tenants=tenants, clock=clock, **kwargs)


def rows(ticket_or_report):
    answer = getattr(ticket_or_report, "answer", ticket_or_report)
    return sorted(answer)


class TestRequestValidation:
    def test_jucq_cover_must_cover_the_query(self):
        """A foreign cover is refused at the door: the answerer's
        OptionError is not a serving error, so it would escape step()."""
        _, query = tiny_dataset()
        other = parse_query(
            "SELECT ?x WHERE { ?x rdf:type <http://example.org/svc/Grad> }"
        )
        with pytest.raises(ValueError, match="cover"):
            QueryRequest("alpha", query, Strategy.REF_JUCQ, cover=Cover.per_atom(other))
        request = QueryRequest(
            "alpha", query, Strategy.REF_JUCQ, cover=Cover.per_atom(query)
        )
        service = make_service(tiny_dataset()[0], tenants=["alpha"])
        ticket = service.submit(request)
        service.step()
        assert ticket.status == DONE
        assert rows(ticket.report) == [(EX.alice,), (EX.bob,)]


class TestAdmission:
    def test_unknown_tenant_is_shed_typed(self):
        graph, query = tiny_dataset()
        service = make_service(graph, tenants=["alpha"])
        with pytest.raises(AdmissionRejected) as caught:
            service.submit(QueryRequest("ghost", query))
        assert caught.value.reason == REASON_UNKNOWN_TENANT
        assert caught.value.retry_after is None  # retrying cannot help
        assert service.metrics.tenants["ghost"].shed_total() == 1

    def test_bounded_queue_sheds_past_depth_with_retry_hint(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph, tenants=[TenantConfig("alpha", queue_depth=3)]
        )
        for _ in range(3):
            service.submit(QueryRequest("alpha", query))
        with pytest.raises(AdmissionRejected) as caught:
            service.submit(QueryRequest("alpha", query))
        exc = caught.value
        assert exc.reason == REASON_QUEUE_FULL
        assert exc.queued == 3
        assert exc.retry_after is not None and exc.retry_after > 0
        assert exc.diagnostics()["reason"] == REASON_QUEUE_FULL
        # The queue itself stays intact: draining completes exactly 3.
        service.drain()
        assert service.metrics.totals()["completed"] == 3
        assert service.metrics.shed_rate() == pytest.approx(0.25)

    def test_retry_after_tracks_observed_service_time(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.01)
        service = make_service(
            graph, tenants=[TenantConfig("alpha", queue_depth=1)], clock=clock
        )
        service.submit(QueryRequest("alpha", query))
        service.drain()
        first_estimate = service.admission.retry_after()
        # The EWMA has now seen a real (fake-clock) service time.
        assert first_estimate > 0
        service.submit(QueryRequest("alpha", query))
        with pytest.raises(AdmissionRejected) as caught:
            service.submit(QueryRequest("alpha", query))
        assert caught.value.retry_after >= first_estimate

    def test_quota_exhaustion_sheds_future_requests_only(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph,
            tenants=[TenantConfig("alpha", queue_depth=4, quota_rows=2)],
        )
        first = service.submit(QueryRequest("alpha", query))
        second = service.submit(QueryRequest("alpha", query))
        service.drain()
        # Both answers stand (2 rows each; the second trips the quota
        # *after* completing).
        assert first.status == DONE and second.status == DONE
        assert service.admission.quota_exhausted("alpha")
        with pytest.raises(AdmissionRejected) as caught:
            service.submit(QueryRequest("alpha", query))
        assert caught.value.reason == REASON_QUOTA_EXHAUSTED

    def test_priority_orders_within_tenant_fifo_on_ties(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph, tenants=[TenantConfig("alpha", queue_depth=8)], capacity=1
        )
        low = service.submit(QueryRequest("alpha", query, priority=0))
        high = service.submit(QueryRequest("alpha", query, priority=5))
        tied = service.submit(QueryRequest("alpha", query, priority=5))
        order = []
        while service.admission.backlog():
            order.extend(t.owner for t in service.step())
        assert order == [high.owner, tied.owner, low.owner]

    def test_deadline_expires_queued_requests(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        service = make_service(
            graph, tenants=[TenantConfig("alpha", queue_depth=4)], clock=clock
        )
        urgent = service.submit(QueryRequest("alpha", query, deadline=0.5))
        patient = service.submit(QueryRequest("alpha", query))
        clock.advance(1.0)  # the urgent request's horizon passes unserved
        finished = service.drain()
        assert urgent.status == EXPIRED
        assert urgent in finished and urgent.answer is None
        assert patient.status == DONE
        totals = service.metrics.totals()
        assert totals["expired"] == 1 and totals["completed"] == 1

    def test_capacity_slots_are_not_wasted_on_expired_tickets(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        service = make_service(
            graph,
            tenants=[TenantConfig("alpha", queue_depth=8)],
            clock=clock,
            capacity=2,
        )
        doomed = [
            service.submit(QueryRequest("alpha", query, deadline=0.1))
            for _ in range(3)
        ]
        live = [service.submit(QueryRequest("alpha", query)) for _ in range(2)]
        clock.advance(1.0)
        finished = service.step()
        # One step: all 3 expired tickets drained for free AND both live
        # requests ran in the round's 2 slots.
        assert len(finished) == 5
        assert all(t.status == EXPIRED for t in doomed)
        assert all(t.status == DONE for t in live)


class TestWeightedFairness:
    def submit_flood(self, service, query, tenants, per_tenant):
        tickets = {name: [] for name in tenants}
        for _ in range(per_tenant):
            for name in tenants:
                tickets[name].append(service.submit(QueryRequest(name, query)))
        return tickets

    def test_stride_schedule_matches_weights_exactly(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph,
            tenants=[
                TenantConfig("alpha", weight=3, queue_depth=12),
                TenantConfig("beta", weight=1, queue_depth=12),
            ],
            capacity=4,
        )
        self.submit_flood(service, query, ["alpha", "beta"], 8)
        order = []
        while len(order) < 8:
            order.extend(t.request.tenant for t in service.step())
        # Both backlogged throughout: the first 8 grants split 3:1.
        assert order[:8].count("alpha") == 6
        assert order[:8].count("beta") == 2
        # Determinism: an identical service replays the same schedule.
        replay = make_service(
            graph,
            tenants=[
                TenantConfig("alpha", weight=3, queue_depth=12),
                TenantConfig("beta", weight=1, queue_depth=12),
            ],
            capacity=4,
        )
        self.submit_flood(replay, query, ["alpha", "beta"], 8)
        replay_order = []
        while len(replay_order) < 8:
            replay_order.extend(t.request.tenant for t in replay.step())
        assert replay_order[:8] == order[:8]

    def test_flooding_tenant_cannot_starve_light_tenant(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph,
            tenants=[
                TenantConfig("flood", weight=1, queue_depth=32),
                TenantConfig("light", weight=1, queue_depth=4),
            ],
            capacity=1,
        )
        for _ in range(20):
            service.submit(QueryRequest("flood", query))
        lone = service.submit(QueryRequest("light", query))
        steps = 0
        while lone.status != DONE:
            service.step()
            steps += 1
        # Equal weights: the light tenant is served by the second grant
        # no matter how deep the flood's backlog is.
        assert steps <= 2

    def test_idleness_banks_no_credit(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph,
            tenants=[
                TenantConfig("busy", weight=1, queue_depth=32),
                TenantConfig("idle", weight=1, queue_depth=32),
            ],
            capacity=1,
        )
        for _ in range(6):
            service.submit(QueryRequest("busy", query))
            service.step()
        # "idle" wakes up with a stale-low pass; it must not monopolize.
        for _ in range(6):
            service.submit(QueryRequest("idle", query))
        for _ in range(4):
            service.submit(QueryRequest("busy", query))
        order = []
        while service.admission.backlog():
            order.extend(t.request.tenant for t in service.step())
        # After one catch-up grant the two tenants alternate.
        assert order[:2].count("idle") <= 2
        assert order[1:5].count("busy") >= 2


@pytest.mark.parametrize("engine", ["columnar", "sqlite"])
class TestSnapshotIsolation:
    def test_pinned_reads_identical_under_concurrent_inserts(self, engine):
        graph, query = tiny_dataset()
        service = make_service(
            graph, tenants=["reader", "writer"], engine=engine
        )
        baseline = service.submit(QueryRequest("reader", query))
        service.drain()
        expected = rows(baseline)
        snapshot = service.pin()
        # Writer-side churn lands between pin and read.
        service.insert(Triple(EX.carol, RDF_TYPE, EX.Student))
        service.insert(Triple(EX.dave, RDF_TYPE, EX.Grad))
        pinned = service.submit(
            QueryRequest("reader", query, snapshot=snapshot)
        )
        live = service.submit(QueryRequest("reader", query))
        service.drain()
        assert rows(pinned) == expected  # byte-identical pre-write view
        assert len(rows(live)) == len(expected) + 2
        # More writes while the pin is still held change nothing.
        service.insert(Triple(EX.erin, RDF_TYPE, EX.Student))
        again = service.submit(QueryRequest("reader", query, snapshot=snapshot))
        service.drain()
        assert rows(again) == expected
        service.release(snapshot)

    def test_pinned_read_before_and_after_a_write(self, engine):
        """pin → pinned read → write → pinned read: the second read
        still returns the pre-write rows.  The first read runs over
        the live store; a reader kept over it would see the write."""
        graph, query = tiny_dataset()
        service = make_service(graph, tenants=["reader"], engine=engine)
        snapshot = service.pin()
        first = service.submit(QueryRequest("reader", query, snapshot=snapshot))
        service.drain()
        service.insert(Triple(EX.carol, RDF_TYPE, EX.Student))
        second = service.submit(
            QueryRequest("reader", query, snapshot=snapshot)
        )
        live = service.submit(QueryRequest("reader", query))
        service.drain()
        assert len(rows(first)) == 2
        assert rows(second) == rows(first)
        assert len(rows(live)) == 3
        service.release(snapshot)

    def test_pinned_reads_survive_bulk_load_and_saturation(self, engine):
        graph, query = tiny_dataset()
        service = make_service(graph, tenants=["reader"], engine=engine)
        snapshot = service.pin()
        bulk = Graph()
        for index in range(25):
            bulk.add(Triple(EX["new%d" % index], RDF_TYPE, EX.Student))
        assert service.load(bulk) == 25
        # A saturation round on the live store (the SAT strategy builds
        # and maintains G∞) must not leak into the pinned view either.
        sat = service.submit(QueryRequest("reader", query, strategy=Strategy.SAT))
        pinned = service.submit(QueryRequest("reader", query, snapshot=snapshot))
        service.drain()
        assert len(rows(sat)) == 2 + 25
        assert rows(pinned) == rows(
            QueryAnswerer(tiny_dataset()[0], engine=engine).answer(query).answer
        )
        service.release(snapshot)

    def test_snapshot_equivalence_between_engines(self, engine):
        """The pinned state answers identically on every engine — the
        frozen copy is a real store, not an engine-specific artifact."""
        graph, query = tiny_dataset()
        service = make_service(graph, tenants=["reader"], engine=engine)
        snapshot = service.pin()
        service.insert(Triple(EX.zed, RDF_TYPE, EX.Student))
        frozen = snapshot.store()
        other = "sqlite" if engine == "columnar" else "columnar"
        assert frozen is not service.answerer.store
        here = QueryAnswerer(frozen, engine=engine)
        there = QueryAnswerer(frozen, engine=other)
        assert rows(here.answer(query).answer) == rows(there.answer(query).answer)
        service.release(snapshot)


class TestSnapshotManager:
    def test_pin_is_free_until_first_write(self):
        graph, _ = tiny_dataset()
        store = TripleStore.from_graph(graph)
        manager = SnapshotManager(store)
        pins = [manager.pin() for _ in range(5)]
        assert manager.frozen_copies == 0  # O(1) pins, no copies yet
        store.insert(Triple(EX.new, RDF_TYPE, EX.Student))
        assert manager.frozen_copies == 1  # one shared copy for all 5
        assert all(p.store() is pins[0].store() for p in pins)
        for pin in pins:
            pin.release()
        assert manager.frozen_copies == 0 and manager.active_pins == 0

    def test_epoch_advances_per_write_with_per_epoch_copies(self):
        graph, _ = tiny_dataset()
        store = TripleStore.from_graph(graph)
        manager = SnapshotManager(store)
        first = manager.pin()
        store.insert(Triple(EX.n1, RDF_TYPE, EX.Student))
        second = manager.pin()
        store.insert(Triple(EX.n2, RDF_TYPE, EX.Student))
        assert first.epoch != second.epoch
        assert first.store().triple_count + 1 == second.store().triple_count
        assert manager.frozen_copies == 2
        second.release()
        assert manager.frozen_copies == 1
        first.release()

    def test_released_snapshot_refuses_reads(self):
        graph, _ = tiny_dataset()
        manager = SnapshotManager(TripleStore.from_graph(graph))
        snapshot = manager.pin()
        snapshot.release()
        snapshot.release()  # idempotent
        with pytest.raises(ValueError):
            snapshot.store()

    def test_unpinned_writes_cost_nothing(self):
        graph, _ = tiny_dataset()
        store = TripleStore.from_graph(graph)
        manager = SnapshotManager(store)
        for index in range(10):
            store.insert(Triple(EX["free%d" % index], RDF_TYPE, EX.Student))
        assert manager.frozen_copies == 0
        assert manager.epoch == 10

    def test_durable_store_snapshot_survives_constraint_change(self, tmp_path):
        from repro.durability import DurableStore

        graph, query = tiny_dataset()
        durable = DurableStore.open(str(tmp_path / "wal"))
        durable.load(graph)
        snapshot = durable.pin_snapshot()
        pinned_counts = snapshot.store().triple_count
        assert snapshot.label == (durable.data_epoch, durable.schema_epoch)
        # A constraint change mutates the schema *before* its entailed
        # triples land — the durable store pre-declares the write, so
        # the pinned view keeps the old schema AND the old triples.
        durable.add_constraint(Constraint.subclass(EX.Student, EX.Person))
        assert durable.store.triple_count > pinned_counts
        assert snapshot.store().triple_count == pinned_counts
        assert not snapshot.store().schema.superclasses(EX.Student)
        snapshot.release()
        durable.close()


class TestServiceEquivalence:
    def test_matches_direct_answerer_on_books(self):
        graph, schema, query = books_dataset()
        service = make_service(graph, schema, tenants=["alpha", "beta"])
        direct = QueryAnswerer(graph, schema)
        for strategy in (Strategy.SAT, Strategy.REF_UCQ, Strategy.REF_GCOV):
            ticket = service.submit(
                QueryRequest("alpha", query, strategy=strategy)
            )
            service.drain()
            assert ticket.status == DONE
            assert rows(ticket) == rows(direct.answer(query, strategy).answer)

    @pytest.mark.parametrize("engine", ["columnar", "sqlite"])
    def test_matches_direct_answerer_on_lubm(self, engine):
        graph = generate_lubm(universities=1, seed=7)
        queries = lubm_queries()
        service = make_service(
            graph, tenants=["alpha", "beta", "gamma"], engine=engine,
            capacity=3,
        )
        direct = QueryAnswerer(graph, engine=engine)
        names = ["Q1", "Q2", "Q5"]
        tenants = ["alpha", "beta", "gamma"]
        tickets = [
            service.submit(QueryRequest(tenants[i], queries[name]))
            for i, name in enumerate(names)
        ]
        service.drain()
        for ticket, name in zip(tickets, names):
            assert ticket.status == DONE, name
            assert rows(ticket) == rows(direct.answer(queries[name]).answer), name

    def test_tenant_cache_partitions_share_epoch_invalidation(self):
        graph, query = tiny_dataset()
        service = make_service(graph, tenants=["alpha", "beta"])
        a1 = service.submit(QueryRequest("alpha", query))
        a2 = service.submit(QueryRequest("alpha", query))
        b1 = service.submit(QueryRequest("beta", query))
        service.drain()
        # Partition privacy: alpha's repeat hits, beta's first is a miss
        # even though alpha cached the same (query, epoch) answer.
        assert (a1.cache, a2.cache, b1.cache) == ("miss", "hit", "miss")
        # Shared-epoch invalidation: one write retires *every* tenant's
        # cached answers at once.
        service.insert(Triple(EX.fresh, RDF_TYPE, EX.Student))
        a3 = service.submit(QueryRequest("alpha", query))
        b2 = service.submit(QueryRequest("beta", query))
        service.drain()
        assert (a3.cache, b2.cache) == ("miss", "miss")
        assert len(rows(a3)) == len(rows(a1)) + 1  # and they see the write
        assert rows(a3) == rows(b2)

    def test_cached_answers_equal_computed_answers(self):
        graph, schema, query = books_dataset()
        service = make_service(graph, schema, tenants=["alpha"])
        cold = service.submit(QueryRequest("alpha", query))
        warm = service.submit(QueryRequest("alpha", query))
        service.drain()
        assert cold.cache == "miss" and warm.cache == "hit"
        assert rows(cold) == rows(warm)


class TestBudgetAttribution:
    def test_overrun_details_carry_owner(self):
        from repro.resilience import ExecutionBudget

        budget = ExecutionBudget(max_rows=1, owner="alpha/req-7")
        with pytest.raises(BudgetExceeded) as caught:
            budget.charge_rows(5, operator="Join")
        assert caught.value.owner == "alpha/req-7"
        assert caught.value.details["owner"] == "alpha/req-7"

    def test_service_attributes_trip_to_originating_request(self):
        graph = generate_lubm(universities=1, seed=7)
        queries = lubm_queries()
        service = make_service(
            graph,
            tenants=[
                TenantConfig("greedy", queue_depth=4, request_rows=1),
                TenantConfig("modest", queue_depth=4),
            ],
            capacity=2,
        )
        doomed = service.submit(QueryRequest("greedy", queries["Q2"]))
        fine = service.submit(QueryRequest("modest", queries["Q1"]))
        service.drain()
        assert doomed.status == FAILED
        assert isinstance(doomed.error, BudgetExceeded)
        assert doomed.error.details["owner"] == doomed.owner
        assert fine.status == DONE
        assert service.metrics.tenants["greedy"].budget_trips == 1
        assert service.metrics.tenants["modest"].budget_trips == 0
        assert service.metrics.totals()["failed"] == 1


# ----------------------------------------------------------------------
# Hypothesis: random schedules against the admission controller.

TENANTS = ("t0", "t1", "t2")

events = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=0, max_value=len(TENANTS) - 1),
            st.integers(min_value=0, max_value=3),
        ),
        st.just(("step",)),
    ),
    min_size=1,
    max_size=60,
)


class TestAdmissionProperties:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule=events,
        weights=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
        capacity=st.integers(min_value=1, max_value=3),
    )
    def test_conservation_and_no_starvation(self, schedule, weights, capacity):
        controller = AdmissionController(
            [
                TenantConfig(name, weight=weight, queue_depth=3)
                for name, weight in zip(TENANTS, weights)
            ],
            capacity=capacity,
            clock=FakeClock(auto_advance=0.001),
        )
        submitted = shed = 0
        admitted = []
        dequeued = []
        for event in schedule:
            if event[0] == "submit":
                _, index, priority = event
                submitted += 1
                try:
                    admitted.append(
                        controller.submit(
                            QueryRequest(TENANTS[index], "q", priority=priority)
                        )
                    )
                except AdmissionRejected as exc:
                    assert exc.reason == REASON_QUEUE_FULL
                    shed += 1
            else:
                runnable, expired = controller.next_batch()
                assert not expired  # no deadlines in this schedule
                dequeued.extend(runnable)
                # Work-conservation: a round only under-fills its
                # capacity when the queues ran dry.
                if controller.backlog():
                    assert len(runnable) == capacity
        # Conservation at the front door.
        assert len(admitted) + shed == submitted
        # No starvation: draining the backlog hands out every admitted
        # ticket exactly once, none left behind, none duplicated.
        while controller.backlog():
            runnable, _ = controller.next_batch()
            assert runnable
            dequeued.extend(runnable)
        assert controller.backlog() == 0
        assert len(dequeued) == len(admitted)
        assert {id(t) for t in dequeued} == {id(t) for t in admitted}

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_schedules_replay_identically(self, data):
        schedule = data.draw(events)

        def run():
            controller = AdmissionController(
                [TenantConfig(name, queue_depth=3) for name in TENANTS],
                capacity=2,
                clock=FakeClock(auto_advance=0.001),
            )
            trace = []
            for event in schedule:
                if event[0] == "submit":
                    _, index, priority = event
                    try:
                        ticket = controller.submit(
                            QueryRequest(TENANTS[index], "q", priority=priority)
                        )
                        trace.append(("admit", ticket.request.tenant))
                    except AdmissionRejected as exc:
                        trace.append(("shed", exc.reason))
                else:
                    runnable, _ = controller.next_batch()
                    trace.append(
                        ("run", tuple(t.request.tenant for t in runnable))
                    )
            return trace

        assert run() == run()


class TestServeMetrics:
    def test_describe_is_json_ready_and_consistent(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph, tenants=[TenantConfig("alpha", queue_depth=1), "beta"]
        )
        service.submit(QueryRequest("alpha", query))
        with pytest.raises(AdmissionRejected):
            service.submit(QueryRequest("alpha", query))
        service.submit(QueryRequest("beta", query))
        service.drain()
        import json

        summary = service.describe()
        json.dumps(summary)  # no unserializable values anywhere
        assert summary["submitted"] == 3
        assert summary["completed"] == 2
        assert summary["shed"] == 1
        assert summary["shed_rate"] == pytest.approx(1 / 3)
        assert summary["latency"]["p50"] > 0
        assert summary["tenants"]["alpha"]["shed"] == {REASON_QUEUE_FULL: 1}
        assert summary["snapshots"]["active_pins"] == 0

    def test_percentiles_are_nearest_rank(self):
        from repro.service import percentile

        samples = [0.01 * i for i in range(1, 101)]
        assert percentile(samples, 0.50) == pytest.approx(0.50)
        assert percentile(samples, 0.95) == pytest.approx(0.95)
        assert percentile(samples, 0.99) == pytest.approx(0.99)
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
