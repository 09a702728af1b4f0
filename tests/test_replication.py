"""Tests for WAL-shipping replication: links, catch-up, failover,
and divergence repair (DESIGN.md §15).

The organizing invariant is *differential*: whatever the links drop,
duplicate, delay, or tear, and whoever crashes or partitions, after
heal + catch-up every live follower's state — triples, dictionary,
schema, epochs — is byte-identical to the primary's (compared through
the canonical checkpoint encoding), and a promoted follower answers
the query workload exactly as the pre-failover primary did.
"""

from __future__ import annotations

import os

import pytest

from repro.core import QueryAnswerer
from repro.durability.wal import WriteAheadLog, encode_record
from repro.query import parse_query
from repro.rdf import Graph, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple
from repro.replication import (
    PrimaryFenced,
    ReplicationCluster,
    ReplicationLink,
)
from repro.resilience.clock import FakeClock
from repro.resilience.faults import ReplicationFaultPlan
from repro.service import QueryRequest, QueryService

#: CI sweeps this (see .github/workflows/ci.yml) so the convergence
#: invariants hold at every seeded fault schedule, not one lucky one.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

EX = Namespace("http://example.org/repl/")

STUDENT_QUERY = parse_query(
    "SELECT ?x WHERE { ?x rdf:type <http://example.org/repl/Student> }"
)

FAULTY_LINKS = {
    "drop_rate": 0.2,
    "duplicate_rate": 0.1,
    "delay_rate": 0.1,
    "delay_rounds": 2,
    "tear_rate": 0.1,
}


def tiny_graph(students: int = 8) -> Graph:
    graph = Graph()
    graph.add(Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student))
    for index in range(students):
        klass = EX.Grad if index % 2 else EX.Student
        graph.add(Triple(EX["s%d" % index], RDF_TYPE, klass))
    return graph


def make_cluster(tmp_path, names=("n1", "n2", "n3"), faults=None,
                 **kwargs) -> ReplicationCluster:
    return ReplicationCluster(
        str(tmp_path / "cluster"), names, seed=CHAOS_SEED,
        link_faults=faults, **kwargs)


def write_n(cluster: ReplicationCluster, count: int, start: int = 0) -> None:
    """``count`` primary inserts, one replication round after each."""
    for index in range(start, start + count):
        cluster.primary_node.insert(
            Triple(EX["w%d" % index], RDF_TYPE, EX.Write))
        cluster.pump(1)


# ---------------------------------------------------------------------------
# Fault plans and links


class TestReplicationFaults:
    def test_same_seed_same_schedule(self):
        first = ReplicationFaultPlan(seed=9, drop_rate=0.3, tear_rate=0.2)
        second = ReplicationFaultPlan(seed=9, drop_rate=0.3, tear_rate=0.2)
        frames = [64, 80, 96, 64, 128, 72]
        for size in frames:
            a, b = first.decide(size), second.decide(size)
            assert (a.drop, a.duplicate, a.delay_rounds, a.tear_at) == \
                (b.drop, b.duplicate, b.delay_rounds, b.tear_at)

    def test_draws_consumed_even_when_axis_disabled(self):
        # Enabling a second axis must not shift the first axis's
        # schedule: every decide() consumes the same number of draws.
        drops_only = ReplicationFaultPlan(seed=4, drop_rate=0.4)
        both = ReplicationFaultPlan(seed=4, drop_rate=0.4,
                                    duplicate_rate=0.0, tear_rate=0.0)
        for _ in range(16):
            assert drops_only.decide(100).drop == both.decide(100).drop

    def test_tear_point_is_a_nonempty_strict_prefix(self):
        plan = ReplicationFaultPlan(seed=2, tear_rate=1.0)
        for size in (2, 17, 300):
            for _ in range(8):
                decision = plan.decide(size)
                assert decision.tear_at is not None
                assert 0 < decision.tear_at < size
        # A 1-byte frame has no strict prefix: it stays intact.
        assert plan.decide(1).tear_at == 1

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ReplicationFaultPlan(drop_rate=1.5)


class TestReplicationLink:
    def test_fifo_without_faults(self):
        link = ReplicationLink("l")
        assert link.send(b"a") and link.send(b"b")
        assert link.deliver() == [b"a", b"b"]
        assert link.deliver() == []

    def test_backpressure_refuses_beyond_capacity(self):
        link = ReplicationLink("l", capacity=2)
        assert link.send(b"a") and link.send(b"b")
        assert not link.send(b"c")
        assert link.counters["refused"] == 1
        link.deliver()
        assert link.send(b"c")

    def test_down_link_loses_in_flight_frames(self):
        link = ReplicationLink("l")
        link.send(b"a")
        link.set_up(False)
        assert not link.send(b"b")
        assert link.deliver() == []
        assert link.counters["lost_in_flight"] == 1
        link.set_up(True)
        assert link.send(b"c")

    def test_torn_frame_delivers_prefix_only(self):
        plan = ReplicationFaultPlan(seed=2, tear_rate=1.0)
        link = ReplicationLink("l", plan=plan)
        frame = bytes(range(64))
        assert link.send(frame)
        (chunk,) = link.deliver()
        assert chunk == frame[: len(chunk)]
        assert len(chunk) < len(frame) or chunk == frame
        assert link.counters["torn"] == 1

    def test_delayed_frame_lands_after_later_traffic(self):
        plan = ReplicationFaultPlan(seed=0, delay_rate=1.0, delay_rounds=1)
        link = ReplicationLink("l", plan=plan)
        link.send(b"first")   # held
        delivered = link.deliver()
        assert b"first" not in delivered
        link.tick()
        assert b"first" in link.deliver()


# ---------------------------------------------------------------------------
# Catch-up over lossy links


class TestCatchUp:
    def test_clean_links_converge(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            write_n(cluster, 10)
            assert cluster.pump_until_converged() <= 5
            assert cluster.verify_consistency() == []
        finally:
            cluster.close()

    def test_faulty_links_converge_and_state_is_identical(self, tmp_path):
        cluster = make_cluster(tmp_path, faults=FAULTY_LINKS)
        try:
            cluster.primary_node.load(tiny_graph())
            write_n(cluster, 25)
            cluster.pump_until_converged()
            assert cluster.verify_consistency() == []
            primary = cluster.primary_node
            for node in cluster.followers():
                assert node.state_crc() == primary.state_crc()
                assert (sorted(node.durable.store.to_graph())
                        == sorted(primary.durable.store.to_graph()))
            # The faults actually fired and the follower machinery
            # handled them (otherwise this test proves nothing).
            fired = sum(link.counters["dropped"] + link.counters["torn"]
                        + link.counters["duplicated"]
                        for name, link in cluster.links.items()
                        if name != cluster.primary_name)
            assert fired > 0
        finally:
            cluster.close()

    def test_follower_restart_resumes_from_wal(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            write_n(cluster, 8)
            cluster.pump_until_converged()
            cluster.kill("n2")
            write_n(cluster, 6, start=8)
            cluster.restart("n2")
            cluster.pump_until_converged()
            assert cluster.verify_consistency() == []
            # Resumed via the ship log, not a reseed.
            assert cluster.nodes["n2"].counters["reseeds"] == 0
        finally:
            cluster.close()

    def test_lagged_follower_past_the_floor_reseeds(self, tmp_path):
        cluster = make_cluster(tmp_path, retain=4)
        try:
            write_n(cluster, 4)
            cluster.pump_until_converged()
            cluster.partition("n2")
            write_n(cluster, 12, start=4)  # floor moves past n2's lsn
            cluster.heal("n2")
            cluster.pump_until_converged()
            assert cluster.verify_consistency() == []
            assert cluster.nodes["n2"].counters["reseeds"] == 1
            assert any(entry["reason"].startswith("lagged")
                       for entry in cluster.reseed_log)
            # Falling behind is not divergence.
            assert cluster.divergences == 0
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Failover, fencing, divergence


class TestFailover:
    def test_kill_primary_promotes_most_caught_up(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            write_n(cluster, 10)
            cluster.pump_until_converged()
            old = cluster.kill_primary()
            cluster.pump(4)  # lease expires, election runs
            assert cluster.primary_name != old
            assert cluster.coordinator.epoch == 2
            assert cluster.primary_node.repl_epoch == 2
            # Writes resume against the new primary.
            write_n(cluster, 3, start=10)
            cluster.pump_until_converged()
            assert cluster.primary_node.lsn == 13
        finally:
            cluster.close()

    def test_old_primary_is_fenced_at_heal_and_rejoins(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            write_n(cluster, 6)
            cluster.pump_until_converged()
            old = cluster.kill_primary()
            cluster.pump(4)
            write_n(cluster, 4, start=6)
            cluster.heal()
            cluster.pump(1)
            # Back, fenced, and refusing writes before it can serve.
            with pytest.raises(PrimaryFenced):
                cluster.nodes[old].insert(
                    Triple(EX.zombie, RDF_TYPE, EX.Write))
            cluster.pump_until_converged()
            assert cluster.verify_consistency() == []
            assert cluster.nodes[old].repl_epoch == cluster.coordinator.epoch
        finally:
            cluster.close()

    def test_divergent_suffix_detected_and_reseeded(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            write_n(cluster, 8)
            cluster.pump_until_converged()
            old = cluster.primary_name
            cluster.partition(old)
            # The partitioned primary cannot be told it lost the lease:
            # it keeps accepting writes — a divergent suffix.
            cluster.nodes[old].insert(Triple(EX.splitbrain, RDF_TYPE,
                                             EX.Write))
            cluster.pump(4)  # lease expires; a follower takes over
            assert cluster.primary_name != old
            write_n(cluster, 3, start=8)
            cluster.heal()
            cluster.pump_until_converged()
            assert cluster.verify_consistency() == []
            assert cluster.divergences == 1
            assert any(entry["reason"].startswith("diverged")
                       for entry in cluster.reseed_log)
            # The split-brain write is gone everywhere.
            for node in cluster.nodes.values():
                assert (Triple(EX.splitbrain, RDF_TYPE, EX.Write)
                        not in node.durable.store.to_graph())
        finally:
            cluster.close()

    def test_promoted_follower_answers_like_the_old_primary(self, tmp_path):
        cluster = make_cluster(tmp_path, faults=FAULTY_LINKS)
        try:
            cluster.primary_node.load(tiny_graph())
            cluster.pump_until_converged()
            engines = ("columnar", "sqlite")

            def answers():
                return [
                    sorted(QueryAnswerer(cluster.primary_node.durable.store,
                                         engine=engine)
                           .answer(STUDENT_QUERY).answer)
                    for engine in engines
                ]

            before = answers()
            cluster.kill_primary()
            cluster.pump(4)
            assert answers() == before
            assert before[0] == before[1]
        finally:
            cluster.close()

    def test_epoch_survives_restart(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            write_n(cluster, 4)
            cluster.pump_until_converged()
            cluster.kill_primary()
            cluster.pump(4)
            assert cluster.coordinator.epoch == 2
            cluster.heal()
            cluster.pump_until_converged()
            name = cluster.primary_name
            epoch = cluster.nodes[name].repl_epoch
            cluster.nodes[name].kill()
            cluster.nodes[name].restart()
            # replica.meta carries the lineage across the restart.
            assert cluster.nodes[name].repl_epoch == epoch
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# The differential invariant, end to end


class TestDifferential:
    def test_chaos_schedule_converges_byte_identical(self, tmp_path):
        cluster = make_cluster(tmp_path, faults=FAULTY_LINKS)
        try:
            cluster.primary_node.load(tiny_graph())
            write_n(cluster, 10)
            cluster.kill_primary()
            cluster.pump(4)
            write_n(cluster, 6, start=10)
            victim = sorted(node.name for node in cluster.followers())[0]
            cluster.partition(victim)
            write_n(cluster, 6, start=16)
            cluster.heal()
            rounds = cluster.pump_until_converged()
            assert rounds < 200, "never converged"
            assert cluster.verify_consistency() == []
            crc = cluster.primary_node.state_crc()
            for node in cluster.followers():
                assert node.state_crc() == crc
        finally:
            cluster.close()

    def test_convergence_is_deterministic(self, tmp_path):
        outcomes = []
        for run in ("a", "b"):
            cluster = ReplicationCluster(
                str(tmp_path / run), ("n1", "n2", "n3"),
                seed=CHAOS_SEED, link_faults=FAULTY_LINKS)
            try:
                write_n(cluster, 15)
                spent = cluster.pump_until_converged()
                shipped = {
                    name: dict(link.counters)
                    for name, link in cluster.links.items()}
                outcomes.append(
                    (spent, cluster.primary_node.state_crc(), shipped))
            finally:
                cluster.close()
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Satellites: WAL end_offset, breaker cooldown surfacing


class TestWalEndOffset:
    def test_end_offset_is_absolute_for_sliced_reads(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.1"))
        offsets = [0]
        for index in range(3):
            wal.append(b"record-%d" % index)
            result = wal.read_from(0)
            offsets.append(result.end_offset)
        # Tail incrementally: each read resumes at the previous
        # end_offset and sees exactly the new record.
        cursor = 0
        seen = []
        for _ in range(3):
            result = wal.read_from(cursor)
            seen.extend(result.records)
            assert result.end_offset == cursor + result.valid_length
            cursor = result.end_offset
        assert seen == [b"record-0", b"record-1", b"record-2"]
        assert cursor == offsets[-1]

    def test_end_offset_with_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.1")
        wal = WriteAheadLog(path)
        wal.append(b"whole")
        good = wal.read_from(0).end_offset
        with open(path, "ab") as handle:
            handle.write(encode_record(b"torn-tail")[:-3])
        result = wal.read_from(good)
        assert result.truncated
        assert result.records == []
        # The valid prefix ends where the good bytes ended.
        assert result.end_offset == good

    def test_end_offset_past_end_and_missing_file(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.1"))
        wal.append(b"x")
        end = wal.read_from(0).end_offset
        assert wal.read_from(end + 100).end_offset == end + 100
        missing = WriteAheadLog(str(tmp_path / "nope.1"))
        assert missing.read_from(7).end_offset == 7


class TestBreakerCooldownSurfacing:
    def test_rejection_carries_cooldown_remaining(self):
        from repro.resilience.faults import FaultPlan
        from repro.service import AdmissionRejected, ServiceChaos

        clock = FakeClock(auto_advance=0.001)
        chaos = ServiceChaos(
            FaultPlan(seed=1, transient_rate=1.0), clock=clock, armed=True)
        service = QueryService(
            tiny_graph(),
            tenants=["solo"],
            clock=clock,
            chaos=chaos,
            breaker_threshold=1,
        )
        service.submit(QueryRequest("solo", STUDENT_QUERY))
        service.drain()  # the injected fault opens the breaker
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(QueryRequest("solo", STUDENT_QUERY))
        rejection = excinfo.value
        assert rejection.cooldown_remaining is not None
        assert rejection.cooldown_remaining > 0
        diagnostics = rejection.diagnostics()
        assert diagnostics["cooldown_remaining"] == \
            rejection.cooldown_remaining
        assert diagnostics["retry_after"] == rejection.retry_after
