"""E20 — replicated serving: availability and staleness under a kill/partition schedule.

The robustness claim: a WAL-shipping cluster behind the replica-aware
front door *serves through* a primary crash — reads keep flowing to
bounded-staleness followers while the failover coordinator elects and
promotes the most-caught-up follower, and writes resume against the
new primary after one lease — whereas a single-node deployment loses
every read and write until the node is restarted and recovered.

One deterministic schedule, run against both topologies with the same
seeds, the same fake clock, and the same per-round operation mix
(writes of noise triples that no query matches + one catalog read per
tenant):

* a **warm** prefix loads the dataset and lets the followers catch up;
* at ``kill_round`` the primary (or the single node) crashes;
* at ``partition_round`` one follower is cut off (replicated only —
  it must stop serving bounded reads once its lag exceeds the bound);
* at ``heal_round`` everything is mended: the dead node restarts and
  recovers, partitions lift, and divergent followers reseed.

Availability = successful operations / attempted operations (reads
and writes attempted every round in both runs).  The assertions
written into ``BENCH_E20.json`` and enforced here and in CI:

1. availability(replicated) strictly exceeds availability(single);
2. every completed read — fresh or flagged stale — equals the fixed
   ground truth (the noise writes match no query, so staleness may
   delay nothing observable; correctness must be exact);
3. every read served by a lagging follower is flagged with its lag,
   and while a primary is alive the lag respects the tenant's bound;
4. after heal the cluster converges: every live follower is
   byte-identical to the primary (checkpoint-encoding fingerprints).

Runs two ways: under pytest with the rest of benchmarks/, and as a CI
smoke script (``python benchmarks/bench_e20_replication.py --quick``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_REPO_ROOT = os.path.dirname(_SRC)

from repro.bench import format_table, write_json_report
from repro.query import parse_query
from repro.rdf import Graph, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple
from repro.replication import PrimaryFenced, ReplicaRouter, ReplicationCluster
from repro.resilience.clock import FakeClock
from repro.service import DONE, QueryRequest, QueryService, TenantConfig

#: The CI chaos-matrix seed convention (same as the resilience tests).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

EX = Namespace("http://example.org/e20/")
NOISE = Namespace("http://example.org/e20-noise/")

STUDENT_QUERY = "SELECT ?x WHERE { ?x rdf:type <http://example.org/e20/Student> }"

#: Tenant staleness bounds in LSNs (both opt in to replica reads).
TENANTS = (("gold", 2, 4), ("bronze", 1, 4))

#: Link fault rates for the replicated run — the catch-up path must
#: work under loss, reordering, duplication, and torn frames.
LINK_FAULTS = {
    "drop_rate": 0.10,
    "duplicate_rate": 0.05,
    "delay_rate": 0.05,
    "delay_rounds": 2,
    "tear_rate": 0.05,
}


def build_dataset(students: int = 24) -> Graph:
    """A small subclass hierarchy: half the individuals are typed by a
    subclass, so reformulation (not raw matching) produces the fixed
    ground truth."""
    graph = Graph()
    graph.add(Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student))
    for index in range(students):
        klass = EX.Grad if index % 2 else EX.Student
        graph.add(Triple(EX["s%d" % index], RDF_TYPE, klass))
    return graph


def ground_truth(students: int = 24) -> List[tuple]:
    """The fixed answer set, in the answerer's row shape (1-tuples)."""
    return sorted((EX["s%d" % index],) for index in range(students))


class Schedule:
    """The shared chaos schedule, in service rounds."""

    def __init__(self, rounds: int, kill_round: int, partition_round: int,
                 heal_round: int):
        if not kill_round < partition_round < heal_round < rounds:
            raise ValueError("schedule must order kill < partition < heal "
                             "< rounds")
        self.rounds = rounds
        self.kill_round = kill_round
        self.partition_round = partition_round
        self.heal_round = heal_round

    def as_dict(self) -> Dict[str, int]:
        return {
            "rounds": self.rounds,
            "kill_round": self.kill_round,
            "partition_round": self.partition_round,
            "heal_round": self.heal_round,
        }


def run_replicated(schedule: Schedule, *, students: int = 24,
                   seed: int = CHAOS_SEED, engine: str = "builtin") -> Dict:
    """The replicated topology: three nodes, faulty links, the service
    reading through :class:`ReplicaRouter` bounded-staleness routing."""
    graph = build_dataset(students)
    truth = ground_truth(students)
    query = parse_query(STUDENT_QUERY)
    directory = tempfile.mkdtemp(prefix="repro-e20-")
    wall_start = time.perf_counter()
    cluster = ReplicationCluster(
        directory, ("n1", "n2", "n3"), seed=seed, link_faults=LINK_FAULTS,
        lease_seconds=3.0,
    )
    try:
        cluster.primary_node.load(graph)
        cluster.pump_until_converged()
        router = ReplicaRouter(cluster)
        service = QueryService(
            graph,
            tenants=[TenantConfig(name, weight=weight, replica_max_lag=bound)
                     for name, weight, bound in TENANTS],
            clock=FakeClock(auto_advance=0.001),
            engine=engine,
            replicas=router,
        )
        reads = writes = read_failures = write_failures = 0
        stale_reads = 0
        bound_violations = 0
        wrong_answers = 0
        max_lag_seen = 0
        tickets = []
        for round_index in range(schedule.rounds):
            if round_index == schedule.kill_round:
                cluster.kill_primary()
            if round_index == schedule.partition_round:
                cluster.partition(sorted(
                    node.name for node in cluster.followers())[0])
            if round_index == schedule.heal_round:
                cluster.heal()
            writes += 1
            try:
                service.insert(Triple(NOISE["w%d" % round_index], RDF_TYPE,
                                      NOISE.Write))
            except PrimaryFenced:
                write_failures += 1
            round_tickets = []
            for name, _weight, _bound in TENANTS:
                reads += 1
                round_tickets.append(service.submit(
                    QueryRequest(name, query)))
            primary_alive_at_serve = cluster.primary_node.alive
            service.step()
            service.drain()
            for ticket in round_tickets:
                if ticket.status != DONE:
                    read_failures += 1
                    continue
                if sorted(ticket.answer) != truth:
                    wrong_answers += 1
                replica = ticket.report.details.get("replica")
                if replica and replica["lag"] > 0:
                    stale_reads += 1
                    max_lag_seen = max(max_lag_seen, replica["lag"])
                    bound = next(b for n, _w, b in TENANTS
                                 if n == ticket.request.tenant)
                    if primary_alive_at_serve and replica["lag"] > bound:
                        bound_violations += 1
            tickets.extend(round_tickets)
        converge_rounds = cluster.pump_until_converged()
        problems = cluster.verify_consistency()
        attempted = reads + writes
        failures = read_failures + write_failures
        return {
            "topology": "replicated",
            "attempted": attempted,
            "reads": reads,
            "writes": writes,
            "read_failures": read_failures,
            "write_failures": write_failures,
            "availability": (attempted - failures) / attempted,
            "stale_reads": stale_reads,
            "max_lag_seen": max_lag_seen,
            "bound_violations": bound_violations,
            "wrong_answers": wrong_answers,
            "final_epoch": cluster.coordinator.epoch,
            "elections": cluster.coordinator.elections,
            "reseeds": len(cluster.reseed_log),
            "divergences": cluster.divergences,
            "converge_rounds": converge_rounds,
            "consistency_problems": problems,
            "router": router.status(),
            "wall_seconds": time.perf_counter() - wall_start,
        }
    finally:
        cluster.close()
        shutil.rmtree(directory, ignore_errors=True)


def run_single(schedule: Schedule, *, students: int = 24,
               seed: int = CHAOS_SEED, engine: str = "builtin") -> Dict:
    """The baseline: one durable node, no replicas.  While it is down
    every read and write fails; at heal it restarts and recovers."""
    from repro.replication.node import ReplicaNode

    graph = build_dataset(students)
    truth = ground_truth(students)
    query = parse_query(STUDENT_QUERY)
    directory = tempfile.mkdtemp(prefix="repro-e20-solo-")
    wall_start = time.perf_counter()
    node = ReplicaNode("solo", os.path.join(directory, "solo"))
    node.promote(1)
    try:
        node.load(graph)
        reads = writes = read_failures = write_failures = 0
        wrong_answers = 0
        for round_index in range(schedule.rounds):
            if round_index == schedule.kill_round:
                node.kill()
            if round_index == schedule.heal_round:
                node.restart()
                node.promote(1)
            writes += 1
            try:
                node.insert(Triple(NOISE["w%d" % round_index], RDF_TYPE,
                                   NOISE.Write))
            except PrimaryFenced:
                write_failures += 1
            for _name, _weight, _bound in TENANTS:
                reads += 1
                if not node.alive:
                    read_failures += 1
                    continue
                result = node.reader(engine).answer(query)
                if sorted(result.answer) != truth:
                    wrong_answers += 1
        attempted = reads + writes
        failures = read_failures + write_failures
        return {
            "topology": "single",
            "attempted": attempted,
            "reads": reads,
            "writes": writes,
            "read_failures": read_failures,
            "write_failures": write_failures,
            "availability": (attempted - failures) / attempted,
            "stale_reads": 0,
            "max_lag_seen": 0,
            "bound_violations": 0,
            "wrong_answers": wrong_answers,
            "wall_seconds": time.perf_counter() - wall_start,
        }
    finally:
        if node.alive:
            node.durable.close()
        shutil.rmtree(directory, ignore_errors=True)


def run_comparison(schedule: Schedule, *, students: int = 24,
                   seed: int = CHAOS_SEED,
                   engine: str = "builtin") -> Dict[str, Dict]:
    return {
        "replicated": run_replicated(schedule, students=students, seed=seed,
                                     engine=engine),
        "single": run_single(schedule, students=students, seed=seed,
                             engine=engine),
    }


def emit_report(results: Dict[str, Dict], schedule: Schedule) -> str:
    rows = [
        [
            payload["topology"],
            payload["attempted"],
            payload["read_failures"],
            payload["write_failures"],
            "%.3f" % payload["availability"],
            payload["stale_reads"],
            payload["max_lag_seen"],
            payload.get("final_epoch", "-"),
            payload.get("reseeds", "-"),
        ]
        for payload in results.values()
    ]
    return format_table(
        ["topology", "ops", "rfail", "wfail", "availability", "stale",
         "max lag", "epoch", "reseeds"],
        rows,
        title="E20: replicated vs single-node serving under kill at r%d, "
              "partition at r%d, heal at r%d (seed %d)"
              % (schedule.kill_round, schedule.partition_round,
                 schedule.heal_round, CHAOS_SEED),
    )


def check_results(results: Dict[str, Dict]) -> List[str]:
    """The acceptance criteria as a list of failure messages."""
    replicated = results["replicated"]
    single = results["single"]
    problems = []
    if not replicated["availability"] > single["availability"]:
        problems.append(
            "replicated availability (%.3f) does not strictly exceed "
            "single-node (%.3f)"
            % (replicated["availability"], single["availability"]))
    for payload in results.values():
        if payload["wrong_answers"]:
            problems.append(
                "%s: %d answer(s) diverged from ground truth"
                % (payload["topology"], payload["wrong_answers"]))
    if replicated["bound_violations"]:
        problems.append(
            "%d replica read(s) exceeded the tenant staleness bound "
            "while a primary was alive" % replicated["bound_violations"])
    if replicated["consistency_problems"]:
        problems.append(
            "cluster did not converge after heal: %s"
            % "; ".join(replicated["consistency_problems"]))
    if replicated["final_epoch"] < 2:
        problems.append("the kill never caused a failover (epoch still %d)"
                        % replicated["final_epoch"])
    if replicated["read_failures"]:
        problems.append(
            "%d replicated read(s) failed — follower routing should have "
            "covered the crash window" % replicated["read_failures"])
    return problems


# ---------------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)


def _default_schedule(quick: bool = False) -> Schedule:
    if quick:
        return Schedule(rounds=20, kill_round=5, partition_round=10,
                        heal_round=14)
    return Schedule(rounds=36, kill_round=8, partition_round=18,
                    heal_round=26)


def test_replication_strictly_improves_availability():
    results = run_comparison(_default_schedule(quick=True))
    assert not check_results(results), check_results(results)


def test_replicated_run_is_deterministic():
    schedule = _default_schedule(quick=True)
    first = run_replicated(schedule)
    second = run_replicated(schedule)
    for key in ("availability", "stale_reads", "read_failures",
                "write_failures", "final_epoch", "reseeds"):
        assert first[key] == second[key]


# ---------------------------------------------------------------------------
# script entry point (CI smoke: python benchmarks/bench_e20_replication.py --quick)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short schedule; assert the availability, ground-truth, "
             "staleness-bound and convergence criteria",
    )
    parser.add_argument("--students", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument(
        "--engine", default="builtin",
        choices=["builtin", "materialized"],
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_E20.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)
    schedule = _default_schedule(quick=args.quick)
    if args.rounds:
        schedule = Schedule(rounds=args.rounds,
                            kill_round=args.rounds // 4,
                            partition_round=args.rounds // 2,
                            heal_round=(args.rounds * 3) // 4)
    results = run_comparison(schedule, students=args.students,
                             engine=args.engine)
    print(emit_report(results, schedule))
    problems = check_results(results)
    payload = {
        "experiment": "E20",
        "claim": "WAL-shipping replication with failover serves reads "
                 "through a primary crash within bounded staleness and "
                 "strictly beats single-node availability; after heal "
                 "every follower is byte-identical to the primary",
        "chaos_seed": CHAOS_SEED,
        "engine": args.engine,
        "schedule": schedule.as_dict(),
        "link_faults": LINK_FAULTS,
        "scenarios": results,
        "assertions": {
            "availability_strictly_improved": (
                results["replicated"]["availability"]
                > results["single"]["availability"]
            ),
            "answers_exact": all(
                r["wrong_answers"] == 0 for r in results.values()
            ),
            "staleness_bound_respected": (
                results["replicated"]["bound_violations"] == 0
            ),
            "converged_after_heal": (
                not results["replicated"]["consistency_problems"]
            ),
            "problems": problems,
        },
    }
    written = write_json_report(args.output, payload)
    print("\nwrote %s" % written)
    for problem in problems:
        print("FAIL: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
