"""The experiment registry: one entry per reproduced table/figure.

Mirrors DESIGN.md §4 programmatically, so the CLI can list experiments
and run the quick, assertion-free subset without pytest.  The full
measured suite stays in ``benchmarks/`` (pytest + pytest-benchmark).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class Experiment:
    """One experiment: identity, claim, bench target, optional quick run."""

    def __init__(
        self,
        identifier: str,
        claim: str,
        bench_file: str,
        quick: Optional[Callable[[], str]] = None,
    ):
        self.identifier = identifier
        self.claim = claim
        self.bench_file = bench_file
        self.quick = quick

    def __repr__(self) -> str:
        return "Experiment(%s)" % self.identifier


def _quick_e1() -> str:
    from ..datasets import example1_query, lubm_schema
    from ..reformulation import atom_reformulation_size, ucq_size

    schema = lubm_schema()
    query = example1_query()
    sizes = [atom_reformulation_size(atom, schema) for atom in query.atoms]
    total = ucq_size(query, schema)
    return (
        "per-atom alternatives: %s\nUCQ disjuncts: %d (paper: 318,096)"
        % (sizes, total)
    )


def _quick_e2() -> str:
    from ..core import QueryAnswerer, Strategy
    from ..datasets import example1_best_cover, example1_query, generate_lubm

    answerer = QueryAnswerer(generate_lubm(universities=2, seed=1))
    query = example1_query()
    scq = answerer.answer(query, Strategy.REF_SCQ)
    best = answerer.answer(
        query, Strategy.REF_JUCQ, cover=example1_best_cover(query)
    )
    return (
        "SCQ: %.0f ms, max intermediate %d rows\n"
        "best cover: %.0f ms, max intermediate %d rows"
        % (
            scq.elapsed_seconds * 1e3,
            scq.execution.max_intermediate_rows(),
            best.elapsed_seconds * 1e3,
            best.execution.max_intermediate_rows(),
        )
    )


def _quick_e6() -> str:
    from ..core import QueryAnswerer, Strategy
    from ..datasets import books_dataset

    graph, schema, query = books_dataset()
    answerer = QueryAnswerer(graph, schema)
    counts = {
        strategy.value: answerer.answer(query, strategy).cardinality
        for strategy in (
            Strategy.REF_UCQ,
            Strategy.REF_VIRTUOSO,
            Strategy.REF_ALLEGRO,
        )
    }
    return "books-example answer counts: %s" % counts


def _quick_e7() -> str:
    import time

    from ..datasets import generate_lubm
    from ..saturation import saturate

    graph = generate_lubm(universities=1, seed=1)
    start = time.perf_counter()
    saturated = saturate(graph)
    elapsed = (time.perf_counter() - start) * 1e3
    return (
        "saturation: %.0f ms, %d explicit -> %d total triples"
        % (elapsed, len(graph), len(saturated))
    )


def _quick_e12() -> str:
    from ..datasets import books_dataset
    from ..reformulation import reformulate
    from ..storage import SqliteBackend, TripleStore

    graph, schema, query = books_dataset()
    store = TripleStore.from_graph(graph)
    with SqliteBackend(store) as backend:
        answer = backend.run(reformulate(query, schema))
    return "SQLite answers the reformulated books query: %d row(s)" % len(answer)


def _quick_e13() -> str:
    import time

    from ..cache import QueryCache
    from ..core import QueryAnswerer, Strategy
    from ..datasets import generate_lubm, lubm_queries

    answerer = QueryAnswerer(
        generate_lubm(universities=1, seed=1), cache=QueryCache()
    )
    query = lubm_queries()["Q5"]

    def answer_ms() -> float:
        start = time.perf_counter()
        answerer.answer(query, Strategy.REF_GCOV)
        return (time.perf_counter() - start) * 1e3

    cold = answer_ms()
    warm = min(answer_ms() for _ in range(3))
    stats = answerer.cache.stats()
    return (
        "Q5 via REF_GCOV: cold %.1f ms, warm %.3f ms (%.0fx); "
        "answer tier %d hit(s) / %d miss(es)"
        % (
            cold,
            warm,
            cold / warm if warm > 0 else float("inf"),
            stats["answer"]["hits"],
            stats["answer"]["misses"],
        )
    )


def _quick_e14() -> str:
    from ..datasets import generate_lubm, lubm_queries, lubm_schema
    from ..federation import Endpoint, FederatedAnswerer
    from ..rdf import Graph
    from ..resilience import ChaosEndpoint, FakeClock, FaultPlan, RetryPolicy

    graph = generate_lubm(universities=1, seed=1, include_schema=False)
    shards = [Graph() for _ in range(3)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % 3].add(triple)
    clock = FakeClock()
    federation = FederatedAnswerer(
        [
            ChaosEndpoint(
                Endpoint("shard%d" % index, shard),
                FaultPlan(seed=index, transient_rate=0.3),
                clock=clock,
            )
            for index, shard in enumerate(shards)
        ],
        lubm_schema(),
        retry_policy=RetryPolicy(max_attempts=3, seed=0),
        breaker_threshold=3,
        clock=clock,
    )
    answer = federation.answer(lubm_queries()["Q13"])
    return (
        "Q13 under 30%% transient chaos: %d row(s), %s, %d retr%s, "
        "%d simulated sleep(s)"
        % (
            answer.cardinality,
            "complete" if answer.complete else "partial",
            answer.report.total_retries(),
            "y" if answer.report.total_retries() == 1 else "ies",
            len(clock.sleeps),
        )
    )


def _quick_e15() -> str:
    import shutil
    import tempfile
    import time

    from ..datasets import generate_lubm, lubm_schema
    from ..durability import DurableStore, recover
    from ..storage import TripleStore

    graph = generate_lubm(universities=1, seed=1, include_schema=False)
    schema = lubm_schema()
    start = time.perf_counter()
    TripleStore.from_graph(graph, schema)
    memory = time.perf_counter() - start
    directory = tempfile.mkdtemp(prefix="e15-quick-")
    try:
        durable = DurableStore.open(directory, sync="never")
        start = time.perf_counter()
        records = durable.load(graph, schema)
        loaded = time.perf_counter() - start
        durable.checkpoint()
        durable.close()
        start = time.perf_counter()
        result = recover(directory)
        recovered = time.perf_counter() - start
        return (
            "%d WAL record(s): durable load %.0f ms (%.2fx in-memory), "
            "checkpoint recovery %.0f ms, %d triple(s) back"
            % (
                records,
                loaded * 1e3,
                loaded / memory if memory > 0 else float("inf"),
                recovered * 1e3,
                result.store.triple_count,
            )
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _quick_e17() -> str:
    import time

    from ..datasets import generate_lubm, lubm_queries, lubm_schema
    from ..federation import Endpoint, FederatedAnswerer
    from ..rdf import Graph
    from ..resilience import ChaosEndpoint, FaultPlan

    graph = generate_lubm(universities=1, seed=1, include_schema=False)
    query = lubm_queries()["Q2"]

    def timed(parallelism: int):
        shards = [Graph() for _ in range(4)]
        for index, triple in enumerate(sorted(graph.data_triples())):
            shards[index % 4].add(triple)
        answerer = FederatedAnswerer(
            [
                ChaosEndpoint(
                    Endpoint("shard%d" % index, shard),
                    FaultPlan(
                        seed=index, latency_rate=1.0, latency_seconds=0.02
                    ),
                )
                for index, shard in enumerate(shards)
            ],
            lubm_schema(),
            parallelism=parallelism,
        )
        start = time.perf_counter()
        result = answerer.answer(query)
        return time.perf_counter() - start, result

    serial_seconds, serial = timed(1)
    parallel_seconds, parallel = timed(4)
    assert serial.rows == parallel.rows
    return (
        "Q2 over 4 endpoints at 20 ms injected latency: "
        "serial %.0f ms, 4 workers %.0f ms (%.1fx), %d row(s) either way"
        % (
            serial_seconds * 1e3,
            parallel_seconds * 1e3,
            serial_seconds / parallel_seconds,
            parallel.cardinality,
        )
    )


def _quick_e18() -> str:
    from ..datasets import generate_lubm, lubm_queries
    from ..resilience.clock import FakeClock
    from ..service import (
        AdmissionRejected,
        QueryRequest,
        QueryService,
        TenantConfig,
    )

    graph = generate_lubm(universities=1, seed=1)
    query = lubm_queries()["Q1"]
    service = QueryService(
        graph,
        tenants=[
            TenantConfig("gold", weight=3, queue_depth=2),
            TenantConfig("bronze", weight=1, queue_depth=2),
        ],
        capacity=1,
        clock=FakeClock(auto_advance=0.001),
    )
    for _ in range(5):  # oversubscribe both queues, then drain
        for tenant in ("gold", "bronze"):
            for _burst in range(2):
                try:
                    service.submit(QueryRequest(tenant, query))
                except AdmissionRejected:
                    pass
        service.step()
    service.drain()
    summary = service.describe()
    return (
        "closed loop over 2 tenants (weights 3:1, depth 2): %d submitted, "
        "%d completed, shed rate %.2f, p95 latency %.0f ms (simulated)"
        % (
            summary["submitted"],
            summary["completed"],
            summary["shed_rate"],
            summary["latency"]["p95"] * 1e3,
        )
    )


def _quick_e19() -> str:
    from ..datasets import generate_lubm, lubm_queries
    from ..rdf import Namespace, RDF_TYPE, Triple
    from ..resilience.clock import FakeClock
    from ..resilience.faults import FaultPlan
    from ..service import (
        LEVEL_NAMES,
        QueryRequest,
        QueryService,
        ServiceChaos,
        TenantConfig,
    )

    graph = generate_lubm(universities=1, seed=1)
    query = lubm_queries()["Q1"]
    clock = FakeClock(auto_advance=0.001)
    chaos = ServiceChaos(
        FaultPlan(seed=7, transient_rate=1.0), clock=clock, armed=False
    )
    service = QueryService(
        graph,
        tenants=[TenantConfig("gold", queue_depth=4)],
        clock=clock,
        brownout=True,
        chaos=chaos,
        breaker_threshold=0,
    )

    def round_trip() -> None:
        service.submit(QueryRequest("gold", query))
        service.step()

    round_trip()  # warm the cache partition
    noise = Namespace("http://example.org/e19-noise/")
    service.insert(Triple(noise["visitor"], RDF_TYPE, noise.Visitor))
    chaos.arm()  # every compute (and refresh) now fails...
    for _ in range(4):
        round_trip()  # ...so the ladder climbs to stale-serving
    chaos.disarm()
    for _ in range(10):
        round_trip()  # refreshes succeed; the ladder walks back down
    service.drain()
    summary = service.describe()
    return (
        "1 tenant under a total transient fault: %d/%d completed "
        "(%d stale serve(s), %d failed), ladder peaked at %s, "
        "final level %s"
        % (
            summary["completed"],
            summary["submitted"],
            summary["stale_serves"],
            summary["failed"],
            LEVEL_NAMES[
                max(t["to"] for t in summary["health"]["brownout"]["transitions"])
            ],
            summary["health"]["brownout"]["level_name"],
        )
    )


def _quick_e20() -> str:
    import shutil
    import tempfile

    from ..rdf import Namespace, RDF_TYPE, Triple
    from ..replication import ReplicationCluster

    directory = tempfile.mkdtemp(prefix="repro-quick-e20-")
    ex = Namespace("http://example.org/quick-e20/")
    cluster = ReplicationCluster(
        directory, ("n1", "n2", "n3"), seed=7,
        link_faults={"drop_rate": 0.2, "duplicate_rate": 0.1,
                     "tear_rate": 0.1},
    )
    try:
        for index in range(12):
            cluster.primary_node.insert(
                Triple(ex["s%d" % index], RDF_TYPE, ex.Entity))
            cluster.pump(1)
        cluster.kill_primary()
        cluster.pump(4)  # lease expires; a follower is promoted
        for index in range(12, 18):
            cluster.primary_node.insert(
                Triple(ex["s%d" % index], RDF_TYPE, ex.Entity))
            cluster.pump(1)
        cluster.heal()
        spent = cluster.pump_until_converged()
        problems = cluster.verify_consistency()
        return (
            "3-node cluster over lossy links: kill-primary -> epoch %d, "
            "heal + %d round(s) -> %s (lsn %d everywhere, %d reseed(s))"
            % (
                cluster.coordinator.epoch,
                spent,
                "converged" if not problems else "; ".join(problems),
                cluster.primary_node.lsn,
                len(cluster.reseed_log),
            )
        )
    finally:
        cluster.close()
        shutil.rmtree(directory, ignore_errors=True)


def _quick_e21() -> str:
    from ..core import QueryAnswerer, Strategy
    from ..datasets import example1_query, generate_lubm
    from ..query import Cover

    graph = generate_lubm(universities=1, seed=1)
    query = example1_query()
    cover = Cover.per_atom(query)
    reports = {
        engine: QueryAnswerer(graph, engine=engine).answer(
            query, Strategy.REF_JUCQ, cover=cover)
        for engine in ("materialized", "columnar")
    }
    rm, rc = reports["materialized"], reports["columnar"]
    return (
        "SCQ cover, %d answer row(s), both engines %s\n"
        "materialized: %.0f ms, peak %d rows held\n"
        "columnar:     %.0f ms, peak %d rows buffered"
        % (
            rm.cardinality,
            "identical" if rm.answer == rc.answer else "DIVERGED",
            rm.elapsed_seconds * 1e3,
            rm.execution.max_intermediate_rows(),
            rc.elapsed_seconds * 1e3,
            rc.execution.peak_buffered_rows,
        )
    )


def _quick_e22() -> str:
    from ..core import QueryAnswerer, Strategy
    from ..datasets import example1_query, generate_lubm
    from ..query import Cover

    graph = generate_lubm(universities=1, seed=1)
    query = example1_query()
    cover = Cover.per_atom(query)
    classic = QueryAnswerer(graph, engine="columnar").answer(
        query, Strategy.REF_JUCQ, cover=cover
    )
    encoded = QueryAnswerer(
        graph, engine="columnar", interval_encoding=True
    ).answer(query, Strategy.REF_JUCQ, cover=cover)
    identical = classic.answer == encoded.answer
    stats = encoded.details["interval"]
    return (
        "SCQ cover, %d answer row(s), classic vs interval %s\n"
        "classic columnar:  %.0f ms\n"
        "interval columnar: %.0f ms — %d interval atom(s) collapsing "
        "%d union branch(es)"
        % (
            classic.cardinality,
            "identical" if identical else "DIVERGED",
            classic.elapsed_seconds * 1e3,
            encoded.elapsed_seconds * 1e3,
            stats["interval_atoms"],
            stats["branches_collapsed"],
        )
    )


EXPERIMENTS: List[Experiment] = [
    Experiment("E1", "Example 1's UCQ reformulation blow-up and parse failure",
               "benchmarks/bench_e1_reformulation_size.py", _quick_e1),
    Experiment("E2", "SCQ vs the paper's best cover: intermediate results and time",
               "benchmarks/bench_e2_example1_covers.py", _quick_e2),
    Experiment("E3", "Strategy matrix across the LUBM workload",
               "benchmarks/bench_e3_strategies.py"),
    Experiment("E4", "The three backend profiles",
               "benchmarks/bench_e4_backends.py"),
    Experiment("E5", "The Dat (Datalog) alternative",
               "benchmarks/bench_e5_datalog.py"),
    Experiment("E6", "Completeness of fixed commercial strategies",
               "benchmarks/bench_e6_completeness.py", _quick_e6),
    Experiment("E7", "The Sat maintenance penalty",
               "benchmarks/bench_e7_maintenance.py", _quick_e7),
    Experiment("E8", "Cost-model introspection over the cover space",
               "benchmarks/bench_e8_cost_model.py"),
    Experiment("E9", "Impact of constraint/query modifications",
               "benchmarks/bench_e9_schema_impact.py"),
    Experiment("E10", "Dataset statistics panels",
               "benchmarks/bench_e10_statistics.py"),
    Experiment("E11", "Distributed endpoints: Sat infeasible, Ref complete",
               "benchmarks/bench_e11_federation.py"),
    Experiment("E12", "Validation on a genuine RDBMS (SQLite)",
               "benchmarks/bench_e12_real_rdbms.py", _quick_e12),
    Experiment("E13", "Amortized answering: the reformulation & answer cache",
               "benchmarks/bench_e13_cache.py", _quick_e13),
    Experiment("E14", "Resilience: fault-injected federation, graceful degradation",
               "benchmarks/bench_e14_resilience.py", _quick_e14),
    Experiment("E15", "Durability: WAL overhead and checkpointed recovery time",
               "benchmarks/bench_e15_durability.py", _quick_e15),
    Experiment("E17", "Federation fan-out: per-endpoint fetches overlap latency",
               "benchmarks/bench_e17_parallel.py", _quick_e17),
    Experiment("E18", "Multi-tenant serving: shed rate and latency under load",
               "benchmarks/bench_e18_service.py", _quick_e18),
    Experiment("E19", "Degraded-mode serving: availability through a fault window",
               "benchmarks/bench_e19_degraded.py", _quick_e19),
    Experiment("E20", "Replicated serving: availability through a primary crash",
               "benchmarks/bench_e20_replication.py", _quick_e20),
    Experiment("E21", "Columnar vs materialized engine: time and peak rows at scale",
               "benchmarks/bench_e21_columnar.py", _quick_e21),
    Experiment("E22", "Hierarchy-aware interval encoding: unions as range scans",
               "benchmarks/bench_e22_interval.py", _quick_e22),
    Experiment("A1", "Ablation: exact statistics vs textbook uniformity",
               "benchmarks/bench_a1_statistics_ablation.py"),
    Experiment("A2", "Ablation: UCQ subsumption pruning",
               "benchmarks/bench_a2_pruning_ablation.py"),
    Experiment("A3", "Ablation: greedy GCov vs beam search",
               "benchmarks/bench_a3_search_ablation.py"),
    Experiment("A4", "Ablation: characteristic sets vs textbook star estimates",
               "benchmarks/bench_a4_charsets_ablation.py"),
]


def experiment_index() -> Dict[str, Experiment]:
    return {experiment.identifier: experiment for experiment in EXPERIMENTS}
