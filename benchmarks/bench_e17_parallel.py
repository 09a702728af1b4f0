"""E17 — intra-query parallelism: fragment and federation fan-out.

The parallel subsystem's claim: work that *waits* — fragment queries
round-tripping to a backend RDBMS, per-endpoint federation requests —
overlaps on the shared worker pool instead of summing, while the
answers stay identical to the serial run.  Two legs, both on
Example 1:

* **Fragment leg** — the paper's best cover splits Example 1 into four
  fragments, each a UCQ the deployed system ships to its RDBMS.  A
  simulated backend answers each fragment after a fixed round-trip
  latency (a real ``time.sleep``, so the GIL is released exactly as a
  socket wait would release it); fragments are fetched serially vs on
  the pool, then joined and projected identically.

* **Federation leg** — the dataset sharded over four endpoints behind
  :class:`~repro.resilience.faults.ChaosEndpoint` latency injection on
  the system clock; :class:`~repro.federation.client.FederatedAnswerer`
  runs with ``parallelism`` 1 vs N.

Pure-Python CPU work gains nothing from threads (the GIL serializes
it); E17 deliberately measures the latency-bound shape where the pool
pays off — see DESIGN.md §12 for when parallelism helps vs hurts.

Runs two ways: under pytest alongside the other benchmarks, and as a
script (``python benchmarks/bench_e17_parallel.py --quick``) for CI
smoke.  The script asserts the ≥2x speedup at 4 workers on both legs,
checks byte-identical sorted answers, and writes ``BENCH_E17.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_REPO_ROOT = os.path.dirname(_SRC)

from repro.bench import format_table, write_json_report
from repro.datasets import (
    example1_best_cover,
    example1_query,
    generate_lubm,
    lubm_queries,
    lubm_schema,
)
from repro.query.evaluation import join_relations
from repro.federation import Endpoint, FederatedAnswerer
from repro.parallel import ExecutorPool
from repro.query import Variable
from repro.query.evaluation import evaluate_ucq
from repro.rdf import Graph
from repro.reformulation import jucq_for_cover
from repro.resilience.faults import ChaosEndpoint, FaultPlan

WORKER_SWEEP = (1, 2, 4)
FRAGMENT_LATENCY = 0.075  # simulated per-fragment RDBMS round-trip
ENDPOINT_LATENCY = 0.050  # injected per-request endpoint latency


def canonical_bytes(rows) -> bytes:
    """The byte-identity witness: sorted rows, one per line."""
    lines = [
        "|".join(term.lexical() for term in row) for row in sorted(rows)
    ]
    return "\n".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# Fragment leg


class SimulatedFragmentBackend:
    """Answers one fragment UCQ after a fixed round-trip latency.

    Stands in for the paper's deployment where each fragment query runs
    on a backend RDBMS: the sleep models the round trip (and releases
    the GIL, like the socket wait it simulates); the evaluation itself
    is the reference evaluator over the shared graph.
    """

    def __init__(self, graph: Graph, latency_seconds: float):
        self.graph = graph
        self.latency_seconds = latency_seconds

    def fetch(self, union) -> Set[Tuple]:
        if self.latency_seconds > 0:
            time.sleep(self.latency_seconds)
        return set(evaluate_ucq(self.graph, union))


def evaluate_fragments(
    jucq, backend: SimulatedFragmentBackend, pool: Optional[ExecutorPool]
):
    """Fetch every fragment (serially or on the pool), then join and
    project — the join/projection phase is serial and identical in both
    modes, so any answer difference would be the fan-out's fault."""
    if pool is not None and pool.usable():
        fragment_rows = pool.map(backend.fetch, list(jucq.fragments))
    else:
        fragment_rows = [backend.fetch(union) for union in jucq.fragments]
    schema: Optional[Tuple] = None
    rows: Set[Tuple] = set()
    for head, fetched in zip(jucq.fragment_heads, fragment_rows):
        if schema is None:
            schema, rows = tuple(head), fetched
        else:
            schema, rows = join_relations(schema, rows, tuple(head), fetched)
    positions = {}
    for index, item in enumerate(schema or ()):
        if isinstance(item, Variable) and item not in positions:
            positions[item] = index
    projected: Set[Tuple] = set()
    for row in rows:
        projected.add(
            tuple(
                row[positions[item]] if isinstance(item, Variable) else item
                for item in jucq.head
            )
        )
    return frozenset(projected)


def run_fragment_leg(
    graph: Graph,
    latency_seconds: float = FRAGMENT_LATENCY,
    workers: Sequence[int] = WORKER_SWEEP,
) -> Dict:
    """Example 1 through the paper's best cover, serial vs pool."""
    query = example1_query()
    cover = example1_best_cover(query)
    schema = lubm_schema()
    jucq = jucq_for_cover(cover, schema)
    backend = SimulatedFragmentBackend(graph, latency_seconds)
    timings: Dict[int, float] = {}
    baseline_bytes = None
    for count in workers:
        pool = ExecutorPool(count) if count > 1 else None
        try:
            start = time.perf_counter()
            answer = evaluate_fragments(jucq, backend, pool)
            timings[count] = time.perf_counter() - start
        finally:
            if pool is not None:
                pool.close()
        encoded = canonical_bytes(answer)
        if baseline_bytes is None:
            baseline_bytes = encoded
            cardinality = len(answer)
        assert encoded == baseline_bytes, (
            "fragment leg: answers diverged at %d workers" % count
        )
    return {
        "latency_seconds": latency_seconds,
        "fragments": jucq.fragment_count(),
        "rows": cardinality,
        "seconds_by_workers": {str(count): timings[count] for count in workers},
        "speedup_at_max": timings[workers[0]] / timings[workers[-1]],
        "identical_answers": True,
    }


# ---------------------------------------------------------------------------
# Federation leg


def build_federation(
    graph: Graph, endpoints: int, latency_seconds: float, parallelism: int
) -> FederatedAnswerer:
    shards = [Graph() for _ in range(endpoints)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % endpoints].add(triple)
    sources = [
        ChaosEndpoint(
            Endpoint("shard%d" % index, shard),
            FaultPlan(
                seed=index,
                latency_rate=1.0,
                latency_seconds=latency_seconds,
            ),
        )
        for index, shard in enumerate(shards)
    ]
    return FederatedAnswerer(sources, lubm_schema(), parallelism=parallelism)


def run_federation_leg(
    graph: Graph,
    latency_seconds: float = ENDPOINT_LATENCY,
    endpoints: int = 4,
    workers: Sequence[int] = WORKER_SWEEP,
) -> Dict:
    """LUBM Q2 (six atoms, so 6x4 endpoint requests) over a sharded
    federation, endpoint latency injected on the system clock (real
    sleeps, overlapping only under the pool).  Q2 rather than Example 1
    because this leg isolates *request* overlap: Q2's per-endpoint
    evaluation is milliseconds, so the injected round trips dominate —
    Example 1's open type atoms would instead measure GIL-serialized
    local evaluation."""
    query = lubm_queries()["Q2"]
    timings: Dict[int, float] = {}
    baseline_bytes = None
    for count in workers:
        answerer = build_federation(graph, endpoints, latency_seconds, count)
        start = time.perf_counter()
        result = answerer.answer(query)
        timings[count] = time.perf_counter() - start
        assert result.complete
        encoded = canonical_bytes(result.rows)
        if baseline_bytes is None:
            baseline_bytes = encoded
            cardinality = result.cardinality
            requests = result.requests
        assert encoded == baseline_bytes, (
            "federation leg: answers diverged at %d workers" % count
        )
        assert result.requests == requests, (
            "federation leg: request accounting diverged at %d workers" % count
        )
    return {
        "latency_seconds": latency_seconds,
        "endpoints": endpoints,
        "requests": requests,
        "rows": cardinality,
        "seconds_by_workers": {str(count): timings[count] for count in workers},
        "speedup_at_max": timings[workers[0]] / timings[workers[-1]],
        "identical_answers": True,
    }


def emit_report(results: Dict[str, Dict]) -> str:
    rows: List[List[object]] = []
    for leg, payload in results.items():
        timings = payload["seconds_by_workers"]
        for count in sorted(timings, key=int):
            rows.append(
                [
                    leg,
                    count,
                    "%.1f" % (timings[count] * 1e3),
                    "%.2fx" % (timings["1"] / timings[count]),
                    payload["rows"],
                ]
            )
    return format_table(
        ["leg", "workers", "ms", "speedup", "answer rows"],
        rows,
        title="E17: intra-query parallelism (latency-bound fan-out)",
    )


# ---------------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)


def test_fragment_leg_identical_answers(lubm_graph):
    result = run_fragment_leg(
        lubm_graph, latency_seconds=0.005, workers=(1, 4)
    )
    assert result["identical_answers"]
    assert result["rows"] > 0
    assert result["fragments"] == 4


def test_federation_leg_identical_answers(lubm_graph):
    result = run_federation_leg(
        lubm_graph, latency_seconds=0.005, endpoints=4, workers=(1, 4)
    )
    assert result["identical_answers"]
    assert result["rows"] > 0


def test_fragment_fanout_overlaps_latency(lubm_graph):
    """Four 50 ms round trips serially cost ≥200 ms; on four workers
    they overlap.  Generous margin: assert any overlap at all, the
    precise ≥2x criterion is the script's (CI smoke) assertion."""
    result = run_fragment_leg(
        lubm_graph, latency_seconds=0.05, workers=(1, 4)
    )
    assert result["speedup_at_max"] > 1.2


# ---------------------------------------------------------------------------
# script entry point (CI smoke: python benchmarks/bench_e17_parallel.py --quick)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-university instance; assert the >=2x speedup at 4 "
             "workers on both legs, exit non-zero on miss",
    )
    parser.add_argument("--universities", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_E17.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)
    universities = 1 if args.quick else args.universities
    graph = generate_lubm(universities=universities, seed=args.seed)
    results = {
        "fragment": run_fragment_leg(graph),
        "federation": run_federation_leg(graph),
    }
    print(emit_report(results))
    payload = {
        "experiment": "E17",
        "claim": "latency-bound fragment/federation fan-out overlaps on "
                 "the worker pool; answers byte-identical to serial",
        "universities": universities,
        "seed": args.seed,
        "legs": results,
    }
    written = write_json_report(args.output, payload)
    print("\nwrote %s" % written)
    failed = False
    for leg, result in results.items():
        speedup = result["speedup_at_max"]
        if speedup < 2.0:
            print(
                "FAIL: %s leg speedup %.2fx < 2.0x at %d workers"
                % (leg, speedup, WORKER_SWEEP[-1]),
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
