"""E17 — federation fan-out: per-endpoint fetches overlap their latency.

The one concurrent path in the repository: a federated atom is fetched
from every endpoint, and those fetches *wait* on the endpoint rather
than compute, so on the shared worker pool they overlap instead of
summing, while the answers stay identical to the serial run.  The
dataset is sharded over four endpoints behind
:class:`~repro.resilience.faults.ChaosEndpoint` latency injection on
the system clock; :class:`~repro.federation.client.FederatedAnswerer`
runs with ``parallelism`` 1 vs N.

Pure-Python CPU work gains nothing from threads (the GIL serializes
it), which is why query evaluation and saturation are single-threaded
— see DESIGN.md §12.

Runs two ways: under pytest alongside the other benchmarks, and as a
script (``python benchmarks/bench_e17_parallel.py --quick``) for CI
smoke.  The script asserts the ≥2x speedup at 4 workers, checks
byte-identical sorted answers, and writes ``BENCH_E17.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_REPO_ROOT = os.path.dirname(_SRC)

from repro.bench import format_table, write_json_report
from repro.datasets import generate_lubm, lubm_queries, lubm_schema
from repro.federation import Endpoint, FederatedAnswerer
from repro.rdf import Graph
from repro.resilience.faults import ChaosEndpoint, FaultPlan

WORKER_SWEEP = (1, 2, 4)
ENDPOINT_LATENCY = 0.050  # injected per-request endpoint latency


def canonical_bytes(rows) -> bytes:
    """The byte-identity witness: sorted rows, one per line."""
    lines = [
        "|".join(term.lexical() for term in row) for row in sorted(rows)
    ]
    return "\n".join(lines).encode("utf-8")


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


def emit_report(result: Dict) -> str:
    timings = result["seconds_by_workers"]
    rows: List[List[object]] = [
        [
            count,
            "%.1f" % (timings[count] * 1e3),
            "%.2fx" % (timings["1"] / timings[count]),
            result["rows"],
        ]
        for count in sorted(timings, key=int)
    ]
    return format_table(
        ["workers", "ms", "speedup", "answer rows"],
        rows,
        title="E17: federation fan-out (latency-bound)",
    )


# ---------------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)


def test_federation_leg_identical_answers(lubm_graph):
    result = run_federation_leg(
        lubm_graph, latency_seconds=0.005, endpoints=4, workers=(1, 4)
    )
    assert result["identical_answers"]
    assert result["rows"] > 0


# ---------------------------------------------------------------------------
# script entry point (CI smoke: python benchmarks/bench_e17_parallel.py --quick)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-university instance; assert the >=2x speedup at 4 "
             "workers, exit non-zero on miss",
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
    result = run_federation_leg(graph)
    print(emit_report(result))
    payload = {
        "experiment": "E17",
        "claim": "latency-bound federation fan-out overlaps on the "
                 "worker pool; answers byte-identical to serial",
        "universities": universities,
        "seed": args.seed,
        "federation": result,
    }
    written = write_json_report(args.output, payload)
    print("\nwrote %s" % written)
    speedup = result["speedup_at_max"]
    if speedup < 2.0:
        print(
            "FAIL: federation speedup %.2fx < 2.0x at %d workers"
            % (speedup, WORKER_SWEEP[-1]),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
