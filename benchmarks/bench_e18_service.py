"""E18 — multi-tenant serving: latency percentiles and shed rate under load.

The serving layer's claim: with admission control in front of the
answerer, a saturating closed-loop workload degrades *predictably* —
excess requests are shed at the front door with typed rejections and
retry hints, the admitted requests complete with answers identical to
a serial :class:`~repro.core.answerer.QueryAnswerer`, and weighted
tenants split the executor in proportion to their weights.

Two scenarios over one LUBM instance and a three-query mix:

* **provisioned** — offered load fits the queues; the shed rate must
  be exactly zero and every request completes;
* **saturated** — each client keeps its queue over-full on purpose
  (offered load ≈ 2x queue capacity per round); shedding must engage
  (nonzero shed rate), while everything admitted still completes and
  matches the serial answers.

Clients are closed-loop: each tenant re-submits as soon as the service
sheds or completes its previous batch, `rounds` times.  The service
clock is a :class:`~repro.resilience.clock.FakeClock` stepped per
event, so the reported p50/p95/p99 are *deterministic simulated*
latencies (queueing + service ticks), reproducible bit-for-bit across
runs; wall-clock seconds are reported separately for throughput.

Runs two ways: under pytest with the rest of benchmarks/, and as a CI
smoke script (``python benchmarks/bench_e18_service.py --quick``) that
asserts the saturation/equivalence criteria and writes
``BENCH_E18.json``.
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
from repro.core import QueryAnswerer
from repro.datasets import generate_lubm, lubm_queries
from repro.resilience.clock import FakeClock
from repro.service import (
    AdmissionRejected,
    DONE,
    QueryRequest,
    QueryService,
    TenantConfig,
)

#: The query mix (name, weight-in-mix): mostly cheap lookups plus a
#: heavier join, the shape a shared endpoint actually serves.
QUERY_MIX = (("Q1", 2), ("Q4", 2), ("Q2", 1))

TENANTS = (
    ("gold", 3),
    ("silver", 2),
    ("bronze", 1),
)


def mix_for(rounds: int) -> List[str]:
    """The deterministic per-round query schedule (mix unrolled)."""
    unrolled = [name for name, count in QUERY_MIX for _ in range(count)]
    return [unrolled[i % len(unrolled)] for i in range(rounds)]


def run_scenario(
    graph,
    *,
    queue_depth: int,
    burst: int,
    rounds: int,
    capacity: int = 2,
    engine: str = "builtin",
) -> Dict:
    """One closed-loop serving session.

    Per round, every tenant submits ``burst`` requests (the closed
    loop: clients immediately refill after each scheduling round), then
    the service runs one step.  ``burst > queue_depth`` oversubscribes
    the queues and forces shedding.
    """
    queries = lubm_queries()
    schedule = mix_for(rounds)
    clock = FakeClock(auto_advance=0.001)
    service = QueryService(
        graph,
        tenants=[
            TenantConfig(name, weight=weight, queue_depth=queue_depth)
            for name, weight in TENANTS
        ],
        capacity=capacity,
        clock=clock,
        engine=engine,
    )
    tickets = []
    wall_start = time.perf_counter()
    for round_index in range(rounds):
        query = queries[schedule[round_index]]
        for name, _weight in TENANTS:
            for _ in range(burst):
                try:
                    ticket = service.submit(QueryRequest(name, query))
                except AdmissionRejected:
                    continue
                tickets.append((schedule[round_index], ticket))
        service.step()
    service.drain()
    wall_seconds = time.perf_counter() - wall_start

    # The acceptance criterion: every admitted answer equals the serial
    # answerer's answer for the same query on the same data.
    serial = QueryAnswerer(graph, engine=engine)
    expected = {
        name: sorted(serial.answer(queries[name]).answer)
        for name in {entry for entry, _count in QUERY_MIX}
    }
    mismatches = sum(
        1
        for name, ticket in tickets
        if ticket.status == DONE and sorted(ticket.answer) != expected[name]
    )

    summary = service.describe()
    return {
        "queue_depth": queue_depth,
        "burst": burst,
        "rounds": rounds,
        "capacity": capacity,
        "submitted": summary["submitted"],
        "completed": summary["completed"],
        "shed": summary["shed"],
        "shed_rate": summary["shed_rate"],
        "latency": summary["latency"],
        "completions_by_tenant": {
            name: bucket["completed"]
            for name, bucket in summary["tenants"].items()
        },
        "cache_hits": summary["cache_hits"],
        "answer_mismatches": mismatches,
        "wall_seconds": wall_seconds,
    }


def emit_report(results: Dict[str, Dict]) -> str:
    rows = [
        [
            scenario,
            payload["submitted"],
            payload["completed"],
            "%.2f" % payload["shed_rate"],
            "%.1f" % (payload["latency"]["p50"] * 1e3),
            "%.1f" % (payload["latency"]["p95"] * 1e3),
            "%.1f" % (payload["latency"]["p99"] * 1e3),
            payload["answer_mismatches"],
        ]
        for scenario, payload in results.items()
    ]
    return format_table(
        ["scenario", "sub", "done", "shed rate",
         "p50 ms", "p95 ms", "p99 ms", "mismatches"],
        rows,
        title="E18: multi-tenant serving under closed-loop load "
              "(simulated-clock latencies)",
    )


# ---------------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)


def test_provisioned_load_sheds_nothing(lubm_graph):
    result = run_scenario(lubm_graph, queue_depth=4, burst=1, rounds=6)
    assert result["shed_rate"] == 0.0
    assert result["completed"] == result["submitted"]
    assert result["answer_mismatches"] == 0


def test_saturation_sheds_but_admitted_answers_stay_serial(lubm_graph):
    result = run_scenario(lubm_graph, queue_depth=2, burst=4, rounds=6)
    assert result["shed"] > 0  # load shedding engaged
    assert result["completed"] > 0
    assert result["answer_mismatches"] == 0  # admitted == serial answers


def test_weighted_tenants_split_completions_by_weight(lubm_graph):
    result = run_scenario(lubm_graph, queue_depth=2, burst=4, rounds=8)
    done = result["completions_by_tenant"]
    # Saturated throughout, so completions track the 3:2:1 weights
    # (integer rounding gives the adjacent tiers some slack).
    assert done["gold"] > done["bronze"]
    assert done["gold"] >= done["silver"] >= done["bronze"]


def test_percentiles_are_deterministic(lubm_graph):
    first = run_scenario(lubm_graph, queue_depth=2, burst=3, rounds=4)
    second = run_scenario(lubm_graph, queue_depth=2, burst=3, rounds=4)
    assert first["latency"] == second["latency"]
    assert first["shed_rate"] == second["shed_rate"]


# ---------------------------------------------------------------------------
# script entry point (CI smoke: python benchmarks/bench_e18_service.py --quick)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-university instance, fewer rounds; assert nonzero "
             "shed at saturation and serial-equal admitted answers",
    )
    parser.add_argument("--universities", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument(
        "--engine", default="builtin",
        choices=["builtin", "materialized"],
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_E18.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)
    universities = 1 if args.quick else args.universities
    rounds = 5 if args.quick else args.rounds
    graph = generate_lubm(universities=universities, seed=args.seed)
    results = {
        "provisioned": run_scenario(
            graph, queue_depth=4, burst=1, rounds=rounds, engine=args.engine
        ),
        "saturated": run_scenario(
            graph, queue_depth=2, burst=4, rounds=rounds, engine=args.engine
        ),
    }
    print(emit_report(results))
    payload = {
        "experiment": "E18",
        "claim": "admission control sheds saturating load with typed "
                 "rejections while admitted answers equal the serial "
                 "answerer; weighted tenants split capacity fairly",
        "universities": universities,
        "seed": args.seed,
        "engine": args.engine,
        "scenarios": results,
    }
    written = write_json_report(args.output, payload)
    print("\nwrote %s" % written)
    failed = False
    if results["provisioned"]["shed"] != 0:
        print("FAIL: provisioned scenario shed requests", file=sys.stderr)
        failed = True
    if results["saturated"]["shed"] == 0:
        print("FAIL: saturated scenario shed nothing", file=sys.stderr)
        failed = True
    for scenario, result in results.items():
        if result["answer_mismatches"]:
            print(
                "FAIL: %s scenario: %d admitted answer(s) diverged from "
                "the serial answerer" % (scenario, result["answer_mismatches"]),
                file=sys.stderr,
            )
            failed = True
        if result["completed"] == 0:
            print("FAIL: %s scenario completed nothing" % scenario,
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
