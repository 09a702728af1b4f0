"""E19 — degraded-mode serving: availability under faults with the brownout ladder.

The robustness claim: when the backend starts failing under a tenant
workload, a front door with the brownout ladder *serves through* the
fault — it climbs to stale-while-revalidate and keeps answering from
expired cache entries (flagged, and provably subsets of the serial
ground truth) — while the same front door without the ladder fails
every request the fault touches.  When the fault clears, the ladder
walks back down to NORMAL on its own.

One closed-loop schedule, run twice on identical seeds (same
:class:`~repro.resilience.faults.FaultPlan`, same submissions, same
fake clock):

* **warm** rounds populate every tenant's cache partition;
* an irrelevant *noise* triple then bumps the data epoch (so the warm
  entries are expired — exactly the stale-serving regime — while the
  query answers themselves are unchanged);
* **fault** rounds arm a high-rate transient
  :class:`~repro.service.chaos.ServiceChaos`; the ladder run climbs to
  stale-serving and keeps answering, the bare run keeps failing;
* **recovery** rounds disarm the chaos; refreshes succeed again and
  the ladder de-escalates level by level to NORMAL.

Availability = completed responses / submitted requests (shed and
failed both count against it).  The three assertions written into
``BENCH_E19.json`` and enforced here and in CI:

1. availability(ladder) strictly exceeds availability(no ladder);
2. every answer that went out degraded (stale or partial) is flagged
   as such and is a subset of the serial answerer's ground truth —
   and every *unflagged* answer equals the ground truth exactly;
3. the controller's transition log shows it reached stale-serving and
   returned to NORMAL after the fault window.

Runs two ways: under pytest with the rest of benchmarks/, and as a CI
smoke script (``python benchmarks/bench_e19_degraded.py --quick``).
"""

from __future__ import annotations

import argparse
import itertools
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
from repro.rdf import Namespace, RDF_TYPE, Triple
from repro.resilience.clock import FakeClock
from repro.resilience.faults import FaultPlan
from repro.service import (
    AdmissionRejected,
    BrownoutPolicy,
    DONE,
    NORMAL,
    QueryRequest,
    QueryService,
    STALE_SERVING,
    ServiceChaos,
    TenantConfig,
)

#: The CI chaos-matrix seed convention (same as the resilience tests).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

NOISE = Namespace("http://example.org/e19-noise/")

#: Two cacheable queries, alternated per round.
QUERY_MIX = ("Q1", "Q4")

TENANTS = (("gold", 2), ("bronze", 1))

#: Distinguishes the per-run noise triple (see :func:`run_schedule`).
_noise_counter = itertools.count(1)


def _policy() -> BrownoutPolicy:
    """The ladder policy for E19: default thresholds, but a short
    recovery streak (2 clear rounds per level) and two refreshes per
    round so the recovery phase fits a bounded schedule."""
    return BrownoutPolicy(recovery_rounds=2, refreshes_per_round=2)


def run_schedule(
    graph,
    *,
    ladder: bool,
    warm_rounds: int,
    fault_rounds: int,
    recovery_rounds: int,
    transient_rate: float = 0.95,
    engine: str = "builtin",
    seed: int = CHAOS_SEED,
) -> Dict:
    """One closed-loop session under the warm → fault → recovery
    schedule; ``ladder`` toggles the brownout controller (everything
    else — seeds, submissions, clock — is identical)."""
    queries = lubm_queries()
    clock = FakeClock(auto_advance=0.001)
    chaos = ServiceChaos(
        FaultPlan(seed=seed, transient_rate=transient_rate),
        clock=clock,
        armed=False,
    )
    service = QueryService(
        graph,
        tenants=[
            TenantConfig(name, weight=weight, queue_depth=8)
            for name, weight in TENANTS
        ],
        capacity=len(TENANTS),
        clock=clock,
        engine=engine,
        brownout=_policy() if ladder else None,
        chaos=chaos,
        watchdog_seconds=30.0,
        # E19 measures the *ladder*; with breakers on, the injected
        # backend fault (which is not tenant-specific) would trip every
        # tenant's breaker and the comparison would measure breaker
        # cooldowns instead.  Breakers get their own unit tests.
        breaker_threshold=0,
    )
    tickets = []
    submitted = 0

    def play_round(round_index: int) -> None:
        nonlocal submitted
        query = queries[QUERY_MIX[round_index % len(QUERY_MIX)]]
        for name, _weight in TENANTS:
            submitted += 1
            try:
                tickets.append(service.submit(QueryRequest(name, query)))
            except AdmissionRejected:
                continue
        service.step()

    wall_start = time.perf_counter()
    round_counter = 0
    level_trace: List[int] = []

    for _ in range(warm_rounds):
        play_round(round_counter)
        round_counter += 1
    # Expire the warm entries without changing any query's answer: one
    # irrelevant data triple bumps every partition's data epoch.  The
    # subject is unique per run — runs share the input graph object
    # (the answerer's inserts flow back into it), and a duplicate
    # insert would be a no-op that leaves a later run's entries fresh.
    noise = NOISE["visitor-%d" % next(_noise_counter)]
    inserted = service.insert(Triple(noise, RDF_TYPE, NOISE.Visitor))
    assert inserted, "noise triple must be new or the epoch never bumps"
    chaos.arm()
    for _ in range(fault_rounds):
        play_round(round_counter)
        round_counter += 1
        if service.brownout is not None:
            level_trace.append(service.brownout.level)
    chaos.disarm()
    for _ in range(recovery_rounds):
        play_round(round_counter)
        round_counter += 1
        if service.brownout is not None:
            level_trace.append(service.brownout.level)
    service.drain()
    wall_seconds = time.perf_counter() - wall_start

    # Ground truth: the serial answerer on the final graph state (the
    # noise triple is in both; it matches no query in the mix).
    serial = QueryAnswerer(graph, engine=engine)
    expected = {
        name: sorted(serial.answer(queries[name]).answer) for name in QUERY_MIX
    }
    flagged_total = 0
    unflagged_mismatches = 0
    flagged_non_subsets = 0
    for ticket in tickets:
        if ticket.status != DONE:
            continue
        # Identify the query by the request itself, not the answer.
        query_name = next(
            qn for qn in QUERY_MIX if queries[qn] is ticket.request.query
        )
        truth = expected[query_name]
        got = sorted(ticket.answer)
        if ticket.stale or ticket.degraded:
            flagged_total += 1
            if not set(got) <= set(truth):
                flagged_non_subsets += 1
        elif got != truth:
            unflagged_mismatches += 1

    summary = service.describe()
    completed = summary["completed"]
    result = {
        "ladder": ladder,
        "submitted": submitted,
        "completed": completed,
        "failed": summary["failed"],
        "shed": summary["shed"],
        "availability": completed / submitted if submitted else 0.0,
        "stale_serves": summary["stale_serves"],
        "degraded": summary["degraded"],
        "refreshes": summary["refreshes"],
        "refresh_failures": summary["refresh_failures"],
        "flagged_answers": flagged_total,
        "flagged_non_subsets": flagged_non_subsets,
        "unflagged_mismatches": unflagged_mismatches,
        "wall_seconds": wall_seconds,
    }
    if ladder:
        brownout = service.brownout.as_dict()
        result["max_level"] = max([0] + level_trace)
        result["final_level"] = service.brownout.level
        result["returned_to_normal"] = service.brownout.level == NORMAL
        result["reached_stale_serving"] = any(
            level >= STALE_SERVING for level in level_trace
        )
        result["transitions"] = brownout["transitions"]
    return result


def run_comparison(
    graph,
    *,
    warm_rounds: int = 4,
    fault_rounds: int = 10,
    recovery_rounds: int = 14,
    engine: str = "builtin",
    seed: int = CHAOS_SEED,
) -> Dict[str, Dict]:
    kwargs = dict(
        warm_rounds=warm_rounds,
        fault_rounds=fault_rounds,
        recovery_rounds=recovery_rounds,
        engine=engine,
        seed=seed,
    )
    return {
        "with_ladder": run_schedule(graph, ladder=True, **kwargs),
        "without_ladder": run_schedule(graph, ladder=False, **kwargs),
    }


def emit_report(results: Dict[str, Dict]) -> str:
    rows = [
        [
            scenario,
            payload["submitted"],
            payload["completed"],
            payload["failed"],
            "%.3f" % payload["availability"],
            payload["stale_serves"],
            payload["flagged_answers"],
            payload.get("final_level", "-"),
        ]
        for scenario, payload in results.items()
    ]
    return format_table(
        ["scenario", "sub", "done", "fail", "availability",
         "stale", "flagged", "final lvl"],
        rows,
        title="E19: degraded-mode serving under an injected fault window "
              "(seed %d)" % CHAOS_SEED,
    )


def check_results(results: Dict[str, Dict]) -> List[str]:
    """The acceptance criteria as a list of failure messages."""
    ladder = results["with_ladder"]
    bare = results["without_ladder"]
    problems = []
    if not ladder["availability"] > bare["availability"]:
        problems.append(
            "availability with ladder (%.3f) does not strictly exceed "
            "without (%.3f)" % (ladder["availability"], bare["availability"])
        )
    for scenario, payload in results.items():
        if payload["flagged_non_subsets"]:
            problems.append(
                "%s: %d flagged answer(s) were not subsets of ground truth"
                % (scenario, payload["flagged_non_subsets"])
            )
        if payload["unflagged_mismatches"]:
            problems.append(
                "%s: %d unflagged answer(s) diverged from ground truth"
                % (scenario, payload["unflagged_mismatches"])
            )
    if not ladder["reached_stale_serving"]:
        problems.append("ladder never reached stale-serving under the fault")
    if not ladder["returned_to_normal"]:
        problems.append(
            "ladder did not return to NORMAL after the fault cleared "
            "(final level %s)" % ladder["final_level"]
        )
    if ladder["stale_serves"] == 0:
        problems.append("ladder run served nothing stale")
    return problems


# ---------------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)


def test_ladder_strictly_improves_availability(lubm_graph):
    results = run_comparison(lubm_graph)
    assert not check_results(results), check_results(results)


def test_ladder_run_is_deterministic(lubm_graph):
    first = run_comparison(lubm_graph)
    second = run_comparison(lubm_graph)
    for scenario in first:
        for key in ("availability", "stale_serves", "failed", "completed"):
            assert first[scenario][key] == second[scenario][key]


# ---------------------------------------------------------------------------
# script entry point (CI smoke: python benchmarks/bench_e19_degraded.py --quick)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-university instance; assert the availability, "
             "flagged-subset and return-to-normal criteria",
    )
    parser.add_argument("--universities", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fault-rounds", type=int, default=10)
    parser.add_argument("--recovery-rounds", type=int, default=14)
    parser.add_argument(
        "--engine", default="builtin",
        choices=["builtin", "materialized"],
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_E19.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)
    universities = 1 if args.quick else args.universities
    graph = generate_lubm(universities=universities, seed=args.seed)
    results = run_comparison(
        graph,
        fault_rounds=args.fault_rounds,
        recovery_rounds=args.recovery_rounds,
        engine=args.engine,
    )
    print(emit_report(results))
    problems = check_results(results)
    payload = {
        "experiment": "E19",
        "claim": "the brownout ladder serves through an injected fault "
                 "window (stale answers flagged, subsets of ground truth), "
                 "strictly beats the bare service's availability, and "
                 "returns to NORMAL once the fault clears",
        "universities": universities,
        "seed": args.seed,
        "chaos_seed": CHAOS_SEED,
        "engine": args.engine,
        "scenarios": results,
        "assertions": {
            "availability_strictly_improved": (
                results["with_ladder"]["availability"]
                > results["without_ladder"]["availability"]
            ),
            "flagged_answers_are_subsets": all(
                r["flagged_non_subsets"] == 0 for r in results.values()
            ),
            "unflagged_answers_exact": all(
                r["unflagged_mismatches"] == 0 for r in results.values()
            ),
            "returned_to_normal": results["with_ladder"]["returned_to_normal"],
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
