"""One workload, measured: the untraced run and the traced run.

Both run in a fresh child process (``run.py`` starts it with
``PYTHONHASHSEED=0``), single-threaded, as a closed loop over a fixed
list of operations.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import QueryRequest, QueryService
from repro.query.parser import parse_query
from repro.service.request import DONE

import metrics
from frontdoor import TENANT, open_door, perform
from layers import DirectCache, LayerChain, absent_layers, durability_probe
from oracle import digest, expected_answers
from spans import Trace
from workloads import Op, Workload

#: Fresh front doors built (and warmed) per run; ``setup_s`` and
#: ``warmup_s`` are medians over them, the last one runs the loop.
SETUP_REPEATS = 5


class Loop(NamedTuple):
    latencies: List[float]
    answers: List  # a read's answer, None for a write, the exception if it failed
    wall_seconds: float
    cpu_share: float


class Outcome(NamedTuple):
    metrics: Dict[str, Optional[float]]
    attempted: int
    failed: int
    timed_ops: int
    cpu_share: float
    errors: List[str]


def attempt(door, op: Op):
    """An operation's result, or the exception it raised: a failed
    operation is a measurement, not a reason to stop the run."""
    try:
        return perform(door, op)
    except Exception as exc:  # noqa: BLE001 - counted in failed_share
        return exc


def timed_loop(door, ops: Sequence[Op]) -> Loop:
    latencies: List[float] = []
    answers: List = []
    clock = time.perf_counter
    gc.collect()
    cpu_begin = time.process_time()
    begin = clock()
    for op in ops:
        start = clock()
        answer = attempt(door, op)
        latencies.append(clock() - start)
        answers.append(answer)
    wall = clock() - begin
    cpu = time.process_time() - cpu_begin
    return Loop(latencies, answers, wall, cpu / wall)


def _failures(answers: Sequence) -> List[str]:
    return [repr(answer) for answer in answers if isinstance(answer, Exception)]


class _Checker:
    """Compares answers with the reference digests; equal answers are
    hashed once."""

    def __init__(self, expected: Dict[str, Dict]):
        self.expected = expected
        self._digests: Dict = {}

    def wrong(self, key: str, answer) -> bool:
        if isinstance(answer, Exception):
            return True
        found = self._digests.get(answer)
        if found is None:
            found = self._digests[answer] = digest(answer)
        return found != self.expected[key]


# ----------------------------------------------------------------------
# Untraced: the end-to-end numbers


def measure_untraced(workload: Workload, seed: int, smoke: bool) -> Outcome:
    setups: List[float] = []
    warmups: List[float] = []
    door = None
    warm: List = []
    for _ in range(SETUP_REPEATS):
        door = None  # drop the previous front door before building the next
        graph = workload.graph.copy()
        gc.collect()
        start = time.perf_counter()
        door = open_door(workload, graph)
        setups.append(time.perf_counter() - start)
        start = time.perf_counter()
        warm = [attempt(door, op) for op in workload.warmup]
        warmups.append(time.perf_counter() - start)
    loop = timed_loop(door, workload.ops)
    # Read before the oracle runs, which may have to saturate the graph.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = _Checker(expected_answers(workload, seed, smoke))
    errors = _failures(warm) + _failures(loop.answers)
    attempted = len(workload.warmup) + len(workload.ops)
    failed = len(_failures(warm))
    if workload.read_only:
        wrong_ops = sum(
            checker.wrong(op.kind, answer)
            for op, answer in zip(workload.ops, loop.answers)
        )
    else:
        wrong_ops = len(_failures(loop.answers))
        finals = [(key, attempt(door, op)) for key, op in workload.samples]
        errors += _failures([answer for _, answer in finals])
        attempted += len(finals)
        failed += sum(checker.wrong(key, answer) for key, answer in finals)
    failed += wrong_ops
    values = metrics.end_to_end(
        [op.kind for op in workload.ops],
        loop.latencies,
        len(workload.ops) - wrong_ops,
        loop.wall_seconds,
        setups,
        warmups,
        peak_rss_mb,
    )
    return Outcome(
        values, attempted, failed, len(workload.ops), loop.cpu_share, errors[:5]
    )


# ----------------------------------------------------------------------
# Traced: the per-layer numbers


def traced_ops(workload: Workload) -> Tuple[Op, ...]:
    """A quarter of the timed ops (whole passes when read-only)."""
    unit = len(workload.kinds) if workload.read_only else 1
    count = max(unit, len(workload.ops) // 4 // unit * unit)
    return workload.ops[:count]


def measure_traced(workload: Workload, out_dir: str) -> Outcome:
    ops = traced_ops(workload)
    # The same ops through the front door, untraced: the reference
    # answers, and the per-op time tracing overhead is measured against.
    door = open_door(workload, workload.graph.copy())
    warm = [attempt(door, op) for op in workload.warmup]
    reference = timed_loop(door, ops)
    door = None
    errors = _failures(warm) + _failures(reference.answers)

    trace = Trace()
    replay = _replay_service if workload.door == "service" else _replay_chain
    wrong, replay_cpu, replay_wall, service_numbers = replay(
        trace, workload, ops, reference
    )
    if workload.saturated:
        durability_probe(
            trace,
            workload.graph,
            workload.schema,
            os.path.join(out_dir, "durability-%d" % os.getpid()),
        )
    trace.write(os.path.join(out_dir, "trace-%s.jsonl" % workload.name))
    values = metrics.per_layer(
        trace,
        sum(reference.latencies),
        # Processor share over both loops, the front door's and the replay's.
        (reference.cpu_share * reference.wall_seconds + replay_cpu)
        / (reference.wall_seconds + replay_wall),
        service_numbers,
        absent_layers(),
    )
    return Outcome(
        values, len(ops), len(errors) + wrong, len(ops), values["runner.cpu_share"],
        errors[:5],
    )


def _replay_chain(trace: Trace, workload: Workload, ops, reference: Loop):
    """Replay *ops* on a :class:`LayerChain`; returns how many answers
    differed from the front door's, then the loop's CPU and wall
    seconds (side replays included)."""
    chain = LayerChain(
        trace,
        workload.graph.copy(),
        workload.schema,
        saturated=workload.saturated,
        side_replays=workload.read_only,
    )

    def apply(op: Op):
        if op.action == "read":
            return chain.read(op)
        return getattr(chain, op.action)(op.triple)

    mark = len(trace.spans)
    for op in workload.warmup:
        apply(op)
    trace.discard_since(mark)
    wrong = 0
    gc.collect()
    cpu_begin, begin = time.process_time(), time.perf_counter()
    for index, op in enumerate(ops):
        with trace.op(index, op.kind) as root:
            outcome = apply(op)
        root["action"] = op.action
        if op.action != "read":
            wrong += not outcome
            continue
        answer, query, plan, rows = outcome
        wrong += answer != reference.answers[index]
        if workload.read_only:
            chain.side_replay(op, query, plan, rows)
    cpu, wall = time.process_time() - cpu_begin, time.perf_counter() - begin
    return wrong + chain.side_mismatches, cpu, wall, None


def _replay_service(trace: Trace, workload: Workload, ops, reference: Loop):
    """Drive a second service with a span around each public call, the
    cache tier directly beside it, and the answering chain once more
    for every read the service's cache missed."""
    service = QueryService(workload.graph.copy(), workload.schema, tenants=[TENANT])
    chain = LayerChain(trace, workload.graph.copy(), workload.schema)
    direct = DirectCache(
        trace, service.answerer.schema, service.cache_stats()[TENANT]
    )
    wrong = 0

    def serve(index: int, op: Op, want) -> int:
        with trace.op(index, op.kind) as root:
            if op.action == "read":
                with trace.span("query.parse"):
                    query = parse_query(op.text)
                with trace.span("service.submit"):
                    ticket = service.submit(QueryRequest(TENANT, query))
                with trace.span("service.step"):
                    service.step()
            else:
                with trace.span("service." + op.action):
                    done = getattr(service, op.action)(op.triple)
        root["action"] = op.action
        if op.action != "read":
            direct.invalidate()
            with trace.op(index, op.kind, name="op.replay"):
                getattr(chain, op.action)(op.triple)
            return not done
        root["cache"] = ticket.cache
        if ticket.status != DONE:
            return 1
        direct.lookup(query, ticket.answer)
        missed = ticket.answer != want
        if ticket.cache == "miss":
            with trace.op(index, op.kind, name="op.replay"):
                answer = chain.read(op)[0]
            missed += answer != ticket.answer
        return missed

    mark = len(trace.spans)
    for op in workload.warmup:
        serve(-1, op, None)
    trace.discard_since(mark)
    gc.collect()
    cpu_begin, begin = time.process_time(), time.perf_counter()
    for index, op in enumerate(ops):
        wrong += serve(index, op, reference.answers[index])
    cpu, wall = time.process_time() - cpu_begin, time.perf_counter() - begin
    tiers = service.cache_stats()[TENANT]
    return wrong, cpu, wall, {
        "answer": tiers["answer"],
        "reformulation": tiers["reformulation"],
        "data_invalidations": tiers["data_invalidations"],
        "shed": service.describe()["shed"],
    }
