"""The paper's experiments: one declaration each, one runner.

    python benchmarks/paper.py [ID ...] [--quick]

Each experiment reproduces one claim of the paper — Example 1 and the
demonstration's strategy, platform, Dat, completeness and maintenance
axes — or ablates one of its design choices (A1–A4).  It builds its
rows on seeded, laptop-scale LUBM data, asserts the *shape* the paper
reports (who wins, who fails, what is equal) and returns
``(set-up line, headers, rows)``.  ``main`` prints every result as the
Markdown table EXPERIMENTS.md shows, headed by its set-up line, and
exits 1 naming each experiment whose shape assertion failed.
``--quick`` runs everything at the smallest scale that still shows the
shape.

Absolute milliseconds are not the reproduction target (DESIGN.md §2);
the repository benchmark, ``bench/run.py``, is what measures speed.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sqlite3
import sys
import time
import traceback
from functools import lru_cache
from typing import Callable, List, NamedTuple, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro import QueryAnswerer, Strategy
from repro.cost.cardinality import estimate_scan
from repro.datalog import encode, evaluate_program
from repro.datalog.encoding import ANSWER
from repro.datasets import (
    UB,
    books_dataset,
    example1_best_cover,
    example1_query,
    generate_lubm,
    lubm_queries,
    lubm_schema,
)
from repro.federation import Endpoint, ExportForbidden, FederatedAnswerer
from repro.optimizer import (
    CoverCostEstimator,
    beam_search,
    exhaustive_cover_search,
    gcov,
)
from repro.query import (
    ConjunctiveQuery,
    Cover,
    TriplePattern,
    UnionQuery,
    Variable,
    evaluate_cq,
)
from repro.rdf import RDF_TYPE, Graph
from repro.reformulation import (
    ALLEGROGRAPH_STYLE,
    ReformulationTooLarge,
    atom_reformulation_size,
    jucq_for_cover,
    minimize_under_schema,
    prune_subsumed,
    reformulate,
    scq_reformulation,
    ucq_size,
)
from repro.resilience import ChaosEndpoint, FaultPlan
from repro.saturation import IncrementalSaturator, saturate
from repro.schema import Constraint, ConstraintKind, Schema
from repro.storage import (
    DEFAULT_BACKENDS,
    HASH_BACKEND,
    SQLITE_COMPOUND_SELECT_LIMIT,
    BackendProfile,
    Executor,
    Planner,
    QueryTooLargeError,
    SqliteBackend,
    TripleStore,
    execute_plan,
)
from repro.storage.charsets import CharacteristicSets

SEED = 1

Result = Tuple[str, List[str], List[List[object]]]


class Experiment(NamedTuple):
    identifier: str
    claim: str
    run: Callable[[bool], Result]


EXPERIMENTS: List[Experiment] = []


def experiment(identifier: str, claim: str):
    """Declare the decorated ``run(quick)`` as experiment *identifier*."""

    def declare(run: Callable[[bool], Result]) -> Callable[[bool], Result]:
        EXPERIMENTS.append(Experiment(identifier, claim, run))
        return run

    return declare


# ---------------------------------------------------------------------------
# Shared data and measurement


@lru_cache(maxsize=None)
def lubm(universities: int) -> Graph:
    return generate_lubm(universities=universities, seed=SEED)


@lru_cache(maxsize=None)
def answerer(universities: int) -> QueryAnswerer:
    """The standard answerer, its saturated store prebuilt so that Sat
    timings measure evaluation (saturation cost is E7's subject)."""
    built = QueryAnswerer(lubm(universities))
    built.saturated_store()
    return built


def base_scale(quick: bool) -> int:
    return 1 if quick else 2


def scale(universities: int) -> str:
    return "%d universit%s" % (universities, "y" if universities == 1 else "ies")


def lubm_setup(universities: int) -> str:
    return "LUBM, %s (%s triples), seed %d" % (
        scale(universities), count(len(lubm(universities))), SEED
    )


def count(value: int) -> str:
    return "{:,}".format(value)


def ms(seconds: float) -> str:
    return "%.1f" % (seconds * 1e3)


def timed(call: Callable, rounds: int = 1):
    """``(result, best-of-rounds seconds)`` of ``call()``."""
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return result, best


def best_report(call: Callable, rounds: int = 3):
    """The fastest of *rounds* answer reports: wall-clock comparisons
    need noise control."""
    return min((call() for _ in range(rounds)), key=lambda r: r.elapsed_seconds)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rank correlation, ties sharing their average rank."""

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(len(values)), key=values.__getitem__)
        result = [0.0] * len(values)
        start = 0
        while start < len(order):
            end = start
            while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
                end += 1
            for position in range(start, end + 1):
                result[order[position]] = (start + end) / 2.0
            start = end + 1
        return result

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    covariance = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    spread = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return covariance / spread


def groups_type_atoms(cover: Cover) -> bool:
    """Whether each of Example 1's open type atoms (t1, t2) shares its
    fragments with another atom — the paper's grouping insight."""
    return all(
        len(fragment) > 1
        for index in (0, 1)
        for fragment in cover.fragments
        if index in fragment
    )


def cover_space(store: TripleStore, schema: Schema, query, backend: BackendProfile):
    """The whole partition-cover space of *query*, priced and run:
    ``(exhaustive search, estimator, [(cover, estimated cost, seconds)])``."""
    estimator = CoverCostEstimator(query, schema, store, backend)
    search = exhaustive_cover_search(query, schema, store, backend, estimator=estimator)
    executor = Executor(store, backend)
    measured = []
    for cover, cost in search.space:
        jucq = jucq_for_cover(cover, schema)
        measured.append((cover, cost, timed(lambda: executor.run(jucq))[1]))
    return search, estimator, measured


def q9_core() -> ConjunctiveQuery:
    """Q9's triangle without its two type atoms: Bell(4) = 15 covers, a
    space small enough to run in full."""
    q9 = lubm_queries()["Q9"]
    head = [item for item in q9.head if isinstance(item, Variable)]
    return ConjunctiveQuery(head, q9.atoms[:2] + q9.atoms[3:5])


# ---------------------------------------------------------------------------
# The paper: Example 1 (Section 4)


@experiment("E1", "Example 1's UCQ reformulation blow-up and parse failure")
def e1(quick: bool) -> Result:
    schema = lubm_schema()
    query = example1_query()
    counts = [atom_reformulation_size(atom, schema) for atom in query.atoms]
    total = ucq_size(query, schema)
    assert counts[0] == counts[1] > 100, counts
    assert all(size <= 3 for size in counts[2:]), counts
    assert total == math.prod(counts) > 100_000, (total, counts)
    rows: List[List[object]] = [
        ["t%d alternatives: %r" % (index + 1, atom), "564" if index < 2 else "1", count(size)]
        for index, (atom, size) in enumerate(zip(query.atoms, counts))
    ]
    rows.append(["UCQ disjuncts (their product)", "318,096", count(total)])
    universities = base_scale(quick)
    for backend in DEFAULT_BACKENDS:
        try:
            QueryAnswerer(lubm(universities), backend=backend).answer(query, Strategy.REF_UCQ)
        except QueryTooLargeError as exc:
            outcome = "QueryTooLargeError: %s atoms > %s" % (
                count(exc.atom_count), count(exc.limit))
        else:
            raise AssertionError("%s parsed Example 1's UCQ" % backend.name)
        rows.append(["Ref-UCQ on %s" % backend.name, "could not even be parsed", outcome])
    return (
        "LUBM RDFS schema; Example 1's six-atom query; answered on %s" % lubm_setup(universities),
        ["quantity", "paper", "measured"],
        rows,
    )


@experiment("E2", "SCQ vs the paper's best cover on Example 1, and GCov's choice")
def e2(quick: bool) -> Result:
    query = example1_query()
    best_cover = example1_best_cover(query)
    scales = (1, 2) if quick else (2, 10, 20)
    rows: List[List[object]] = []
    for universities in scales:
        at_scale = (
            answerer(universities) if universities <= 2 else QueryAnswerer(lubm(universities))
        )
        scq = best_report(lambda: at_scale.answer(query, Strategy.REF_SCQ))
        best = best_report(lambda: at_scale.answer(query, Strategy.REF_JUCQ, cover=best_cover))
        assert scq.answer == best.answer, universities
        scq_peak = scq.execution.max_intermediate_rows()
        best_peak = best.execution.max_intermediate_rows()
        # The paper's mechanism: grouping each open type atom with a
        # selective atom shrinks the largest intermediate result, and
        # the cost model agrees on the ordering GCov relies on.
        assert best_peak < scq_peak / 2, (universities, scq_peak, best_peak)
        estimator = CoverCostEstimator(query, at_scale.schema, at_scale.store, at_scale.backend)
        assert estimator.cost(best_cover) < estimator.cost(Cover.per_atom(query)), universities
        # GCov rediscovers the paper's published cover from the cost
        # model alone.
        search = gcov(query, at_scale.schema, at_scale.store, at_scale.backend)
        assert search.cover == best_cover, (universities, search.cover)
        rows.append([
            universities,
            count(len(lubm(universities))),
            ms(scq.elapsed_seconds),
            ms(best.elapsed_seconds),
            count(scq_peak),
            count(best_peak),
            "%r, %d explored" % (search.cover, search.explored_count),
        ])
    assert at_scale.answer(query, Strategy.SAT).answer == scq.answer
    if not quick:
        # Wall time is load-sensitive: at the largest scale require only
        # that the grouped cover is not materially slower.
        assert best.elapsed_seconds < scq.elapsed_seconds * 1.5, (
            scq.elapsed_seconds, best.elapsed_seconds)
    return (
        "LUBM, seed %d, best of 3 answers per cell; paper: 100M triples, SCQ 229 s with "
        "33,328,108-row intermediates vs 524 ms and 2,296–2,475 rows" % SEED,
        ["universities", "triples", "SCQ ms", "best cover ms", "SCQ max rows",
         "best cover max rows", "GCov's cover"],
        rows,
    )


# ---------------------------------------------------------------------------
# The demonstration's axes (Section 5) and the introduction's motivation


def workload() -> List[Tuple[str, ConjunctiveQuery]]:
    queries = lubm_queries()
    return [("Q%d" % index, queries["Q%d" % index]) for index in range(1, 15)] + [
        ("Ex1", example1_query())
    ]


@experiment("E3", "Strategy matrix across the LUBM workload")
def e3(quick: bool) -> Result:
    universities = base_scale(quick)
    strategies = (Strategy.SAT, Strategy.REF_UCQ, Strategy.REF_SCQ, Strategy.REF_GCOV)
    rows: List[List[object]] = []
    for name, query in workload():
        cells, answers = [name], set()
        for strategy in strategies:
            try:
                report = answerer(universities).answer(query, strategy)
            except (QueryTooLargeError, ReformulationTooLarge) as exc:
                assert strategy is Strategy.REF_UCQ, (name, strategy)
                cells.append("**FAIL** (%s)" % type(exc).__name__)
                continue
            answers.add(report.answer)
            cells.append("%s (%d rows)" % (ms(report.elapsed_seconds), report.cardinality))
        assert len(answers) == 1, "strategies disagree on %s" % name
        rows.append(cells)
    assert rows[-1][2].startswith("**FAIL**"), "Ref-UCQ answered Example 1"
    return (
        lubm_setup(universities) + "; ms (answer rows), Sat excluding the one-off saturation",
        ["query"] + [strategy.value for strategy in strategies],
        rows,
    )


@experiment("E4", "The three backend profiles: answers, strategy ordering, parser limits")
def e4(quick: bool) -> Result:
    universities = base_scale(quick)
    graph = lubm(universities)
    answerers = {
        backend.name: QueryAnswerer(graph, backend=backend) for backend in DEFAULT_BACKENDS
    }
    q9 = lubm_queries()["Q9"]
    assert len({a.answer(q9, Strategy.REF_GCOV).answer for a in answerers.values()}) == 1
    # The probe conjoins two open type atoms on one subject: its UCQ has
    # (open-type alternatives)² two-atom disjuncts, between loopdb's
    # limit and hashdb's.
    s, u, v = Variable("s"), Variable("u"), Variable("v")
    probe = ConjunctiveQuery(
        [s, u, v], [TriplePattern(s, RDF_TYPE, u), TriplePattern(s, RDF_TYPE, v)]
    )
    probe_atoms = ucq_size(probe, answerers["hashdb"].schema) * len(probe.atoms)
    limits = sorted(backend.max_query_atoms for backend in DEFAULT_BACKENDS)
    assert limits[0] < probe_atoms <= limits[-1], (probe_atoms, limits)
    query = example1_query()
    rows: List[List[object]] = []
    for backend in DEFAULT_BACKENDS:
        answering = answerers[backend.name]
        try:
            backend.check_parse_limit(probe_atoms)
            outcome = "accepted"
        except QueryTooLargeError:
            outcome = "**FAIL**"
        scq = answering.answer(query, Strategy.REF_SCQ)
        chosen = answering.answer(query, Strategy.REF_GCOV)
        assert scq.answer == chosen.answer, backend.name
        scq_peak = scq.execution.max_intermediate_rows()
        chosen_peak = chosen.execution.max_intermediate_rows()
        assert chosen_peak <= scq_peak, (backend.name, scq_peak, chosen_peak)
        rows.append([
            backend.name, count(backend.max_query_atoms), outcome,
            ms(scq.elapsed_seconds), count(scq_peak),
            ms(chosen.elapsed_seconds), count(chosen_peak),
        ])
    # End to end: the strictest profile refuses the probe and the most
    # generous one answers it, completely.
    try:
        answerers["loopdb"].answer(probe, Strategy.REF_UCQ)
    except QueryTooLargeError:
        pass
    else:
        raise AssertionError("loopdb parsed the probe UCQ")
    accepted = answerers["hashdb"].answer(probe, Strategy.REF_UCQ)
    assert accepted.answer == answerer(universities).answer(probe, Strategy.SAT).answer
    return (
        lubm_setup(universities) + "; Q9's Ref-GCov answers identical on all three; hashdb "
        "answers the probe UCQ completely (= Sat), loopdb refuses it",
        ["backend", "parser limit (atoms)", "probe UCQ (%s atoms)" % count(probe_atoms),
         "Ex1 SCQ ms", "Ex1 SCQ max rows", "Ex1 GCov ms", "Ex1 GCov max rows"],
        rows,
    )


@experiment("E5", "The Dat alternative: complete, but it re-saturates per query")
def e5(quick: bool) -> Result:
    universities = base_scale(quick)
    graph = lubm(universities)
    schema = Schema.from_graph(graph)
    rows: List[List[object]] = []
    dat_total = ref_total = 0.0
    for name in ("Q1", "Q3", "Q4", "Q12", "Q14"):
        query = lubm_queries()[name]
        result, dat_seconds = timed(lambda: evaluate_program(encode(graph, schema, query)))
        answer = frozenset(result.facts(ANSWER))
        assert answer == answerer(universities).answer(query, Strategy.SAT).answer, name
        assert result.rounds >= 2 and result.derived > len(graph) * 0.5, (name, result.rounds)
        _, ref_seconds = timed(lambda: answerer(universities).answer(query, Strategy.REF_GCOV))
        dat_total += dat_seconds
        ref_total += ref_seconds
        rows.append([name, len(answer), result.rounds, count(result.derived),
                     ms(dat_seconds), ms(ref_seconds)])
    # Dat pays saturation inside every query's fixpoint; Ref never
    # materializes entailments.
    assert ref_total < dat_total, (ref_total, dat_total)
    rows.append(["5-query batch", "", "", "", ms(dat_total), ms(ref_total)])
    books_graph, books_schema, books_query = books_dataset()
    books = evaluate_program(encode(books_graph, books_schema, books_query)).facts(ANSWER)
    assert len(books) == 1
    return (
        lubm_setup(universities) + "; Dat = Sat on every query, and on the books example (1 row)",
        ["query", "answers (Dat = Sat)", "fixpoint rounds", "derived facts", "Dat ms",
         "Ref-GCov ms"],
        rows,
    )


def completeness_workload():
    """Queries chosen to exercise each dropped feature.  LUBM types every
    generated entity explicitly, so domain/range reasoning is decisive
    only for entities that are never typed — the degree-pool
    universities, which exist only as ``degreeFrom`` objects."""
    x = Variable("x")
    queries = lubm_queries()
    return [(name, queries[name]) for name in ("Q5", "Q6", "Q13", "Q14")] + [
        ("U1", ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, UB.University)])),
        ("U2", ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, UB.Organization)])),
    ]


@experiment("E6", "Completeness of the fixed commercial Ref strategies")
def e6(quick: bool) -> Result:
    universities = base_scale(quick)
    incomplete = (Strategy.REF_VIRTUOSO, Strategy.REF_ALLEGRO)
    books_graph, books_schema, books_query = books_dataset()
    cases = [(name, query, answerer(universities)) for name, query in completeness_workload()]
    cases.append(("books (Fig. 2)", books_query, QueryAnswerer(books_graph, books_schema)))
    rows: List[List[object]] = []
    losses = {strategy: 0 for strategy in incomplete}
    for name, query, answering in cases:
        complete = answering.answer(query, Strategy.REF_UCQ).cardinality
        row: List[object] = [name, complete]
        for strategy in incomplete:
            found = answering.answer(query, strategy).cardinality
            assert found <= complete, (name, strategy)  # sound: never invents answers
            losses[strategy] += found < complete
            row.append("%d (%.0f%%)" % (found, 100.0 * found / complete if complete else 100.0))
        rows.append(row)
    assert rows[-1][1] == 1 and rows[-1][3].startswith("0 "), rows[-1]
    # U1/U2 need range typing, which virtuoso-style drops; Q5/Q13 need
    # subproperty reasoning, which allegrograph-style drops as well.
    assert losses[Strategy.REF_VIRTUOSO] >= 1, losses
    assert losses[Strategy.REF_ALLEGRO] >= losses[Strategy.REF_VIRTUOSO], losses
    q5 = lubm_queries()["Q5"]
    full = answerer(universities).answer(q5, Strategy.REF_UCQ)
    allegro = answerer(universities).answer(q5, Strategy.REF_ALLEGRO)
    # The trade the commercial engines make: smaller reformulations,
    # fewer answers.  Sizes are of Q5 itself: the answerer reformulates
    # it after schema minimisation, which drops more under the complete
    # policy (Q5's type atom follows from memberOf's domain).
    schema = answerer(universities).schema
    assert ucq_size(q5, schema, ALLEGROGRAPH_STYLE) < ucq_size(q5, schema)
    assert allegro.cardinality < full.cardinality
    return (
        lubm_setup(universities) + "; answer counts (recall vs complete Ref)",
        ["query", "complete", "virtuoso-style (no domain/range)",
         "allegrograph-style (subclass only)"],
        rows,
    )


@experiment("E7", "The Sat maintenance penalty Ref avoids")
def e7(quick: bool) -> Result:
    universities = base_scale(quick)
    graph = lubm(universities)
    schema = Schema.from_graph(graph)
    data = list(graph.data_triples())
    saturated, saturate_seconds = timed(lambda: saturate(graph))
    derived = len(saturated) - len(graph)
    assert derived > 0.3 * len(graph), derived
    _, load_seconds = timed(lambda: TripleStore.from_graph(graph))

    saturator = IncrementalSaturator(schema, data)
    batch = data[:200]
    _, churn_seconds = timed(lambda: (saturator.delete_all(batch), saturator.insert_all(batch)))
    _, recompute_seconds = timed(lambda: saturate(Graph(data), schema))
    assert churn_seconds < recompute_seconds, (churn_seconds, recompute_seconds)

    constraint = Constraint.subclass(UB.Lecturer, UB.Professor)
    _, sat_seconds = timed(lambda: saturator.add_constraint(constraint))
    amended = schema.copy()
    amended.add(constraint)
    _, ref_seconds = timed(lambda: reformulate(lubm_queries()["Q6"], amended))
    assert ref_seconds < sat_seconds, (ref_seconds, sat_seconds)
    return (
        lubm_setup(universities),
        ["operation", "ms"],
        [
            ["Sat set-up: saturate (+%s triples, +%.0f%% storage)"
             % (count(derived), 100.0 * derived / len(graph)), ms(saturate_seconds)],
            ["Ref set-up: load the store and close the schema", ms(load_seconds)],
            ["200-triple churn, incremental maintenance", ms(churn_seconds)],
            ["200-triple churn, recomputed saturation", ms(recompute_seconds)],
            ["add Lecturer ⊑ Professor: Sat maintains the saturation", ms(sat_seconds)],
            ["add Lecturer ⊑ Professor: Ref re-reformulates the next query (Q6)",
             ms(ref_seconds)],
        ],
    )


@experiment("E8", "Cost-model introspection over the cover space")
def e8(quick: bool) -> Result:
    universities = base_scale(quick)
    answering = answerer(universities)
    query = q9_core()
    search, estimator, measured = cover_space(
        answering.store, answering.schema, query, HASH_BACKEND)
    rho = spearman([cost for _, cost, _ in measured], [seconds for _, _, seconds in measured])
    assert rho > 0.3, rho
    greedy = gcov(query, answering.schema, answering.store, estimator=estimator)
    ranked = [cost for _, cost in search.ranked()]
    median = ranked[len(ranked) // 2]
    assert greedy.cost <= median, (greedy.cost, median)
    ex1 = gcov(example1_query(), answering.schema, answering.store, answering.backend)
    assert ex1.explored_count > 10
    cards = answering.answer(lubm_queries()["Q9"], Strategy.REF_GCOV).execution.node_cardinalities()
    assert all(actual is not None for _, _, actual in cards)
    return (
        lubm_setup(universities) + "; Q9's four-atom core, every cover planned and run",
        ["quantity", "measured"],
        [
            ["covers in the partition space (Bell(4))", len(measured)],
            ["Spearman ρ(estimated cost, measured time)", "%.2f" % rho],
            ["GCov's cover and cost", "%r, %.0f" % (greedy.cover, greedy.cost)],
            ["partition-space best / median cost", "%.0f / %.0f" % (search.cost, median)],
            ["covers GCov explores on Example 1", ex1.explored_count],
            ["Q9 plan nodes with estimated and actual rows (demo step 3)", len(cards)],
        ],
    )


@experiment("E9", "Impact of constraint and query modifications on Ref")
def e9(quick: bool) -> Result:
    schema = lubm_schema()
    query = example1_query()
    baseline = ucq_size(query, schema)

    def edited(*constraints: Constraint) -> int:
        variant = schema.copy()
        for constraint in constraints:
            variant.add(constraint)
        return ucq_size(query, variant)

    deeper = edited(Constraint.subclass(UB.term("EmeritusProfessor"), UB.FullProfessor))
    richer = edited(Constraint.domain(UB.term("mentors"), UB.Professor))
    person = edited(Constraint.domain(UB.term("mentors"), UB.Person))
    pruned_schema = schema.copy()
    for constraint in list(pruned_schema.direct_constraints()):
        if constraint.kind in (ConstraintKind.DOMAIN, ConstraintKind.RANGE):
            pruned_schema.remove(constraint)
    pruned = ucq_size(query, pruned_schema)
    bound = ucq_size(
        query.substitute({query.head[1]: UB.Student, query.head[3]: UB.Professor}), schema)
    assert deeper > baseline and richer > baseline and pruned < baseline
    # Two open type atoms feel every edit, so one constraint moves the
    # size quadratically: the "dramatic impact".
    assert person > baseline * 1.01, (person, baseline)
    assert bound < baseline / 100, bound
    variants = [
        ("baseline LUBM schema", baseline),
        ("+ EmeritusProfessor ⊑ FullProfessor", deeper),
        ("+ mentors with domain Professor", richer),
        ("+ mentors with domain Person", person),
        ("− all domain/range constraints", pruned),
        ("type variables u, v bound to Student, Professor", bound),
    ]
    return (
        "LUBM RDFS schema and its edits; Example 1's query",
        ["schema or query edit", "Example 1 UCQ disjuncts", "vs baseline"],
        [[label, count(size), "×%.3f" % (size / baseline)] for label, size in variants],
    )


def sharded(graph: Graph, parts: int) -> List[Graph]:
    shards = [Graph() for _ in range(parts)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % parts].add(triple)
    return shards


def canonical_bytes(rows) -> bytes:
    return "\n".join("|".join(term.lexical() for term in row) for row in sorted(rows)).encode()


@experiment("E11", "Distributed endpoints: Sat infeasible, Ref complete, fetches fan out")
def e11(quick: bool) -> Result:
    universities = base_scale(quick)
    graph = generate_lubm(universities=universities, seed=SEED, include_schema=False)
    schema = lubm_schema()
    shards = sharded(graph, 4)
    endpoints = [Endpoint("shard%d" % index, shard) for index, shard in enumerate(shards)]
    full = graph.copy()
    full.add_all(schema.to_triples())
    closure = saturate(full)
    # Road 1 to a global closure: dump every endpoint.  Refused.
    for endpoint in endpoints:
        try:
            endpoint.export()
        except ExportForbidden:
            continue
        raise AssertionError("%s allowed a bulk export" % endpoint.name)
    # Road 2: crawl the query interface under a 50-row result limit.
    x, p, o = Variable("x"), Variable("p"), Variable("o")
    crawl = ConjunctiveQuery([x, p, o], [TriplePattern(x, p, o)])
    crawled = [Endpoint("l%d" % index, shard, result_limit=50).evaluate(crawl)
               for index, shard in enumerate(shards)]
    harvested = sum(len(result) for result in crawled)
    assert all(result.truncated for result in crawled) and harvested < len(graph)

    latency = 0.05

    def fanned_out(query, workers: int):
        chaotic = [
            ChaosEndpoint(
                endpoint, FaultPlan(seed=index, latency_rate=1.0, latency_seconds=latency))
            for index, endpoint in enumerate(endpoints)
        ]
        return timed(lambda: FederatedAnswerer(chaotic, schema, parallelism=workers).answer(query))

    rows: List[List[object]] = []
    serial_total = parallel_total = 0.0
    for name in ("Q1", "Q2", "Q5", "Q6", "Q13"):
        query = lubm_queries()[name]
        answer = FederatedAnswerer(endpoints, schema).answer(query)
        assert answer.rows == evaluate_cq(closure, query) and not answer.truncated, name
        if name == "Q1":
            # Saturating would move all of the data, continuously.
            assert answer.rows_transferred < 0.5 * len(graph), answer.rows_transferred
        serial, serial_seconds = fanned_out(query, 1)
        parallel, parallel_seconds = fanned_out(query, 4)
        assert serial.complete and parallel.complete, name
        assert (canonical_bytes(serial.rows) == canonical_bytes(parallel.rows)
                == canonical_bytes(answer.rows)), name
        assert serial.requests == parallel.requests == answer.requests, name
        serial_total += serial_seconds
        parallel_total += parallel_seconds
        rows.append([name, answer.cardinality, answer.requests, count(answer.rows_transferred),
                     "%.1f%%" % (100.0 * answer.rows_transferred / len(graph)),
                     ms(serial_seconds), ms(parallel_seconds),
                     "%.2f×" % (serial_seconds / parallel_seconds)])
    # Q13 entails through a subproperty constraint the client holds
    # while the degree triples are scattered over the shards.
    assert rows[-1][1] > 0
    # The requests wait on the endpoints, so four workers overlap them;
    # the local evaluation between them does not, which is why a query
    # with one request per endpoint (Q6) gains least.
    fan_out = serial_total / parallel_total
    assert fan_out >= 2.0, fan_out
    rows.append(["all five", "", "", "", "", ms(serial_total), ms(parallel_total),
                 "%.2f×" % fan_out])
    return (
        "LUBM data, %s (%s triples), seed %d, sharded over 4 endpoints: exports refused, a "
        "limit-50 crawl harvests %s of them, truncated on all 4; %d ms latency injected per "
        "request for the fan-out"
        % (scale(universities), count(len(graph)), SEED, count(harvested), latency * 1e3),
        ["query", "answers (= saturation)", "requests", "rows moved", "of the data",
         "1 worker ms", "4 workers ms", "fan-out"],
        rows,
    )


@experiment("E12", "Validation on a genuine RDBMS (SQLite)")
def e12(quick: bool) -> Result:
    universities = base_scale(quick)
    answering = answerer(universities)
    schema = answering.schema
    query = example1_query()
    best_cover = example1_best_cover(query)
    with SqliteBackend(answering.store) as backend:
        for name in ("Q1", "Q4", "Q5", "Q6", "Q13", "Q14"):
            union = reformulate(lubm_queries()[name], schema)
            assert backend.run(union) == answering.executor.run(union).answer(), name
        for jucq in (scq_reformulation(query, schema), jucq_for_cover(best_cover, schema)):
            assert backend.run(jucq) == answering.executor.run(jucq).answer()
        # A real parser's limit: one compound SELECT past it is refused
        # (Example 1's UCQ would exceed it by far more).
        assert ucq_size(query, schema) > SQLITE_COMPOUND_SELECT_LIMIT
        x = Variable("x")
        probe = UnionQuery([ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, UB.Course)])]
                           * (SQLITE_COMPOUND_SELECT_LIMIT + 1))
        try:
            backend.run(probe)
        except sqlite3.OperationalError:
            pass
        else:
            raise AssertionError("SQLite accepted %d compound SELECTs" % len(probe))
    rows: List[List[object]] = []
    speedups = []
    for universities in ((1, 2) if quick else (2, 20, 40)):
        store = TripleStore.from_graph(lubm(universities))
        scq = scq_reformulation(query, store.schema)
        best = jucq_for_cover(best_cover, store.schema)
        with SqliteBackend(store) as backend:
            scq_answer, scq_seconds = timed(lambda: backend.run(scq), 3)
            best_answer, best_seconds = timed(lambda: backend.run(best), 3)
        assert scq_answer == best_answer, universities
        speedups.append(scq_seconds / best_seconds)
        rows.append([universities, count(len(lubm(universities))), ms(scq_seconds),
                     ms(best_seconds), "%.1f×" % speedups[-1]])
    assert all(speedup > 1.5 for speedup in speedups), speedups
    if not quick:
        assert speedups[-1] > speedups[0], speedups  # the gap grows with data
    return (
        "LUBM, seed %d, SQLite %s, best of 3 per cell; SQLite returns the columnar engine's "
        "answers on Q1, Q4, Q5, Q6, Q13, Q14 and both Example 1 JUCQs, and refuses %d compound "
        "SELECTs (limit %d)" % (SEED, sqlite3.sqlite_version, SQLITE_COMPOUND_SELECT_LIMIT + 1,
                                SQLITE_COMPOUND_SELECT_LIMIT),
        ["universities", "triples", "SCQ ms", "best cover ms", "speedup"],
        rows,
    )


# ---------------------------------------------------------------------------
# Ablations of the paper's estimator, pruning and search choices

EXACT = BackendProfile("exact-stats", exact_constant_stats=True)
UNIFORM = BackendProfile("uniform-stats", exact_constant_stats=False)


@experiment("A1", "Ablation: exact per-constant statistics vs textbook uniformity")
def a1(quick: bool) -> Result:
    universities = base_scale(quick)
    answering = answerer(universities)
    store, schema = answering.store, answering.schema
    planner = Planner(store, EXACT)
    errors = {True: [], False: []}
    for name in ("Q1", "Q3", "Q4", "Q7"):
        for atom in lubm_queries()[name].atoms:
            scan = planner._scan_for_atom(atom)
            if scan is None or scan.bound_positions()[::2] == (None, None):
                continue  # no constant beyond the property
            actual = len(execute_plan(scan, store))
            for exact in errors:
                estimate = estimate_scan(
                    scan.positions, store.statistics, store.type_property_id, exact)
                errors[exact].append(abs(estimate - actual))
    query = example1_query()
    rows: List[List[object]] = []
    rhos = {}
    chosen = {}
    for label, profile in (("exact (MCV-style)", EXACT), ("uniformity (the paper's)", UNIFORM)):
        _, _, measured = cover_space(store, schema, q9_core(), profile)
        rhos[profile.name] = spearman([c for _, c, _ in measured], [s for _, _, s in measured])
        chosen[profile.name] = gcov(query, schema, store, profile).cover
        mean_error = sum(errors[profile is EXACT]) / len(errors[profile is EXACT])
        grouped = groups_type_atoms(chosen[profile.name])
        rows.append([label, "%.2f" % rhos[profile.name], "%.2f" % mean_error,
                     "%r" % chosen[profile.name], "yes" if grouped else "no"])
    assert rhos["exact-stats"] >= rhos["uniform-stats"] - 0.15, rhos  # exactness must not hurt
    assert sum(errors[True]) <= sum(errors[False]), errors
    assert groups_type_atoms(chosen["uniform-stats"])
    # Greedy and beam agree under exact statistics: whatever they pick
    # is the model speaking, not the search.
    beam = beam_search(query, schema, store, EXACT, beam_width=4)
    assert groups_type_atoms(chosen["exact-stats"]) == groups_type_atoms(beam.cover)
    return (
        lubm_setup(universities) + "; E8's cover space; %d constant-bound scans of Q1, Q3, Q4, Q7"
        % len(errors[True]),
        ["statistics", "Spearman(est, measured)", "mean abs. error per scan",
         "GCov's Example 1 cover", "groups t1, t2"],
        rows,
    )


@experiment("A2", "Ablation: UCQ subsumption pruning vs schema minimisation")
def a2(quick: bool) -> Result:
    universities = base_scale(quick)
    answering = answerer(universities)
    rows: List[List[object]] = []
    for name in ("Q2", "Q5", "Q6", "Q8", "Q9", "Q13"):
        query = lubm_queries()[name]
        union = reformulate(query, answering.schema)
        pruned, prune_seconds = timed(lambda: prune_subsumed(union))
        (minimised, _), minimise_seconds = timed(
            lambda: minimize_under_schema(query, answering.schema))
        small = reformulate(minimised, answering.schema)
        full_answer, full_seconds = timed(lambda: answering.executor.run(union).answer())
        pruned_answer, pruned_seconds = timed(lambda: answering.executor.run(pruned).answer())
        small_answer, small_seconds = timed(lambda: answering.executor.run(small).answer())
        assert pruned_answer == full_answer, name
        assert small_answer == full_answer, name
        rows.append([name, len(query.atoms), count(len(union)), count(len(pruned)),
                     ms(prune_seconds), len(minimised.atoms), count(len(small)),
                     ms(minimise_seconds), ms(full_seconds), ms(pruned_seconds),
                     ms(small_seconds)])
    assert any(row[3] != row[2] for row in rows), "pruning never bit"
    assert any(row[5] < row[1] for row in rows), "minimisation never bit"
    return (
        lubm_setup(universities),
        ["query", "atoms", "disjuncts", "after pruning", "prune ms", "atoms minimised",
         "disjuncts minimised", "minimise ms", "evaluate full ms", "evaluate pruned ms",
         "evaluate minimised ms"],
        rows,
    )


@experiment("A3", "Ablation: greedy GCov vs beam search")
def a3(quick: bool) -> Result:
    universities = base_scale(quick)
    answering = answerer(universities)
    context = (answering.schema, answering.store, answering.backend)
    catalog = dict(lubm_queries(), Ex1=example1_query())
    rows: List[List[object]] = []
    for name in ("Q2", "Q7", "Q8", "Q9", "Ex1"):
        estimator = CoverCostEstimator(catalog[name], *context)
        greedy = gcov(catalog[name], *context, estimator=estimator)
        beam = beam_search(catalog[name], *context, beam_width=4, estimator=estimator)
        assert beam.cost <= greedy.cost + 1e-9, name
        assert beam.explored_count >= greedy.explored_count, name
        gap = (greedy.cost - beam.cost) / greedy.cost if greedy.cost > 0 else 0.0
        rows.append([name, "%.0f" % greedy.cost, greedy.explored_count, "%.0f" % beam.cost,
                     beam.explored_count, "%.1f%%" % (100 * gap)])
    return (
        lubm_setup(universities) + "; beam width 4, same moves and cost model",
        ["query", "GCov cost", "GCov explored", "beam cost", "beam explored", "greedy gap"],
        rows,
    )


def star_queries():
    """Star-shaped sub-queries drawn from the workload's joins."""
    s = Variable("s")
    o = [Variable("o%d" % index) for index in range(3)]

    def star(*properties) -> ConjunctiveQuery:
        return ConjunctiveQuery([s] + o[: len(properties)],
                                [TriplePattern(s, prop, o[i]) for i, prop in enumerate(properties)])

    return [
        ("degrees", star(UB.mastersDegreeFrom, UB.doctoralDegreeFrom)),
        ("teaching-faculty", star(UB.worksFor, UB.teacherOf)),
        ("student-profile", star(UB.memberOf, UB.takesCourse)),
        ("full-degree-star", star(UB.undergraduateDegreeFrom, UB.mastersDegreeFrom,
                                  UB.doctoralDegreeFrom)),
        # Students take courses and faculty teach them: no subject does
        # both, but the independence assumption predicts hundreds.
        ("disjoint-roles", star(UB.takesCourse, UB.teacherOf)),
    ]


@experiment("A4", "Ablation: characteristic sets vs textbook star estimates")
def a4(quick: bool) -> Result:
    universities = base_scale(quick)
    graph = lubm(universities)
    store = answerer(universities).store
    charsets = CharacteristicSets(store)
    subjects = store.statistics.distinct_subjects
    assert charsets.set_count < subjects / 10, (charsets.set_count, subjects)
    rows: List[List[object]] = []
    errors = {"charset": 0.0, "textbook": 0.0}
    for name, query in star_queries():
        actual = len(evaluate_cq(graph, query))
        properties = charsets.star_properties(query)
        assert properties is not None, name
        charset = charsets.estimate_star_rows(properties)
        textbook = Planner(store, HASH_BACKEND).plan(query).estimated_rows
        errors["charset"] += abs(charset - actual) / max(actual, 1)
        errors["textbook"] += abs(textbook - actual) / max(actual, 1)
        rows.append([name, count(actual), "%.1f" % charset, "%.1f" % textbook])
    # LUBM's correlations are clean containments, where the textbook
    # assumption is exact too; the anti-correlated star is where it
    # breaks while characteristic sets stay exact.
    assert errors["charset"] < errors["textbook"], errors
    degrees = star_queries()[0][1]
    subject_only = ConjunctiveQuery([Variable("s")], degrees.atoms)
    assert charsets.star_subject_count(charsets.star_properties(degrees)) == len(
        evaluate_cq(graph, subject_only)
    )
    return (
        lubm_setup(universities) + "; %s subjects in %d characteristic sets; mean relative "
        "error %.2f (charsets) vs %.2f (textbook)" % (count(subjects), charsets.set_count,
                                                       errors["charset"] / len(rows),
                                                       errors["textbook"] / len(rows)),
        ["star query", "actual rows", "charset estimate", "textbook estimate"],
        rows,
    )


# ---------------------------------------------------------------------------
# The runner


def markdown(entry: Experiment, setup: str, headers: Sequence[str], rows) -> str:
    lines = [
        "## %s — %s" % (entry.identifier, entry.claim),
        "",
        "Set-up: %s; Python %s." % (setup, platform.python_version()),
        "",
        "| " + " | ".join(headers) + " |",
        "|" + "---|" * len(headers),
    ]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    index = {entry.identifier: entry for entry in EXPERIMENTS}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="experiments to run (default: all of %s)" % ", ".join(index))
    parser.add_argument("--quick", action="store_true",
                        help="smallest scale that still shows each shape")
    args = parser.parse_args(argv)
    unknown = [identifier for identifier in args.ids if identifier not in index]
    if unknown:
        parser.error("unknown experiment id(s) %s; choose from %s"
                     % (", ".join(unknown), ", ".join(index)))
    failed = []
    for entry in [index[identifier] for identifier in args.ids] or EXPERIMENTS:
        try:
            print(markdown(entry, *entry.run(args.quick)), flush=True)
        except AssertionError as exc:
            failed.append(entry.identifier)
            where = traceback.extract_tb(exc.__traceback__)[-1]
            print("%s: shape assertion failed at line %d: %s"
                  % (entry.identifier, where.lineno, str(exc) or where.line), file=sys.stderr)
    if failed:
        print("failed: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
