"""The demonstration's subcommands: stats, answer, cache-stats,
federate, explain, covers and why."""

from __future__ import annotations

import sqlite3

from ..cache import QueryCache
from ..core import ANSWERER_ENGINES, QueryAnswerer, Strategy
from ..datasets import example1_best_cover
from ..query.visualize import format_table, render_strategy
from ..rdf import shorten
from ..resilience.errors import BudgetExceeded
from ..saturation import explain_triple, format_derivation
from ..schema import Schema
from ..storage import QueryTooLargeError, explain as explain_plan
from . import EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, UsageError
from .options import (
    DATASET,
    QUERY,
    STRATEGIES,
    add_command,
    at_least_two,
    build_graph,
    parse_triple,
    positive_int,
    rate,
    resolve_query,
)


def cmd_stats(args) -> int:
    store = QueryAnswerer(build_graph(args)).store
    summary = store.statistics.summary()
    print(format_table(list(summary), [list(summary.values())],
                       title="dataset statistics"))
    rows = [
        [
            shorten(store.dictionary.decode(property_id)),
            property_stats.triples,
            property_stats.distinct_subjects,
            property_stats.distinct_objects,
        ]
        for property_id, property_stats in sorted(
            store.statistics.per_property.items(), key=lambda item: -item[1].triples
        )[: args.top]
    ]
    print()
    print(format_table(["property", "triples", "#subjects", "#objects"], rows))
    return EXIT_OK


def _strategies(args) -> list:
    """The strategies ``--strategy`` names; ``all`` leaves out
    ``ref-jucq``, which needs a cover no flag supplies."""
    if args.strategy == Strategy.REF_JUCQ.value:
        raise UsageError("ref-jucq needs an explicit cover; use the `covers` "
                         "subcommand, or ref-gcov for the cost-chosen cover")
    if args.strategy == "all":
        return [strategy for strategy in Strategy if strategy is not Strategy.REF_JUCQ]
    return [Strategy(args.strategy)]


#: What answering a query may fail with, short of a bug: it is too
#: large to plan, or it ran over its budget.
_ANSWER_FAILURES = (QueryTooLargeError, BudgetExceeded)


def _answer_each(answerer, query, strategies, repeat, **budget):
    """Per strategy, ``(strategy, reports)`` of *repeat* answers, or
    ``(strategy, error)`` when the query is too large or over budget,
    for SQLite too (its compound-SELECT limit raises
    ``sqlite3.OperationalError``).  Under a budget Datalog is skipped:
    it has no relational evaluation to charge."""
    for strategy in strategies:
        if budget and strategy is Strategy.DATALOG:
            continue
        try:
            yield strategy, [answerer.answer(query, strategy, **budget)
                             for _ in range(repeat)]
        except _ANSWER_FAILURES as exc:
            yield strategy, exc
        except sqlite3.OperationalError as exc:
            if answerer.engine != "sqlite":
                raise
            yield strategy, exc


def _cache(args) -> QueryCache:
    return QueryCache(reformulation_capacity=args.cache_size,
                      answer_capacity=args.cache_size)


def _print_details(details) -> None:
    """What compilation decided: the atoms schema minimisation dropped,
    GCov's cover and what it cost to choose it, the interval atoms."""
    dropped = details.get("minimised")
    if dropped:
        print("minimised: dropped %s (implied under the schema)"
              % ", ".join("t%d" % (index + 1) for index in dropped))
    if "explored_covers" in details:
        runner_up = details["runner_up_cost"]
        print("GCov chose %s (estimated cost %.1f, runner-up %s) after "
              "exploring %d covers"
              % (details["cover"], details["estimated_cost"],
                 "none" if runner_up is None else "%.1f" % runner_up,
                 details["explored_covers"]))
        print("cover search: %.1f ms, %d fragments priced, %d estimates computed"
              % (details["search_seconds"] * 1e3, details["fragments_priced"],
                 details["estimates_computed"]))
    interval = details.get("interval")
    if interval is not None:
        print("interval atoms: %d (collapsed %d union branch(es))"
              % (interval["interval_atoms"], interval["branches_collapsed"]))


def _print_metrics(execution) -> None:
    """The per-operator metrics (none on the SQLite engine)."""
    if execution is None:
        print("no per-operator metrics (run with --engine columnar)")
        return
    metrics = execution.metrics
    print(format_table(
        ["operator", "rows in", "rows out", "batches", "peak buffered", "ms"],
        metrics.table_rows(), title="per-operator metrics"))
    print("peak buffered rows: %d" % metrics.peak_buffered_rows)


def _print_rows(rows, limit: int) -> None:
    for answer_row in sorted(rows)[:limit]:
        print("   ", tuple(str(term.lexical()) for term in answer_row))


def cmd_answer(args) -> int:
    strategies = _strategies(args)
    cache = _cache(args) if args.cache else None
    answerer = QueryAnswerer(build_graph(args), engine=args.engine, cache=cache,
                             interval_encoding=args.interval_encoding)
    query = resolve_query(args)
    budget = {}
    if args.row_budget is not None or args.timeout is not None:
        budget = dict(row_budget=args.row_budget, time_budget=args.timeout,
                      budget_fallbacks=args.max_retries,
                      allow_partial=args.allow_partial)
    repeat = args.repeat
    warm = ["-"] if repeat > 1 else []
    rows = []
    for strategy, reports in _answer_each(answerer, query, strategies, repeat,
                                          **budget):
        if isinstance(reports, Exception):
            message = str(reports)[:60]
            partial_rows = getattr(reports, "partial_rows", None)
            if partial_rows is not None:
                message += " [%d partial row(s); --allow-partial keeps them]" % (
                    len(partial_rows),
                )
            rows.append([strategy.value, "FAIL"] + warm + [message]
                        + (["-"] if cache is not None else []))
            continue
        report = reports[-1]
        row = [strategy.value, "%.1f" % (reports[0].elapsed_seconds * 1e3)]
        if repeat > 1:
            row.append("%.1f" % (report.elapsed_seconds * 1e3))
        row.append(str(report.cardinality)
                   + (" (partial)" if report.details.get("partial") else ""))
        if cache is not None:
            row.append(report.details.get("cache", {}).get("answer", "-"))
        rows.append(row)
        if args.show_answers and len(strategies) == 1:
            _print_rows(report.answer, args.limit)
        if args.show_metrics and len(strategies) == 1:
            _print_details(report.details)
            _print_metrics(report.execution)
    header = ["strategy", "ms"] + (["warm ms"] if repeat > 1 else []) + ["answers"]
    if cache is not None:
        header.append("cache")
    print(format_table(header, rows, title="answers"))
    return EXIT_OK


def cmd_cache_stats(args) -> int:
    """Answer a query repeatedly through a fresh cache and print the
    warm/cold timings plus the hit/miss/eviction/invalidation counters
    of both tiers — the observability face of the cache subsystem."""
    strategies = _strategies(args)
    cache = _cache(args)
    answerer = QueryAnswerer(build_graph(args), engine=args.engine, cache=cache)
    query = resolve_query(args)
    repeat = args.repeat
    rows = []
    for strategy, reports in _answer_each(answerer, query, strategies, repeat):
        if isinstance(reports, Exception):
            rows.append([strategy.value, "FAIL", "-", "-", str(reports)[:40]])
            continue
        cold, warm = reports[0], reports[-1]
        speedup = (
            cold.elapsed_seconds / warm.elapsed_seconds
            if warm.elapsed_seconds > 0
            else float("inf")
        )
        rows.append([
            strategy.value,
            "%.2f" % (cold.elapsed_seconds * 1e3),
            "%.3f" % (warm.elapsed_seconds * 1e3),
            "%.0fx" % speedup,
            cold.cardinality,
        ])
    print(format_table(["strategy", "cold ms", "warm ms", "speedup", "answers"],
                       rows, title="cold vs warm (%d runs)" % repeat))
    print()
    stats = cache.stats()
    tier_rows = [
        [
            tier,
            stats[tier]["hits"],
            stats[tier]["misses"],
            stats[tier]["evictions"],
            stats[tier]["invalidations"],
            "%d/%d" % (stats[tier]["entries"], stats[tier]["capacity"]),
        ]
        for tier in ("reformulation", "answer")
    ]
    print(format_table(
        ["tier", "hits", "misses", "evictions", "invalidations", "entries"],
        tier_rows, title="cache counters"))
    print("\nepochs: data %d (invalidations %d), schema %d (invalidations %d)"
          % (stats["data_epoch"], stats["data_invalidations"],
             stats["schema_epoch"], stats["schema_invalidations"]))
    return EXIT_OK


def cmd_federate(args) -> int:
    """Shard the dataset across N endpoints, answer the query through
    the federated client, and print the answer with its per-endpoint
    completeness report.  Chaos flags (seeded) inject faults so the
    retry/breaker/degradation machinery can be exercised from a shell.
    """
    from ..federation import Endpoint, FederatedAnswerer
    from ..rdf import Graph
    from ..resilience import ExecutionBudget, RetryPolicy
    from ..resilience.faults import ChaosEndpoint, FaultPlan

    graph = build_graph(args)
    query = resolve_query(args)
    schema = Schema.from_graph(graph)
    shards = [Graph() for _ in range(args.endpoints)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % args.endpoints].add(triple)
    endpoints = [
        Endpoint("shard-%d" % index, shard, result_limit=args.result_limit)
        for index, shard in enumerate(shards)
    ]
    if args.outage is not None and not (0 <= args.outage < args.endpoints):
        raise UsageError(
            "--outage must name an endpoint index in [0, %d)" % args.endpoints
        )
    if args.transient_rate > 0 or args.outage is not None:
        endpoints = [
            ChaosEndpoint(
                endpoint,
                FaultPlan(
                    seed=args.chaos_seed + index,
                    transient_rate=args.transient_rate,
                    outage_after=0 if index == args.outage else None,
                ),
            )
            for index, endpoint in enumerate(endpoints)
        ]
    answerer = FederatedAnswerer(
        endpoints,
        schema,
        retry_policy=RetryPolicy(
            max_attempts=args.max_retries + 1, seed=args.chaos_seed
        ),
        request_deadline=args.timeout,
        breaker_threshold=args.breaker_threshold,
        parallelism=args.parallelism,
    )
    budget = (
        ExecutionBudget(max_rows=args.row_budget)
        if args.row_budget is not None
        else None
    )
    try:
        result = answerer.answer(query, budget=budget)
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc)
        return EXIT_FAILURE
    print(
        "%d answer row(s) over %d endpoint(s), %d request(s), "
        "%d row(s) transferred"
        % (result.cardinality, args.endpoints, result.requests,
           result.rows_transferred)
    )
    if args.show_answers:
        _print_rows(result.rows, args.limit)
    print()
    print(result.report.summary())
    return EXIT_OK if result.complete else EXIT_PARTIAL


def cmd_explain(args) -> int:
    (strategy,) = _strategies(args)
    answerer = QueryAnswerer(build_graph(args), engine=args.engine,
                             interval_encoding=args.interval_encoding)
    query = resolve_query(args)
    try:
        report = answerer.answer(query, strategy)
    except _ANSWER_FAILURES as exc:
        print("strategy %s failed: %s" % (args.strategy, exc))
        return EXIT_FAILURE
    if report.execution is None:
        print("strategy %s has no relational plan" % args.strategy)
        return EXIT_FAILURE
    _print_details(report.details)
    print(explain_plan(report.execution.plan, answerer.store,
                       metrics=report.execution.metrics))
    print()
    _print_metrics(report.execution)
    return EXIT_OK


def cmd_covers(args) -> int:
    """GCov's search over the minimised query ``ref-gcov`` answers."""
    answerer = QueryAnswerer(build_graph(args))
    compiled = answerer.compile(resolve_query(args), Strategy.REF_GCOV)
    print(render_strategy(compiled.cover))
    print()
    _print_details(compiled.details)
    print(format_table(
        ["cover", "estimated cost"],
        [[repr(cover), "%.1f" % cost] for cover, cost in compiled.ranked[: args.top]],
        title="cheapest explored covers",
    ))
    if args.dataset == "lubm" and args.query == "Ex1":
        paper = example1_best_cover(compiled.minimised)
        print("\npaper's cover: %r" % paper)
    return EXIT_OK


def cmd_why(args) -> int:
    graph = build_graph(args)
    triple = parse_triple(args.triple)
    derivation = explain_triple(triple, graph, Schema.from_graph(graph))
    if derivation is None:
        print("not entailed: %r" % (triple,))
        return EXIT_FAILURE
    print(format_derivation(derivation))
    return EXIT_OK


def register(subparsers) -> None:
    stats = add_command(subparsers, "stats", cmd_stats,
                        "dataset statistics (demo step 1)", *DATASET)
    stats.add_argument("--top", type=positive_int, default=10)

    answer = add_command(
        subparsers, "answer", cmd_answer, "answer a query (demo step 2)",
        *DATASET, *QUERY, "--strategy", "--show-answers", "--limit",
        "--engine", "--interval-encoding", "--cache-size", "--timeout",
        "--row-budget", "--max-retries", max_retries=dict(default=3),
    )
    answer.add_argument("--show-metrics", action="store_true",
                        help="print the compilation details and the "
                             "per-operator metric table (single strategy)")
    answer.add_argument("--allow-partial", action="store_true",
                        help="on budget overrun, keep the rows produced so "
                             "far as a degraded answer (columnar engine)")
    answer.add_argument("--cache", action="store_true",
                        help="answer through a reformulation+answer cache "
                             "(see `cache-stats` for its counters)")
    answer.add_argument("--repeat", type=positive_int, default=1,
                        help="answer N times (with --cache the repeats hit "
                             "the cache; a warm-ms column is shown)")

    federate = add_command(
        subparsers, "federate", cmd_federate,
        "answer over the dataset sharded across N endpoints, with "
        "optional injected faults and a completeness report",
        *DATASET, *QUERY, "--timeout", "--max-retries", "--row-budget",
        "--breaker-threshold", "--show-answers", "--limit",
        max_retries=dict(default=2),
    )
    federate.add_argument("--endpoints", type=positive_int, default=3,
                          help="number of shards/endpoints (default 3)")
    federate.add_argument("--result-limit", type=positive_int, default=None,
                          help="per-endpoint answer truncation limit")
    federate.add_argument("--parallelism", type=positive_int, default=1,
                          help="worker threads for per-endpoint "
                               "fan-out (1 = serial)")
    federate.add_argument("--chaos-seed", type=int, default=0,
                          help="seed for the injected fault schedule")
    federate.add_argument("--transient-rate", type=rate, default=0.0,
                          help="probability a request fails transiently")
    federate.add_argument("--outage", type=int, default=None,
                          help="index of an endpoint that is permanently "
                               "down")

    cache_stats = add_command(
        subparsers, "cache-stats", cmd_cache_stats,
        "cold vs warm answering through the cache, with counters",
        *DATASET, *QUERY, "--strategy", "--engine", "--cache-size",
    )
    cache_stats.add_argument("--repeat", type=at_least_two, default=3,
                             help="runs per strategy, at least 2 (first is "
                                  "cold; default 3)")

    add_command(
        subparsers, "explain", cmd_explain, "show a plan (demo step 3)",
        *DATASET, *QUERY, "--strategy", "--engine", "--interval-encoding",
        strategy=dict(default="ref-gcov", choices=STRATEGIES),
        engine=dict(choices=[engine for engine in ANSWERER_ENGINES
                             if engine != "sqlite"],
                    help="in-process evaluation engine (a plan is needed); "
                         "the per-operator metric table follows the plan"),
    )

    covers = add_command(subparsers, "covers", cmd_covers,
                         "explore covers (demo step 3)", *DATASET, *QUERY)
    covers.add_argument("--top", type=positive_int, default=8)

    why = add_command(subparsers, "why", cmd_why,
                      "explain how a triple is entailed", *DATASET)
    why.add_argument("--triple", required=True,
                     help="the triple, N-Triples style (rdf:/rdfs: allowed)")
