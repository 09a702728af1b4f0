"""Command-line interface: the demo's workflows from a shell.

    python -m repro stats --dataset lubm --universities 2
    python -m repro answer --dataset lubm --query Q9 --strategy ref-gcov
    python -m repro answer --dataset books --sparql "SELECT ?x WHERE {...}"
    python -m repro answer --dataset lubm --query Q5 --engine sqlite
    python -m repro explain --dataset lubm --query Q1
    python -m repro covers --dataset lubm --query Ex1
    python -m repro why --dataset books --triple \
        '<http://example.org/books/doi1> rdf:type <http://example.org/books/Publication>'
    python -m repro load --dataset lubm --wal /tmp/lubm-wal --checkpoint
    python -m repro checkpoint --wal /tmp/lubm-wal
    python -m repro recover --wal /tmp/lubm-wal --verify
    python -m repro serve --dataset lubm --tenants alpha:3 beta:1 --requests 12
    python -m repro replicate --writes 40 --drop-rate 0.2 --dir /tmp/cluster
    python -m repro replstatus --dir /tmp/cluster

Each subcommand maps to one step of the Section 5 demonstration:
``stats`` is step 1, ``answer`` (with ``--strategy all``) is step 2,
``explain``/``covers`` are step 3; ``why`` prints the derivation of an
entailed triple.  ``load --wal`` / ``checkpoint`` / ``recover`` drive
the crash-safe storage layer (DESIGN.md §10); ``serve`` runs a
scripted multi-tenant serving session through the admission-controlled
query service (DESIGN.md §13).

Exit codes (documented in README.md):

====  =======================================================
0     success (``recover``: clean, nothing truncated;
      ``serve``: every submitted request completed)
1     failure (including ``recover --verify`` discrepancies
      and ``serve`` runs where no request completed)
2     usage error (bad flags or flag combinations, malformed
      ``--sparql``, unknown query names): one line on stderr
3     partial answer (``federate``: some endpoints degraded;
      ``serve``: some requests shed, failed, or expired)
4     recovered, but a torn/corrupt WAL tail was truncated
5     nothing to recover (no checkpoint, no WAL records)
6     degraded but served (``serve``: every request got an
      answer, but some answers were stale or flagged partial)
7     replication diverged or unconverged (``replicate``: a
      live follower still differs from the primary after the
      catch-up budget)
====  =======================================================
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .cache import QueryCache
from .core import (
    ANSWERER_ENGINES,
    DEFAULT_ENGINE,
    OptionError,
    QueryAnswerer,
    Strategy,
)
from .datasets import (
    books_dataset,
    example1_best_cover,
    example1_query,
    generate_bib,
    generate_geo,
    generate_lubm,
    lubm_queries,
    bib_queries,
    geo_queries,
)
from .query.visualize import format_table, render_strategy
from .saturation import explain_triple, format_derivation
from .schema import Schema
from .query import QueryParseError, parse_query
from .rdf import ParseError, load_file, shorten
from .reformulation import ReformulationTooLarge
from .resilience.errors import BudgetExceeded
from .storage import QueryTooLargeError, explain as explain_plan

#: Structured exit codes (mirrored in the README's table).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_RECOVERED_TRUNCATED = 4
EXIT_NOTHING_TO_RECOVER = 5
EXIT_DEGRADED = 6
EXIT_REPLICATION = 7


class UsageError(Exception):
    """A bad flag value or combination; ``main`` reports it on one
    line and exits 2."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a flag argparse rejects (an unknown ``--engine``, a
    non-positive budget) like every other usage error: one
    ``repro: error:`` line on stderr, exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, "repro: error: %s\n" % message)


def _build_graph(args):
    if args.dataset == "lubm":
        return generate_lubm(universities=args.universities, seed=args.seed)
    if args.dataset == "geo":
        return generate_geo(seed=args.seed)
    if args.dataset == "bib":
        return generate_bib(seed=args.seed)
    if args.dataset == "books":
        graph, _, _ = books_dataset()
        return graph
    if args.dataset == "file":
        if not args.file:
            raise UsageError("--dataset file requires --file PATH")
        if getattr(args, "lenient", False):
            errors = []
            graph = load_file(args.file, strict=False, errors=errors)
            if errors:
                print(
                    "skipped %d unparsable line(s) (first: %s)"
                    % (len(errors), errors[0]),
                    file=sys.stderr,
                )
            return graph
        return load_file(args.file)
    raise UsageError("unknown dataset %r" % args.dataset)


def _resolve_query(args):
    if args.sparql:
        return parse_query(args.sparql)
    name = args.query
    if args.dataset == "books":
        # One query, named B1, and the only dataset with a default.
        if not name or name == "B1":
            _, _, query = books_dataset()
            return query
    elif not name:
        raise UsageError("provide --query NAME or --sparql QUERY")
    elif name == "Ex1":
        return example1_query()
    else:
        catalog = {
            "lubm": lubm_queries,
            "geo": geo_queries,
            "bib": bib_queries,
        }.get(args.dataset)
        if catalog and name in catalog():
            return catalog()[name]
    raise UsageError("unknown query %r for dataset %r" % (name, args.dataset))


def cmd_stats(args) -> int:
    answerer = QueryAnswerer(_build_graph(args))
    summary = answerer.store.statistics.summary()
    print(format_table(list(summary), [list(summary.values())],
                       title="dataset statistics"))
    stats = answerer.store.statistics
    rows = [
        [
            shorten(answerer.store.dictionary.decode(property_id)),
            property_stats.triples,
            property_stats.distinct_subjects,
            property_stats.distinct_objects,
        ]
        for property_id, property_stats in sorted(
            stats.per_property.items(), key=lambda item: -item[1].triples
        )[: args.top]
    ]
    print()
    print(format_table(["property", "triples", "#subjects", "#objects"], rows))
    return 0


def _positive_int(value: str) -> int:
    """argparse type for capacities: a clean error beats a traceback."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got %s" % value
        )
    return number


def _positive_float(value: str) -> float:
    """argparse type for durations: a clean error beats a traceback."""
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive number, got %s" % value
        )
    return number


def _rate(value: str) -> float:
    """argparse type for fault probabilities: must lie in [0, 1]."""
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(
            "must be a probability in [0, 1], got %s" % value
        )
    return number


#: Column header of the per-operator metric table (columnar engine).
_METRIC_HEADER = ["operator", "rows in", "rows out", "batches", "peak buffered", "ms"]


def _print_metrics(execution) -> None:
    """Print the per-operator metrics (none on the SQLite engine)."""
    if execution is None:
        print("no per-operator metrics (run with --engine columnar)")
        return
    metrics = execution.metrics
    print(format_table(_METRIC_HEADER, metrics.table_rows(),
                       title="per-operator metrics"))
    print("peak buffered rows: %d" % metrics.peak_buffered_rows)


def _make_cache(args):
    """The answer cache the flags ask for, or None when disabled."""
    if not getattr(args, "cache", False):
        return None
    return QueryCache(
        reformulation_capacity=args.cache_size, answer_capacity=args.cache_size
    )


def _reject_ref_jucq(args) -> None:
    if args.strategy == Strategy.REF_JUCQ.value:
        raise UsageError("ref-jucq needs an explicit cover; use the `covers` "
                         "subcommand, or ref-gcov for the cost-chosen cover")


def cmd_answer(args) -> int:
    _reject_ref_jucq(args)
    cache = _make_cache(args)
    answerer = QueryAnswerer(
        _build_graph(args),
        engine=args.engine,
        cache=cache,
        interval_encoding=args.interval_encoding,
    )
    query = _resolve_query(args)
    strategies = (
        list(Strategy)
        if args.strategy == "all"
        else [Strategy(args.strategy)]
    )
    budget_kwargs = {}
    if args.row_budget is not None or args.timeout is not None:
        budget_kwargs = dict(
            row_budget=args.row_budget,
            time_budget=args.timeout,
            budget_fallbacks=args.max_retries,
            allow_partial=args.allow_partial,
        )
    repeat = max(1, args.repeat)
    rows = []
    for strategy in strategies:
        if strategy is Strategy.REF_JUCQ:
            continue  # needs an explicit cover; use `covers`
        if budget_kwargs and strategy is Strategy.DATALOG:
            continue  # no relational evaluation, nothing to budget
        try:
            reports = [
                answerer.answer(query, strategy, **budget_kwargs)
                for _ in range(repeat)
            ]
            report = reports[-1]
            row = [strategy.value, "%.1f" % (reports[0].elapsed_seconds * 1e3)]
            if repeat > 1:
                row.append("%.1f" % (report.elapsed_seconds * 1e3))
            cardinality = str(report.cardinality)
            if report.details.get("partial"):
                cardinality += " (partial)"
            row.append(cardinality)
            if cache is not None:
                row.append(report.details.get("cache", {}).get("answer", "-"))
            rows.append(row)
            if args.show_answers and len(strategies) == 1:
                for answer_row in sorted(report.answer)[: args.limit]:
                    print("   ", tuple(str(term.lexical()) for term in answer_row))
            if args.show_metrics and len(strategies) == 1:
                if strategy is Strategy.REF_GCOV:
                    # The report carries the search's time; its
                    # counters come from a search of the same inputs.
                    _print_search(
                        answerer.cover_search(query)[0],
                        report.details["search_seconds"],
                    )
                interval = report.details.get("interval")
                if interval is not None:
                    print("interval atoms: %d (collapsed %d union branch(es))"
                          % (interval["interval_atoms"],
                             interval["branches_collapsed"]))
                _print_metrics(report.execution)
        except (QueryTooLargeError, ReformulationTooLarge, BudgetExceeded) as exc:
            row = [strategy.value, "FAIL"]
            if repeat > 1:
                row.append("-")
            message = str(exc)[:60]
            partial_rows = getattr(exc, "partial_rows", None)
            if partial_rows is not None:
                message += " [%d partial row(s); --allow-partial keeps them]" % (
                    len(partial_rows),
                )
            row.append(message)
            if cache is not None:
                row.append("-")
            rows.append(row)
    header = ["strategy", "ms"]
    if repeat > 1:
        header.append("warm ms")
    header.append("answers")
    if cache is not None:
        header.append("cache")
    print(format_table(header, rows, title="answers"))
    return 0


def cmd_cache_stats(args) -> int:
    """Answer a query repeatedly through a fresh cache and print the
    warm/cold timings plus the hit/miss/eviction/invalidation counters
    of both tiers — the observability face of the cache subsystem."""
    _reject_ref_jucq(args)
    cache = QueryCache(
        reformulation_capacity=args.cache_size, answer_capacity=args.cache_size
    )
    answerer = QueryAnswerer(_build_graph(args), engine=args.engine, cache=cache)
    query = _resolve_query(args)
    strategies = (
        list(Strategy)
        if args.strategy == "all"
        else [Strategy(args.strategy)]
    )
    repeat = max(2, args.repeat)
    rows = []
    for strategy in strategies:
        if strategy is Strategy.REF_JUCQ:
            continue
        try:
            reports = [answerer.answer(query, strategy) for _ in range(repeat)]
        except (QueryTooLargeError, ReformulationTooLarge) as exc:
            rows.append([strategy.value, "FAIL", "-", "-", str(exc)[:40]])
            continue
        cold, warm = reports[0], reports[-1]
        speedup = (
            cold.elapsed_seconds / warm.elapsed_seconds
            if warm.elapsed_seconds > 0
            else float("inf")
        )
        rows.append(
            [
                strategy.value,
                "%.2f" % (cold.elapsed_seconds * 1e3),
                "%.3f" % (warm.elapsed_seconds * 1e3),
                "%.0fx" % speedup,
                cold.cardinality,
            ]
        )
    print(
        format_table(
            ["strategy", "cold ms", "warm ms", "speedup", "answers"],
            rows,
            title="cold vs warm (%d runs)" % repeat,
        )
    )
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
    print(
        format_table(
            ["tier", "hits", "misses", "evictions", "invalidations", "entries"],
            tier_rows,
            title="cache counters",
        )
    )
    print(
        "\nepochs: data %d (invalidations %d), schema %d (invalidations %d)"
        % (
            stats["data_epoch"],
            stats["data_invalidations"],
            stats["schema_epoch"],
            stats["schema_invalidations"],
        )
    )
    return 0


def cmd_federate(args) -> int:
    """Shard the dataset across N endpoints, answer the query through
    the federated client, and print the answer with its per-endpoint
    completeness report.  Chaos flags (seeded) inject faults so the
    retry/breaker/degradation machinery can be exercised from a shell.
    """
    from .federation import Endpoint, FederatedAnswerer
    from .rdf import Graph
    from .resilience import ExecutionBudget, RetryPolicy
    from .resilience.faults import ChaosEndpoint, FaultPlan

    graph = _build_graph(args)
    query = _resolve_query(args)
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
    chaotic = args.transient_rate > 0 or args.outage is not None
    if chaotic:
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
        for answer_row in sorted(result.rows)[: args.limit]:
            print("   ", tuple(str(term.lexical()) for term in answer_row))
    print()
    print(result.report.summary())
    return EXIT_OK if result.complete else EXIT_PARTIAL


def cmd_explain(args) -> int:
    _reject_ref_jucq(args)
    answerer = QueryAnswerer(
        _build_graph(args),
        engine=args.engine,
        interval_encoding=args.interval_encoding,
    )
    query = _resolve_query(args)
    report = answerer.answer(query, Strategy(args.strategy))
    if report.execution is None:
        print("strategy %s has no relational plan" % args.strategy)
        return EXIT_FAILURE
    interval = report.details.get("interval")
    if interval is not None:
        print("interval atoms: %d (collapsed %d union branch(es))"
              % (interval["interval_atoms"], interval["branches_collapsed"]))
    print(explain_plan(report.execution.plan, answerer.store))
    print()
    _print_metrics(report.execution)
    return 0


def _print_search(search, seconds: float) -> None:
    """Which cover and why, and what it cost to decide."""
    costs = sorted(cost for _, cost in search.explored)
    print("GCov chose %r (estimated cost %.1f, runner-up %s) after "
          "exploring %d covers"
          % (search.cover, search.cost,
             "%.1f" % costs[1] if len(costs) > 1 else "none",
             search.explored_count))
    print("cover search: %.1f ms, %d fragments priced, %d estimates computed"
          % (seconds * 1e3, search.fragments_priced,
             search.estimates_computed))


def cmd_covers(args) -> int:
    answerer = QueryAnswerer(_build_graph(args))
    query = _resolve_query(args)
    search, seconds = answerer.cover_search(query)
    print(render_strategy(search.cover))
    print()
    _print_search(search, seconds)
    ranked = sorted(search.explored, key=lambda pair: pair[1])[: args.top]
    print(format_table(
        ["cover", "estimated cost"],
        [[repr(cover), "%.1f" % cost] for cover, cost in ranked],
        title="cheapest explored covers",
    ))
    if args.dataset == "lubm" and args.query == "Ex1":
        paper = example1_best_cover(query)
        print("\npaper's cover: %r" % paper)
    return 0


def cmd_why(args) -> int:
    from .rdf.io import parse_line

    graph = _build_graph(args)
    triple_text = args.triple
    # Accept prefixed rdf:/rdfs: names for convenience.
    triple_text = triple_text.replace(
        "rdf:type", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    ).replace(
        "rdfs:subClassOf",
        "<http://www.w3.org/2000/01/rdf-schema#subClassOf>",
    ).replace(
        "rdfs:subPropertyOf",
        "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>",
    )
    triple = parse_line(triple_text + " .")
    derivation = explain_triple(triple, graph, Schema.from_graph(graph))
    if derivation is None:
        print("not entailed: %r" % (triple,))
        return EXIT_FAILURE
    print(format_derivation(derivation))
    return 0


def cmd_load(args) -> int:
    """Load a dataset into a crash-safe store: every triple and
    constraint becomes one WAL record under ``--wal DIR``."""
    from .durability import DurableStore

    graph = _build_graph(args)
    durable = DurableStore.open(
        args.wal, sync=args.sync, with_saturator=args.saturate
    )
    records = durable.load(graph)
    line = "loaded %d record(s) into %s (segment %d, %d triple(s) stored)" % (
        records, args.wal, durable.segment, durable.store.triple_count)
    if args.checkpoint:
        path = durable.checkpoint()
        line += "; checkpoint %s" % path
    durable.close()
    print(line)
    return EXIT_OK


def cmd_checkpoint(args) -> int:
    """Snapshot the durable state under ``--wal DIR`` atomically and
    rotate the WAL, so the next recovery replays only new records."""
    from .durability import DurableStore

    durable = DurableStore.open(args.wal, with_saturator=args.saturate)
    if durable.recovery.empty:
        print("nothing to checkpoint: %s holds no durable state" % args.wal)
        return EXIT_NOTHING_TO_RECOVER
    path = durable.checkpoint()
    durable.close()
    print(
        "checkpoint %s (%d triple(s), WAL rotated to segment %d)"
        % (path, durable.store.triple_count, durable.segment)
    )
    return EXIT_OK


def cmd_recover(args) -> int:
    """Recover the store under ``--wal DIR`` and report what happened.

    Exit codes: 0 clean recovery, 4 recovered after truncating a
    torn/corrupt WAL tail, 5 nothing to recover, 1 ``--verify`` found
    discrepancies.
    """
    import json

    from .durability import recover, verify_recovery

    result = recover(
        args.wal,
        with_saturator=args.saturate,
        truncate=not args.read_only,
    )
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        width = max(len(key) for key in summary)
        for key, value in summary.items():
            print("%-*s  %s" % (width, key, value))
    if result.empty:
        return EXIT_NOTHING_TO_RECOVER
    if args.verify:
        problems = verify_recovery(result)
        if problems:
            for problem in problems:
                print("VERIFY FAILED: %s" % problem, file=sys.stderr)
            return EXIT_FAILURE
        print("verified: recovered state matches a fresh rebuild")
    return EXIT_RECOVERED_TRUNCATED if result.truncated else EXIT_OK


def _catalog_query(args, name: str):
    """Resolve a catalog query *name* for the selected dataset."""
    if args.dataset == "books" or name == "default":
        _, _, query = books_dataset()
        return query
    if name == "Ex1":
        return example1_query()
    catalog = {
        "lubm": lubm_queries,
        "geo": geo_queries,
        "bib": bib_queries,
    }.get(args.dataset)
    if catalog and name in catalog():
        return catalog()[name]
    raise UsageError("unknown query %r for dataset %r" % (name, args.dataset))


def _parse_serve_script(lines):
    """Parse a ``serve --script`` file into (verb, payload) commands.

    Grammar (``#`` comments and blank lines ignored)::

        submit TENANT QUERY [priority=P] [deadline=S] [strategy=NAME]
               [snapshot=PIN]
        step [N]
        drain
        pin NAME
        release NAME
        insert SUBJECT PREDICATE OBJECT   (N-Triples terms; rdf:/rdfs: ok)
        advance SECONDS
        chaos arm|disarm                  (toggle --chaos-* fault injection)
        degrade LEVEL                     (force the brownout ladder, e.g.
                                           ``degrade stale-serving``)
    """
    commands = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb = parts[0]
        try:
            if verb == "submit":
                tenant, name = parts[1], parts[2]
                options = dict(part.split("=", 1) for part in parts[3:])
                commands.append(("submit", (tenant, name, options)))
            elif verb == "step":
                commands.append(("step", int(parts[1]) if len(parts) > 1 else 1))
            elif verb == "drain":
                commands.append(("drain", None))
            elif verb in ("pin", "release"):
                commands.append((verb, parts[1]))
            elif verb == "insert":
                commands.append(("insert", " ".join(parts[1:])))
            elif verb == "advance":
                commands.append(("advance", float(parts[1])))
            elif verb == "chaos":
                if parts[1] not in ("arm", "disarm"):
                    raise ValueError("chaos takes arm|disarm, got %r" % parts[1])
                commands.append(("chaos", parts[1]))
            elif verb == "degrade":
                commands.append(("degrade", parts[1]))
            else:
                raise ValueError("unknown verb %r" % verb)
        except (IndexError, ValueError) as exc:
            raise UsageError("serve script line %d: %s" % (lineno, exc))
    return commands


def _expand_rdf_prefixes(text: str) -> str:
    """The same rdf:/rdfs: convenience expansion ``why`` accepts."""
    return (
        text.replace(
            "rdf:type", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
        )
        .replace(
            "rdfs:subClassOf",
            "<http://www.w3.org/2000/01/rdf-schema#subClassOf>",
        )
        .replace(
            "rdfs:subPropertyOf",
            "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>",
        )
    )


def cmd_serve(args) -> int:
    """Run a scripted multi-tenant serving session and report per-tenant
    outcomes.  Deterministic by construction: requests execute on a
    stepped fake clock (one tick per event), so the same script, seed,
    and flags always produce the same admission decisions, schedule,
    and exit code.

    Exit codes: 0 every submitted request completed fresh, 6 every
    request was answered but some answers were stale or flagged
    partial (degraded-but-served), 3 some requests were shed / failed
    / expired, 1 no request completed at all.
    """
    import json as json_module

    from .rdf.io import parse_line
    from .resilience.clock import FakeClock
    from .resilience.faults import FaultPlan
    from .service import (
        AdmissionRejected,
        LEVEL_NAMES,
        QueryRequest,
        QueryService,
        ServiceChaos,
        TenantConfig,
    )

    try:
        tenants = [TenantConfig.parse(spec) for spec in args.tenants]
    except ValueError as exc:
        print("bad --tenants spec: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    for tenant in tenants:
        if args.queue_depth is not None:
            tenant.queue_depth = args.queue_depth
        tenant.request_rows = args.row_budget
        tenant.request_seconds = args.timeout
    clock = FakeClock(auto_advance=args.tick)
    chaos = None
    if args.chaos_transient or args.chaos_latency_rate:
        # A script drives its own fault window via ``chaos arm`` /
        # ``chaos disarm``; synthetic workloads inject from the start.
        chaos = ServiceChaos(
            FaultPlan(
                seed=args.chaos_seed,
                transient_rate=args.chaos_transient,
                latency_rate=args.chaos_latency_rate,
                latency_seconds=args.chaos_latency_seconds,
            ),
            clock=clock,
            armed=not args.script,
        )
    service = QueryService(
        _build_graph(args),
        tenants=tenants,
        engine=args.engine,
        capacity=args.capacity,
        clock=clock,
        brownout=True if args.brownout else None,
        chaos=chaos,
        watchdog_seconds=args.watchdog,
        breaker_threshold=args.breaker_threshold,
    )
    if args.script:
        with open(args.script) as handle:
            commands = _parse_serve_script(handle)
    else:
        # Synthetic closed workload: --requests submissions round-robin
        # over tenants × catalog queries, then drain.
        names = args.queries.split(",") if args.queries else ["default"]
        commands = [
            (
                "submit",
                (
                    tenants[index % len(tenants)].name,
                    names[index % len(names)],
                    {},
                ),
            )
            for index in range(args.requests)
        ]
        commands.append(("drain", None))
    pins = {}
    tickets = []
    rejections = []
    for verb, payload in commands:
        if verb == "submit":
            tenant, name, options = payload
            strategy = Strategy(options.get("strategy", Strategy.REF_GCOV.value))
            snapshot = None
            if "snapshot" in options:
                snapshot = pins.get(options["snapshot"])
                if snapshot is None:
                    print("serve script: unknown pin %r" % options["snapshot"],
                          file=sys.stderr)
                    return EXIT_USAGE
            request = QueryRequest(
                tenant,
                _catalog_query(args, name),
                strategy=strategy,
                priority=int(options.get("priority", 0)),
                deadline=(
                    float(options["deadline"]) if "deadline" in options else None
                ),
                snapshot=snapshot,
            )
            try:
                tickets.append(service.submit(request))
            except AdmissionRejected as exc:
                rejections.append(dict(exc.diagnostics(), query=name))
                if not args.json:  # JSON mode carries them in "rejections"
                    hints = []
                    if exc.retry_after is not None:
                        hints.append("retry after %.3fs" % exc.retry_after)
                    if exc.cooldown_remaining is not None:
                        hints.append(
                            "breaker cools in %.3fs" % exc.cooldown_remaining)
                    hint = " (%s)" % "; ".join(hints) if hints else ""
                    print(
                        "shed %s/%s: %s%s — %s"
                        % (tenant, name, exc.reason, hint, exc)
                    )
        elif verb == "step":
            for _ in range(payload):
                service.step()
        elif verb == "drain":
            service.drain()
        elif verb == "pin":
            pins[payload] = service.pin()
        elif verb == "release":
            snapshot = pins.pop(payload, None)
            if snapshot is not None:
                service.release(snapshot)
        elif verb == "insert":
            service.insert(parse_line(_expand_rdf_prefixes(payload) + " ."))
        elif verb == "advance":
            clock.advance(payload)
        elif verb == "chaos":
            if chaos is None:
                print("serve script: 'chaos %s' without --chaos-* flags"
                      % payload, file=sys.stderr)
                return EXIT_USAGE
            chaos.arm() if payload == "arm" else chaos.disarm()
        elif verb == "degrade":
            if service.brownout is None:
                print("serve script: 'degrade' requires --brownout",
                      file=sys.stderr)
                return EXIT_USAGE
            if payload not in LEVEL_NAMES:
                print("serve script: unknown level %r (one of %s)"
                      % (payload, ", ".join(LEVEL_NAMES)), file=sys.stderr)
                return EXIT_USAGE
            service.brownout.force(LEVEL_NAMES.index(payload), "script")
    service.drain()
    summary = service.describe()
    summary["rejections"] = rejections
    if args.json:
        print(json_module.dumps(summary, indent=2, sort_keys=True))
    else:
        # Per-tenant back-off hint: the largest retry-after / breaker
        # cooldown among this tenant's rejections, so exit-3/exit-6
        # sessions tell clients when to come back.
        backoff = {}
        for rejection in rejections:
            wait = max(rejection.get("retry_after", 0.0),
                       rejection.get("cooldown_remaining", 0.0))
            if wait > 0:
                backoff[rejection["tenant"]] = max(
                    backoff.get(rejection["tenant"], 0.0), wait)
        rows = [
            [
                name,
                bucket["submitted"],
                bucket["completed"],
                bucket["failed"],
                bucket["expired"],
                bucket["shed_total"],
                "%d/%d" % (bucket["cache_hits"], bucket["cache_misses"]),
                bucket["stale_serves"],
                bucket["degraded"],
                "%.1f" % (bucket["latency"]["p50"] * 1e3),
                "%.1f" % (bucket["latency"]["p95"] * 1e3),
                ("%.3f" % backoff[name]) if name in backoff else "-",
            ]
            for name, bucket in summary["tenants"].items()
        ]
        print(
            format_table(
                ["tenant", "sub", "done", "fail", "exp", "shed",
                 "hit/miss", "stale", "degr", "p50 ms", "p95 ms",
                 "backoff s"],
                rows,
                title="serving session (%s, capacity %d)"
                % (args.engine, args.capacity),
            )
        )
        print(
            "\n%d submitted, %d completed, %d shed (rate %.2f), "
            "%d failed, %d expired; snapshots: %d pin(s), %d frozen cop%s"
            % (
                summary["submitted"],
                summary["completed"],
                summary["shed"],
                summary["shed_rate"],
                summary["failed"],
                summary["expired"],
                summary["snapshots"]["active_pins"],
                summary["snapshots"]["frozen_copies"],
                "y" if summary["snapshots"]["frozen_copies"] == 1 else "ies",
            )
        )
        health = summary["health"]
        monitor = health["monitor"]
        level = (
            health["brownout"]["level_name"]
            if "brownout" in health
            else "normal (no brownout)"
        )
        open_breakers = monitor["open_breakers"]
        print(
            "health: level %s; %d stale serve(s), %d degraded answer(s), "
            "%d/%d refresh(es) failed; breakers open: %s"
            % (
                level,
                monitor["stale_serves"],
                monitor["degraded_answers"],
                monitor["refresh_failures"],
                monitor["refreshes"],
                ", ".join(open_breakers) if open_breakers else "none",
            )
        )
    if summary["completed"] == 0:
        return EXIT_FAILURE
    if summary["shed"] or summary["failed"] or summary["expired"]:
        return EXIT_PARTIAL
    if summary["stale_serves"] or summary["degraded"]:
        return EXIT_DEGRADED
    return EXIT_OK


def _parse_repl_script(lines):
    """Parse a ``replicate --script`` file into (verb, payload) commands.

    Grammar (``#`` comments and blank lines ignored)::

        write [N]          insert N fresh triples on the primary
        pump [N]           advance N replication rounds
        kill NAME          crash a node (primary or follower)
        kill-primary       crash whichever node is primary right now
        restart NAME       restart a crashed node
        partition NAME     cut a node off (it stays alive)
        heal [NAME]        mend partitions / restart the dead — one
                           node, or the whole cluster when omitted
        converge [MAX]     pump until consistent (budget MAX rounds)
    """
    commands = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb = parts[0]
        try:
            if verb in ("write", "pump"):
                commands.append(
                    (verb, int(parts[1]) if len(parts) > 1 else 1))
            elif verb in ("kill", "restart", "partition"):
                commands.append((verb, parts[1]))
            elif verb == "kill-primary":
                commands.append(("kill-primary", None))
            elif verb == "heal":
                commands.append(("heal", parts[1] if len(parts) > 1 else None))
            elif verb == "converge":
                commands.append(
                    ("converge", int(parts[1]) if len(parts) > 1 else 200))
            else:
                raise ValueError("unknown verb %r" % verb)
        except (IndexError, ValueError) as exc:
            raise UsageError("replicate script line %d: %s" % (lineno, exc))
    return commands


def cmd_replicate(args) -> int:
    """Run a scripted WAL-shipping replication session and report the
    cluster's final state.  Deterministic: the cluster runs on an
    injected fake clock and every link fault comes from a seeded plan,
    so the same flags and script always yield the same epochs, reseed
    log, and exit code.

    Exit codes: 0 the cluster converged (every live follower
    byte-identical to the primary), 7 a live follower still diverges
    after the catch-up budget, 2 usage errors.
    """
    import json as json_module
    import shutil
    import tempfile

    from .rdf import Namespace, RDF_TYPE, Triple
    from .replication import ReplicationCluster

    names = ["n%d" % (i + 1) for i in range(args.nodes)]
    faults = {}
    if args.drop_rate:
        faults["drop_rate"] = args.drop_rate
    if args.duplicate_rate:
        faults["duplicate_rate"] = args.duplicate_rate
    if args.delay_rate:
        faults["delay_rate"] = args.delay_rate
        faults["delay_rounds"] = args.delay_rounds
    if args.tear_rate:
        faults["tear_rate"] = args.tear_rate
    if args.script:
        with open(args.script) as handle:
            commands = _parse_repl_script(handle)
    else:
        commands = [("write", args.writes), ("converge", args.max_rounds)]
    directory = args.dir or tempfile.mkdtemp(prefix="repro-replicate-")
    keep = args.dir is not None
    ex = Namespace("http://example.org/replicate/")
    written = 0
    try:
        cluster = ReplicationCluster(
            directory, names, seed=args.seed, link_faults=faults or None,
            lease_seconds=args.lease, link_capacity=args.link_capacity,
            retain=args.retain,
        )
    except (TypeError, ValueError) as exc:
        print("bad replicate flags: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        spent = 0
        for verb, payload in commands:
            if verb == "write":
                for _ in range(payload):
                    cluster.primary_node.insert(
                        Triple(ex["s%d" % written], RDF_TYPE, ex.Entity))
                    written += 1
                    cluster.pump(1)
            elif verb == "pump":
                cluster.pump(payload)
            elif verb == "kill":
                cluster.kill(payload)
            elif verb == "kill-primary":
                cluster.kill_primary()
            elif verb == "restart":
                cluster.restart(payload)
            elif verb == "partition":
                cluster.partition(payload)
            elif verb == "heal":
                cluster.heal(payload)
            elif verb == "converge":
                spent += cluster.pump_until_converged(max_rounds=payload)
        # Always close with a convergence attempt so the exit code
        # reflects the healed steady state, not mid-chaos lag.
        spent += cluster.pump_until_converged(max_rounds=args.max_rounds)
        status = cluster.status()
        status["writes"] = written
        status["converge_rounds"] = spent
        if keep:
            with open(os.path.join(directory, "replstatus.json"), "w") as out:
                json_module.dump(status, out, indent=2, sort_keys=True)
        if args.json:
            print(json_module.dumps(status, indent=2, sort_keys=True))
        else:
            primary_lsn = status["nodes"][status["primary"]]["lsn"]
            rows = [
                [
                    name,
                    state["role"],
                    "up" if state["alive"] else "down",
                    state["repl_epoch"],
                    state["lsn"] if state["lsn"] is not None else "-",
                    state.get("lag", "-"),
                    state["applied"],
                    state["dups_skipped"],
                    state["resyncs"],
                    state["reseeds"],
                ]
                for name, state in sorted(status["nodes"].items())
            ]
            print(
                format_table(
                    ["node", "role", "state", "epoch", "lsn", "lag",
                     "applied", "dups", "resyncs", "reseeds"],
                    rows,
                    title="replication session (%d writes, %d rounds, "
                    "primary %s at lsn %s)"
                    % (written, status["rounds"], status["primary"],
                       primary_lsn),
                )
            )
            for name, link in sorted(status["links"].items()):
                print(
                    "link %s: shipped %d, delivered %d, dropped %d, "
                    "duplicated %d, delayed %d, torn %d"
                    % (name, link["shipped"], link["delivered"],
                       link["dropped"], link["duplicated"], link["delayed"],
                       link["torn"])
                )
            print(
                "epoch %d after %d election(s); %d reseed(s), "
                "%d divergence(s) detected"
                % (status["coordinator"]["epoch"],
                   status["coordinator"]["elections"],
                   len(status["reseeds"]), status["divergences"])
            )
            for problem in status["consistency_problems"]:
                print("UNCONVERGED: %s" % problem, file=sys.stderr)
        return (EXIT_REPLICATION if status["consistency_problems"]
                else EXIT_OK)
    finally:
        cluster.close()
        if not keep:
            shutil.rmtree(directory, ignore_errors=True)


def cmd_replstatus(args) -> int:
    """Dump per-replica LSN lag, epochs, and link fault counters as
    JSON.  Reads the ``replstatus.json`` a ``replicate --dir`` session
    left behind; without one, reopens the node directories and reports
    the durable facts (role, epoch, LSN) with lags recomputed against
    the highest LSN on disk.
    """
    import json as json_module

    from .replication import ReplicaNode

    saved = os.path.join(args.dir, "replstatus.json")
    if os.path.exists(saved):
        with open(saved) as handle:
            print(json_module.dumps(json_module.load(handle), indent=2,
                                    sort_keys=True))
        return EXIT_OK
    nodes = {}
    for name in sorted(os.listdir(args.dir)) if os.path.isdir(args.dir) else []:
        path = os.path.join(args.dir, name)
        if not os.path.isdir(path):
            continue
        node = ReplicaNode(name, path)
        try:
            nodes[name] = node.status()
        finally:
            node.durable.close()
    if not nodes:
        print("no replica state under %r" % args.dir, file=sys.stderr)
        return EXIT_FAILURE
    top = max(state["lsn"] for state in nodes.values())
    for state in nodes.values():
        state["lag"] = top - state["lsn"]
    print(json_module.dumps({"nodes": nodes}, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="repro",
        description="Reformulation-based RDF query answering (VLDB 2015 demo reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--dataset", default="lubm",
                         choices=["lubm", "geo", "bib", "books", "file"])
        sub.add_argument("--file", help="N-Triples file (with --dataset file)")
        sub.add_argument("--universities", type=int, default=1)
        sub.add_argument("--seed", type=int, default=42)

    stats = subparsers.add_parser("stats", help="dataset statistics (demo step 1)")
    add_common(stats)
    stats.add_argument("--top", type=int, default=10)
    stats.set_defaults(func=cmd_stats)

    answer = subparsers.add_parser("answer", help="answer a query (demo step 2)")
    add_common(answer)
    answer.add_argument("--query", help="a catalog query name (Q1..Q14, Ex1, G1.., B1..)")
    answer.add_argument("--sparql", help="an inline SPARQL-lite query")
    answer.add_argument("--strategy", default="all",
                        choices=["all"] + [s.value for s in Strategy])
    answer.add_argument("--show-answers", action="store_true")
    answer.add_argument("--limit", type=int, default=20)
    answer.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=ANSWERER_ENGINES,
                        help="evaluation engine: columnar (the default; "
                             "vectorized sorted-run execution, per-operator "
                             "metrics) or sqlite (the SQL cross-check)")
    answer.add_argument("--show-metrics", action="store_true",
                        help="print the per-operator metric table (single "
                             "strategy, columnar engine)")
    answer.add_argument("--interval-encoding", action="store_true",
                        help="hierarchy-aware dictionary encoding: covered "
                             "subclass/subproperty unions collapse into "
                             "range-scanned interval atoms")
    answer.add_argument("--allow-partial", action="store_true",
                        help="on budget overrun, keep the rows produced so "
                             "far as a degraded answer (columnar engine)")
    answer.add_argument("--cache", action="store_true",
                        help="answer through a reformulation+answer cache "
                             "(see `cache-stats` for its counters)")
    answer.add_argument("--cache-size", type=_positive_int, default=1024,
                        help="LRU capacity per cache tier (default 1024)")
    answer.add_argument("--repeat", type=int, default=1,
                        help="answer N times (with --cache the repeats hit "
                             "the cache; a warm-ms column is shown)")
    answer.add_argument("--timeout", type=_positive_float, default=None,
                        help="evaluation time budget in seconds; overruns "
                             "fail cleanly instead of hanging")
    answer.add_argument("--row-budget", type=_positive_int, default=None,
                        help="cap on cumulative intermediate rows during "
                             "evaluation (columnar engine)")
    answer.add_argument("--max-retries", type=_positive_int, default=3,
                        help="budget-exceeded fallback attempts: how many "
                             "next-best covers the optimizer may try "
                             "(default 3)")
    answer.set_defaults(func=cmd_answer)

    federate = subparsers.add_parser(
        "federate",
        help="answer over the dataset sharded across N endpoints, with "
             "optional injected faults and a completeness report",
    )
    add_common(federate)
    federate.add_argument("--query", help="a catalog query name")
    federate.add_argument("--sparql", help="an inline SPARQL-lite query")
    federate.add_argument("--endpoints", type=_positive_int, default=3,
                          help="number of shards/endpoints (default 3)")
    federate.add_argument("--result-limit", type=_positive_int, default=None,
                          help="per-endpoint answer truncation limit")
    federate.add_argument("--timeout", type=_positive_float, default=None,
                          help="per-request deadline in seconds (retries "
                               "included)")
    federate.add_argument("--max-retries", type=_positive_int, default=2,
                          help="retry attempts after a transient endpoint "
                               "failure (default 2)")
    federate.add_argument("--parallelism", type=_positive_int, default=1,
                          help="worker threads for per-endpoint "
                               "fan-out (1 = serial)")
    federate.add_argument("--row-budget", type=_positive_int, default=None,
                          help="cap on rows materialized by the client-side "
                               "joins")
    federate.add_argument("--breaker-threshold", type=_positive_int,
                          default=None,
                          help="consecutive failures that open an "
                               "endpoint's circuit breaker")
    federate.add_argument("--chaos-seed", type=int, default=0,
                          help="seed for the injected fault schedule")
    federate.add_argument("--transient-rate", type=_rate, default=0.0,
                          help="probability a request fails transiently")
    federate.add_argument("--outage", type=int, default=None,
                          help="index of an endpoint that is permanently "
                               "down")
    federate.add_argument("--show-answers", action="store_true")
    federate.add_argument("--limit", type=int, default=20)
    federate.set_defaults(func=cmd_federate)

    cache_stats = subparsers.add_parser(
        "cache-stats",
        help="cold vs warm answering through the cache, with counters",
    )
    add_common(cache_stats)
    cache_stats.add_argument("--query", help="a catalog query name")
    cache_stats.add_argument("--sparql", help="an inline SPARQL-lite query")
    cache_stats.add_argument("--strategy", default="all",
                             choices=["all"] + [s.value for s in Strategy])
    cache_stats.add_argument("--engine", default=DEFAULT_ENGINE,
                             choices=ANSWERER_ENGINES)
    cache_stats.add_argument("--cache-size", type=_positive_int, default=1024,
                             help="LRU capacity per cache tier (default 1024)")
    cache_stats.add_argument("--repeat", type=int, default=3,
                             help="runs per strategy (first is cold; default 3)")
    cache_stats.set_defaults(func=cmd_cache_stats)

    explain = subparsers.add_parser("explain", help="show a plan (demo step 3)")
    add_common(explain)
    explain.add_argument("--query")
    explain.add_argument("--sparql")
    explain.add_argument("--strategy", default="ref-gcov",
                         choices=[s.value for s in Strategy])
    explain.add_argument("--engine", default=DEFAULT_ENGINE,
                         choices=[engine for engine in ANSWERER_ENGINES
                                  if engine != "sqlite"],
                         help="in-process evaluation engine (a plan is "
                              "needed); the per-operator metric table "
                              "follows the plan")
    explain.add_argument("--interval-encoding", action="store_true",
                         help="hierarchy-aware dictionary encoding: interval "
                              "atoms appear in the plan as range scans with "
                              "their collapsed branch counts")
    explain.set_defaults(func=cmd_explain)

    covers = subparsers.add_parser("covers", help="explore covers (demo step 3)")
    add_common(covers)
    covers.add_argument("--query")
    covers.add_argument("--sparql")
    covers.add_argument("--top", type=int, default=8)
    covers.set_defaults(func=cmd_covers)

    why = subparsers.add_parser(
        "why", help="explain how a triple is entailed"
    )
    add_common(why)
    why.add_argument("--triple", required=True,
                     help="the triple, N-Triples style (rdf:/rdfs: allowed)")
    why.set_defaults(func=cmd_why)

    load = subparsers.add_parser(
        "load", help="load a dataset into a crash-safe WAL-backed store"
    )
    add_common(load)
    load.add_argument("--wal", required=True,
                      help="durability directory (WAL segments + checkpoints)")
    load.add_argument("--sync", default="always", choices=["always", "never"],
                      help="fsync every WAL record (always) or only on "
                           "checkpoints (never); default always")
    load.add_argument("--saturate", action="store_true",
                      help="maintain incremental saturation state durably")
    load.add_argument("--checkpoint", action="store_true",
                      help="write a checkpoint after loading")
    load.add_argument("--lenient", action="store_true",
                      help="with --dataset file: skip unparsable N-Triples "
                           "lines instead of failing")
    load.set_defaults(func=cmd_load)

    checkpoint = subparsers.add_parser(
        "checkpoint", help="snapshot a durable store and rotate its WAL"
    )
    checkpoint.add_argument("--wal", required=True,
                            help="durability directory")
    checkpoint.add_argument("--saturate", action="store_true",
                            help="carry incremental saturation state in the "
                                 "checkpoint")
    checkpoint.set_defaults(func=cmd_checkpoint)

    recover_cmd = subparsers.add_parser(
        "recover",
        help="recover a durable store (exit 0 clean / 4 truncated tail / "
             "5 nothing to recover)",
    )
    recover_cmd.add_argument("--wal", required=True,
                             help="durability directory")
    recover_cmd.add_argument("--verify", action="store_true",
                             help="cross-check the recovered store against a "
                                  "fresh rebuild (exit 1 on discrepancies)")
    recover_cmd.add_argument("--json", action="store_true",
                             help="print the recovery report as JSON")
    recover_cmd.add_argument("--read-only", action="store_true",
                             help="inspect only: leave torn WAL tails on disk")
    recover_cmd.add_argument("--saturate", action="store_true",
                             help="rebuild incremental saturation state too")
    recover_cmd.set_defaults(func=cmd_recover)

    serve = subparsers.add_parser(
        "serve",
        help="run a scripted multi-tenant serving session (exit 0 all "
             "completed fresh / 6 served but some stale or partial / 3 "
             "some shed, failed or expired / 1 none completed)",
    )
    add_common(serve)
    serve.add_argument("--tenants", nargs="+", default=["alpha:2", "beta:1"],
                       metavar="NAME[:WEIGHT[:DEPTH[:MAXLAG]]]",
                       help="tenant specs: scheduling weight, queue depth, "
                            "and replica staleness bound in LSNs "
                            "(default alpha:2 beta:1)")
    serve.add_argument("--script",
                       help="serving script (submit/step/drain/pin/release/"
                            "insert/advance lines); omit for a synthetic "
                            "round-robin workload")
    serve.add_argument("--requests", type=_positive_int, default=8,
                       help="synthetic workload size without --script "
                            "(default 8)")
    serve.add_argument("--queries", default=None,
                       help="comma-separated catalog query names for the "
                            "synthetic workload (default: the dataset's "
                            "default query)")
    serve.add_argument("--capacity", type=_positive_int, default=2,
                       help="requests executed per scheduling round "
                            "(default 2)")
    serve.add_argument("--queue-depth", type=_positive_int, default=None,
                       help="override every tenant's queue depth")
    serve.add_argument("--engine", default=DEFAULT_ENGINE,
                       choices=ANSWERER_ENGINES)
    serve.add_argument("--row-budget", type=_positive_int, default=None,
                       help="per-request row budget charged to the "
                            "submitting tenant")
    serve.add_argument("--timeout", type=_positive_float, default=None,
                       help="per-request time budget in seconds")
    serve.add_argument("--tick", type=_positive_float, default=0.001,
                       help="fake-clock advance per event (default 1 ms; "
                            "the session clock is deterministic)")
    serve.add_argument("--json", action="store_true",
                       help="print the full service metrics as JSON")
    serve.add_argument("--brownout", action="store_true",
                       help="enable the degradation ladder (partial answers "
                            "→ stale-serving → replica-reads-only → shed) "
                            "with the default policy")
    serve.add_argument("--watchdog", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="hard wall-clock ceiling per execution, enforced "
                            "through its time budget")
    serve.add_argument("--breaker-threshold", type=_positive_int, default=None,
                       help="consecutive failures before a tenant's circuit "
                            "breaker opens (default 5 with --brownout; "
                            "omit both to disable)")
    serve.add_argument("--chaos-seed", type=int,
                       default=int(os.environ.get("REPRO_CHAOS_SEED", "0")),
                       help="fault-plan seed for --chaos-* injection "
                            "(default $REPRO_CHAOS_SEED or 0)")
    serve.add_argument("--chaos-transient", type=float, default=0.0,
                       metavar="RATE",
                       help="probability an execution fails with an injected "
                            "transient fault")
    serve.add_argument("--chaos-latency-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="probability an execution sleeps an injected "
                            "delay first")
    serve.add_argument("--chaos-latency-seconds", type=_positive_float,
                       default=0.05, metavar="SECONDS",
                       help="size of the injected delay (default 0.05)")
    serve.set_defaults(func=cmd_serve)

    replicate = subparsers.add_parser(
        "replicate",
        help="run a scripted WAL-shipping replication session (exit 0 "
             "converged / 7 a live follower still diverges from the "
             "primary after the catch-up budget)",
    )
    replicate.add_argument("--nodes", type=_positive_int, default=3,
                           help="cluster size; the first node starts as "
                                "primary (default 3)")
    replicate.add_argument("--writes", type=_positive_int, default=24,
                           help="synthetic primary writes without --script "
                                "(default 24)")
    replicate.add_argument("--script",
                           help="chaos script (write/pump/kill/kill-primary/"
                                "restart/partition/heal/converge lines); "
                                "omit for writes + converge")
    replicate.add_argument("--seed", type=int,
                           default=int(os.environ.get("REPRO_CHAOS_SEED",
                                                      "0")),
                           help="link fault-plan seed (default "
                                "$REPRO_CHAOS_SEED or 0)")
    replicate.add_argument("--drop-rate", type=float, default=0.0,
                           metavar="RATE",
                           help="probability a shipped frame is dropped")
    replicate.add_argument("--duplicate-rate", type=float, default=0.0,
                           metavar="RATE",
                           help="probability a shipped frame arrives twice")
    replicate.add_argument("--delay-rate", type=float, default=0.0,
                           metavar="RATE",
                           help="probability a shipped frame is reordered "
                                "behind later traffic")
    replicate.add_argument("--delay-rounds", type=_positive_int, default=2,
                           help="rounds a delayed frame is held (default 2)")
    replicate.add_argument("--tear-rate", type=float, default=0.0,
                           metavar="RATE",
                           help="probability a frame arrives torn (prefix "
                                "only, stream cut)")
    replicate.add_argument("--lease", type=_positive_float, default=3.0,
                           help="failover lease in fake-clock seconds "
                                "(default 3; one round = one second)")
    replicate.add_argument("--link-capacity", type=_positive_int, default=16,
                           help="in-flight frames per link before "
                                "backpressure (default 16)")
    replicate.add_argument("--retain", type=_positive_int, default=512,
                           help="primary catch-up log size in frames; "
                                "falling past it forces a reseed "
                                "(default 512)")
    replicate.add_argument("--max-rounds", type=_positive_int, default=200,
                           help="final convergence budget in rounds "
                                "(default 200)")
    replicate.add_argument("--dir",
                           help="keep the cluster directories here (and a "
                                "replstatus.json) instead of a throwaway "
                                "temp dir")
    replicate.add_argument("--json", action="store_true",
                           help="print the full cluster status as JSON")
    replicate.set_defaults(func=cmd_replicate)

    replstatus = subparsers.add_parser(
        "replstatus",
        help="dump per-replica LSN lag, epochs, and link fault counters "
             "as JSON from a replicate --dir session",
    )
    replstatus.add_argument("--dir", required=True,
                            help="cluster root a 'replicate --dir' run "
                                 "left behind")
    replstatus.set_defaults(func=cmd_replstatus)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OptionError, QueryParseError, ParseError) as exc:
        # Malformed --sparql or N-Triples input, unknown query names
        # and option combinations the answerer refuses are usage
        # errors, not tracebacks; any other exception is a bug and
        # keeps its traceback.
        print("repro: error: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
