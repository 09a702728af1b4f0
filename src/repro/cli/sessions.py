"""The session subcommands: serve (a multi-tenant serving session),
replicate (a WAL-shipping cluster) and replstatus."""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from ..core import Strategy
from ..query.visualize import format_table
from . import (
    EXIT_DEGRADED,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_REPLICATION,
    UsageError,
)
from .options import (
    DATASET,
    RATE,
    add_chaos_seed,
    add_command,
    build_graph,
    catalog_query,
    chaos_seed,
    count,
    parse_triple,
    positive_float,
    positive_int,
    read_script,
)


def _submit(words):
    """``TENANT QUERY [priority=P] [deadline=S] [strategy=NAME]
    [snapshot=PIN]``"""
    tenant, name = words[0], words[1]
    options = dict(word.split("=", 1) for word in words[2:])
    pin = options.pop("snapshot", None)
    request = dict(
        strategy=Strategy(options.pop("strategy", Strategy.REF_GCOV.value)),
        priority=int(options.pop("priority", 0)),
        deadline=float(options.pop("deadline")) if "deadline" in options else None,
    )
    if options:
        raise ValueError("unknown submit option(s) %s" % ", ".join(sorted(options)))
    return tenant, name, pin, request


def _chaos(words):
    if words[0] not in ("arm", "disarm"):
        raise ValueError("chaos takes arm|disarm, got %r" % words[0])
    return words[0]


def _first(words):
    return words[0]


#: ``serve --script`` verbs; ``insert`` takes N-Triples terms (rdf:/
#: rdfs: prefixes allowed), ``chaos`` toggles the ``--chaos-*`` fault
#: injection and ``degrade LEVEL`` forces the brownout ladder.
SERVE_VERBS = {
    "submit": _submit,
    "step": count(1),
    "drain": lambda words: None,
    "pin": _first,
    "release": _first,
    "insert": " ".join,
    "advance": lambda words: float(words[0]),
    "chaos": _chaos,
    "degrade": _first,
}


def cmd_serve(args) -> int:
    """Run a scripted multi-tenant serving session and report per-tenant
    outcomes.  Deterministic by construction: requests execute on a
    stepped fake clock (one tick per event), so the same script, seed,
    and flags always produce the same admission decisions, schedule,
    and exit code.
    """
    from ..resilience.clock import FakeClock
    from ..resilience.faults import FaultPlan
    from ..service import (
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
        raise UsageError("bad --tenants spec: %s" % exc)
    for tenant in tenants:
        if args.queue_depth is not None:
            tenant.queue_depth = args.queue_depth
        tenant.request_rows = args.row_budget
        tenant.request_seconds = args.timeout
    if args.script:
        commands = read_script("serve", args.script, SERVE_VERBS)
        missing = "a query name to submit"
    else:
        # Synthetic closed workload: --requests submissions round-robin
        # over tenants × catalog queries, then drain.
        names = args.queries.split(",") if args.queries else ["default"]
        commands = [
            ("submit", (tenants[index % len(tenants)].name,
                        names[index % len(names)], None, {}))
            for index in range(args.requests)
        ]
        commands.append(("drain", None))
        missing = "--queries NAME[,NAME...]"
    clock = FakeClock(auto_advance=args.tick)
    chaos = None
    if args.chaos_transient or args.chaos_latency_rate:
        # A script drives its own fault window via ``chaos arm`` /
        # ``chaos disarm``; synthetic workloads inject from the start.
        chaos = ServiceChaos(
            FaultPlan(
                seed=chaos_seed(args.chaos_seed),
                transient_rate=args.chaos_transient,
                latency_rate=args.chaos_latency_rate,
                latency_seconds=args.chaos_latency_seconds,
            ),
            clock=clock,
            armed=not args.script,
        )
    service = QueryService(
        build_graph(args),
        tenants=tenants,
        engine=args.engine,
        capacity=args.capacity,
        clock=clock,
        brownout=True if args.brownout else None,
        chaos=chaos,
        watchdog_seconds=args.watchdog,
        breaker_threshold=args.breaker_threshold,
    )
    pins = {}
    rejections = []
    for verb, payload in commands:
        if verb == "submit":
            tenant, name, pin, options = payload
            if pin is not None and pin not in pins:
                raise UsageError("serve script: unknown pin %r" % pin)
            query = catalog_query(args.dataset, name, missing)
            try:
                request = QueryRequest(tenant, query, snapshot=pins.get(pin),
                                       **options)
            except ValueError as exc:  # a deadline <= 0, ref-jucq
                raise UsageError("serve script: %s" % exc)
            try:
                service.submit(request)
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
            try:
                service.insert(parse_triple(payload))
            except ValueError as exc:  # a schema triple
                raise UsageError("serve script: %s" % exc)
        elif verb == "advance":
            clock.advance(payload)
        elif verb == "chaos":
            if chaos is None:
                raise UsageError("serve script: 'chaos %s' without --chaos-* "
                                 "flags" % payload)
            chaos.arm() if payload == "arm" else chaos.disarm()
        elif verb == "degrade":
            if service.brownout is None:
                raise UsageError("serve script: 'degrade' requires --brownout")
            if payload not in LEVEL_NAMES:
                raise UsageError("serve script: unknown level %r (one of %s)"
                                 % (payload, ", ".join(LEVEL_NAMES)))
            service.brownout.force(LEVEL_NAMES.index(payload), "script")
    service.drain()
    summary = service.describe()
    summary["rejections"] = rejections
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_serving(summary, args)
    if summary["completed"] == 0:
        return EXIT_FAILURE
    if summary["shed"] or summary["failed"] or summary["expired"]:
        return EXIT_PARTIAL
    if summary["stale_serves"] or summary["degraded"]:
        return EXIT_DEGRADED
    return EXIT_OK


def _print_serving(summary, args) -> None:
    # Per-tenant back-off hint: the largest retry-after / breaker
    # cooldown among this tenant's rejections, so exit-3/exit-6
    # sessions tell clients when to come back.
    backoff = {}
    for rejection in summary["rejections"]:
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
    print(format_table(
        ["tenant", "sub", "done", "fail", "exp", "shed", "hit/miss", "stale",
         "degr", "p50 ms", "p95 ms", "backoff s"],
        rows,
        title="serving session (%s, capacity %d)" % (args.engine, args.capacity),
    ))
    snapshots = summary["snapshots"]
    print(
        "\n%d submitted, %d completed, %d shed (rate %.2f), "
        "%d failed, %d expired; snapshots: %d pin(s), %d frozen cop%s"
        % (summary["submitted"], summary["completed"], summary["shed"],
           summary["shed_rate"], summary["failed"], summary["expired"],
           snapshots["active_pins"], snapshots["frozen_copies"],
           "y" if snapshots["frozen_copies"] == 1 else "ies")
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
        % (level, monitor["stale_serves"], monitor["degraded_answers"],
           monitor["refresh_failures"], monitor["refreshes"],
           ", ".join(open_breakers) if open_breakers else "none")
    )


#: ``replicate --script`` verbs: ``write [N]`` fresh triples on the
#: primary, ``pump [N]`` rounds, ``kill``/``restart``/``partition
#: NAME``, ``kill-primary``, ``heal [NAME]`` (the whole cluster when
#: omitted), ``converge [MAX]`` (pump until consistent).
REPLICATE_VERBS = {
    "write": count(1),
    "pump": count(1),
    "kill": _first,
    "restart": _first,
    "partition": _first,
    "kill-primary": lambda words: None,
    "heal": lambda words: words[0] if words else None,
    "converge": count(200),
}


def cmd_replicate(args) -> int:
    """Run a scripted WAL-shipping replication session and report the
    cluster's final state.  Deterministic: the cluster runs on an
    injected fake clock and every link fault comes from a seeded plan,
    so the same flags and script always yield the same epochs, reseed
    log, and exit code.
    """
    from ..rdf import Namespace, RDF_TYPE, Triple
    from ..replication import ReplicationCluster

    seed = chaos_seed(args.seed)
    names = ["n%d" % (i + 1) for i in range(args.nodes)]
    faults = {
        name: getattr(args, name)
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "tear_rate")
        if getattr(args, name)
    }
    if args.delay_rate:
        faults["delay_rounds"] = args.delay_rounds
    if args.script:
        commands = read_script("replicate", args.script, REPLICATE_VERBS)
    else:
        commands = [("write", args.writes), ("converge", args.max_rounds)]
    directory = args.dir or tempfile.mkdtemp(prefix="repro-replicate-")
    keep = args.dir is not None
    ex = Namespace("http://example.org/replicate/")
    written = 0
    try:
        cluster = ReplicationCluster(
            directory, names, seed=seed, link_faults=faults or None,
            lease_seconds=args.lease, link_capacity=args.link_capacity,
            retain=args.retain,
        )
    except (TypeError, ValueError) as exc:
        raise UsageError("bad replicate flags: %s" % exc)
    try:
        spent = 0
        for verb, payload in commands:
            if verb == "write":
                for _ in range(payload):
                    cluster.primary_node.insert(
                        Triple(ex["s%d" % written], RDF_TYPE, ex.Entity))
                    written += 1
                    cluster.pump(1)
            elif verb == "converge":
                spent += cluster.pump_until_converged(max_rounds=payload)
            elif verb == "kill-primary":
                cluster.kill_primary()
            else:  # pump, kill, restart, partition, heal
                getattr(cluster, verb)(payload)
        # Always close with a convergence attempt so the exit code
        # reflects the healed steady state, not mid-chaos lag.
        spent += cluster.pump_until_converged(max_rounds=args.max_rounds)
        status = cluster.status()
        status["writes"] = written
        status["converge_rounds"] = spent
        if keep:
            with open(os.path.join(directory, "replstatus.json"), "w") as out:
                json.dump(status, out, indent=2, sort_keys=True)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            _print_cluster(status, written)
        return (EXIT_REPLICATION if status["consistency_problems"]
                else EXIT_OK)
    finally:
        cluster.close()
        if not keep:
            shutil.rmtree(directory, ignore_errors=True)


def _print_cluster(status, written: int) -> None:
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
    print(format_table(
        ["node", "role", "state", "epoch", "lsn", "lag", "applied", "dups",
         "resyncs", "reseeds"],
        rows,
        title="replication session (%d writes, %d rounds, primary %s at lsn %s)"
        % (written, status["rounds"], status["primary"], primary_lsn),
    ))
    for name, link in sorted(status["links"].items()):
        print(
            "link %s: shipped %d, delivered %d, dropped %d, "
            "duplicated %d, delayed %d, torn %d"
            % (name, link["shipped"], link["delivered"], link["dropped"],
               link["duplicated"], link["delayed"], link["torn"])
        )
    print(
        "epoch %d after %d election(s); %d reseed(s), %d divergence(s) detected"
        % (status["coordinator"]["epoch"], status["coordinator"]["elections"],
           len(status["reseeds"]), status["divergences"])
    )
    for problem in status["consistency_problems"]:
        print("UNCONVERGED: %s" % problem, file=sys.stderr)


def cmd_replstatus(args) -> int:
    """Dump per-replica LSN lag, epochs, and link fault counters as
    JSON.  Reads the ``replstatus.json`` a ``replicate --dir`` session
    left behind; without one, reopens the node directories and reports
    the durable facts (role, epoch, LSN) with lags recomputed against
    the highest LSN on disk.
    """
    from ..replication import ReplicaNode

    saved = os.path.join(args.dir, "replstatus.json")
    if os.path.exists(saved):
        with open(saved) as handle:
            print(json.dumps(json.load(handle), indent=2, sort_keys=True))
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
    print(json.dumps({"nodes": nodes}, indent=2, sort_keys=True))
    return EXIT_OK


def register(subparsers) -> None:
    serve = add_command(
        subparsers, "serve", cmd_serve,
        "run a scripted multi-tenant serving session (exit 0 all completed "
        "fresh / 6 served but some stale or partial / 3 some shed, failed "
        "or expired / 1 none completed)",
        *DATASET, "--engine", "--row-budget", "--timeout", "--json",
        "--breaker-threshold",
    )
    serve.add_argument("--tenants", nargs="+", default=["alpha:2", "beta:1"],
                       metavar="NAME[:WEIGHT[:DEPTH]]",
                       help="tenant specs: scheduling weight and queue depth "
                            "(default alpha:2 beta:1)")
    serve.add_argument("--script",
                       help="serving script (submit/step/drain/pin/release/"
                            "insert/advance/chaos/degrade lines); omit for a "
                            "synthetic round-robin workload")
    serve.add_argument("--requests", type=positive_int, default=8,
                       help="synthetic workload size without --script "
                            "(default 8)")
    serve.add_argument("--queries", default=None,
                       help="comma-separated catalog query names for the "
                            "synthetic workload (default: the dataset's "
                            "default query; only books has one)")
    serve.add_argument("--capacity", type=positive_int, default=2,
                       help="requests executed per scheduling round "
                            "(default 2)")
    serve.add_argument("--queue-depth", type=positive_int, default=None,
                       help="override every tenant's queue depth")
    serve.add_argument("--tick", type=positive_float, default=0.001,
                       help="fake-clock advance per event (default 1 ms; "
                            "the session clock is deterministic)")
    serve.add_argument("--brownout", action="store_true",
                       help="enable the degradation ladder (partial answers "
                            "→ stale-serving → shed) "
                            "with the default policy")
    serve.add_argument("--watchdog", type=positive_float, default=None,
                       metavar="SECONDS",
                       help="hard wall-clock ceiling per execution, enforced "
                            "through its time budget")
    add_chaos_seed(serve, "--chaos-seed")
    serve.add_argument("--chaos-transient", **RATE,
                       help="probability an execution fails with an injected "
                            "transient fault")
    serve.add_argument("--chaos-latency-rate", **RATE,
                       help="probability an execution sleeps an injected "
                            "delay first")
    serve.add_argument("--chaos-latency-seconds", type=positive_float,
                       default=0.05, metavar="SECONDS",
                       help="size of the injected delay (default 0.05)")

    replicate = add_command(
        subparsers, "replicate", cmd_replicate,
        "run a scripted WAL-shipping replication session (exit 0 "
        "converged / 7 a live follower still diverges from the "
        "primary after the catch-up budget)",
        "--json",
    )
    replicate.add_argument("--nodes", type=positive_int, default=3,
                           help="cluster size; the first node starts as "
                                "primary (default 3)")
    replicate.add_argument("--writes", type=positive_int, default=24,
                           help="synthetic primary writes without --script "
                                "(default 24)")
    replicate.add_argument("--script",
                           help="chaos script (write/pump/kill/kill-primary/"
                                "restart/partition/heal/converge lines); "
                                "omit for writes + converge")
    add_chaos_seed(replicate, "--seed")
    replicate.add_argument("--drop-rate", **RATE,
                           help="probability a shipped frame is dropped")
    replicate.add_argument("--duplicate-rate", **RATE,
                           help="probability a shipped frame arrives twice")
    replicate.add_argument("--delay-rate", **RATE,
                           help="probability a shipped frame is reordered "
                                "behind later traffic")
    replicate.add_argument("--delay-rounds", type=positive_int, default=2,
                           help="rounds a delayed frame is held (default 2)")
    replicate.add_argument("--tear-rate", **RATE,
                           help="probability a frame arrives torn (prefix "
                                "only, stream cut)")
    replicate.add_argument("--lease", type=positive_float, default=3.0,
                           help="failover lease in fake-clock seconds "
                                "(default 3; one round = one second)")
    replicate.add_argument("--link-capacity", type=positive_int, default=16,
                           help="in-flight frames per link before "
                                "backpressure (default 16)")
    replicate.add_argument("--retain", type=positive_int, default=512,
                           help="primary catch-up log size in frames; "
                                "falling past it forces a reseed "
                                "(default 512)")
    replicate.add_argument("--max-rounds", type=positive_int, default=200,
                           help="final convergence budget in rounds "
                                "(default 200)")
    replicate.add_argument("--dir",
                           help="keep the cluster directories here (and a "
                                "replstatus.json) instead of a throwaway "
                                "temp dir")

    replstatus = add_command(
        subparsers, "replstatus", cmd_replstatus,
        "dump per-replica LSN lag, epochs, and link fault counters "
        "as JSON from a replicate --dir session",
    )
    replstatus.add_argument("--dir", required=True,
                            help="cluster root a 'replicate --dir' run "
                                 "left behind")
