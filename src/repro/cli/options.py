"""What the subcommands share: option definitions, argument types,
dataset and query resolution, and the script reader."""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from ..core import ANSWERER_ENGINES, DEFAULT_ENGINE, Strategy
from ..datasets import (
    bib_queries,
    books_example_query,
    books_graph,
    example1_query,
    generate_bib,
    generate_geo,
    generate_lubm,
    geo_queries,
    lubm_queries,
)
from ..query import parse_query
from ..rdf import RDF_TYPE, load_file, shorten
from ..rdf.io import parse_line
from ..rdf.namespaces import RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF
from . import UsageError


def _checked(name, convert, accept, expected):
    """An argparse type: *convert*, then refuse what *accept* rejects
    (a clean error beats a traceback)."""
    def parse(value: str):
        number = convert(value)
        if not accept(number):
            raise argparse.ArgumentTypeError(
                "must be %s, got %s" % (expected, value))
        return number
    parse.__name__ = name  # argparse names the type in its messages
    return parse


positive_int = _checked("positive_int", int, lambda n: n >= 1,
                        "a positive integer")
#: ``cache-stats --repeat``: one cold run and at least one warm one.
at_least_two = _checked("at_least_two", int, lambda n: n >= 2,
                        "an integer >= 2")
positive_float = _checked("positive_float", float, lambda n: n > 0,
                          "a positive number")
#: Fault probabilities must lie in [0, 1].
rate = _checked("rate", float, lambda n: 0.0 <= n <= 1.0,
                "a probability in [0, 1]")

#: Keywords of every fault-rate flag.
RATE = dict(type=rate, default=0.0, metavar="RATE")

STRATEGIES = [strategy.value for strategy in Strategy]

#: Options more than one subcommand takes: flag -> ``add_argument``
#: keywords (see :func:`add_command` for per-command overrides).
OPTIONS = {
    "--dataset": dict(default="lubm",
                      choices=["lubm", "geo", "bib", "books", "file"]),
    "--file": dict(help="N-Triples file (with --dataset file)"),
    "--universities": dict(type=positive_int, default=1),
    "--seed": dict(type=int, default=42),
    "--query": dict(help="a catalog query name (Q1..Q14, Ex1, G1.., B1..)"),
    "--sparql": dict(help="an inline SPARQL-lite query"),
    "--strategy": dict(default="all", choices=["all"] + STRATEGIES),
    "--engine": dict(default=DEFAULT_ENGINE, choices=ANSWERER_ENGINES,
                     help="evaluation engine: columnar (the default; "
                          "vectorized sorted-run execution, per-operator "
                          "metrics) or sqlite (the SQL cross-check)"),
    "--interval-encoding": dict(
        action="store_true",
        help="hierarchy-aware dictionary encoding: covered subclass/"
             "subproperty unions collapse into range-scanned interval "
             "atoms"),
    "--cache-size": dict(type=positive_int, default=1024,
                         help="LRU capacity per cache tier (default 1024)"),
    "--show-answers": dict(action="store_true"),
    "--limit": dict(type=positive_int, default=20,
                    help="answer rows shown (default 20)"),
    "--timeout": dict(type=positive_float, default=None,
                      help="time budget in seconds (federate, serve: per "
                           "request); an overrun fails cleanly"),
    "--row-budget": dict(type=positive_int, default=None,
                         help="cap on the rows evaluation materializes "
                              "(serve: per request, charged to its tenant)"),
    "--max-retries": dict(type=positive_int,
                          help="attempts after a failed one: next-best "
                               "covers on a budget overrun (answer), "
                               "retries of a transient endpoint failure "
                               "(federate); default %(default)s"),
    "--breaker-threshold": dict(type=positive_int, default=None,
                                help="consecutive failures that open a "
                                     "circuit breaker"),
    "--json": dict(action="store_true", help="print the report as JSON"),
    "--wal": dict(required=True,
                  help="durability directory (WAL segments + checkpoints)"),
}

DATASET = ("--dataset", "--file", "--universities", "--seed")
QUERY = ("--query", "--sparql")


def add_command(subparsers, name, func, help, *flags, **overrides):
    """Add subcommand *name*, run by *func*, with the shared *flags*.
    ``overrides`` maps a flag's dest (``max_retries``) to keywords that
    replace its shared ones."""
    parser = subparsers.add_parser(name, help=help)
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, **dict(OPTIONS[flag], **overrides.get(dest, {})))
    parser.set_defaults(func=func)
    return parser


def add_chaos_seed(parser, flag: str) -> None:
    """*flag* seeds an injected fault schedule; left out, the command
    reads ``$REPRO_CHAOS_SEED`` through :func:`chaos_seed`."""
    parser.add_argument(flag, type=int, default=None,
                        help="fault-plan seed (default $REPRO_CHAOS_SEED or 0)")


def chaos_seed(seed):
    """*seed* when the flag gave one, else ``$REPRO_CHAOS_SEED`` (0 when
    unset).  Read only by the commands that seed faults, so a malformed
    variable is their usage error and no other command's."""
    if seed is not None:
        return seed
    text = os.environ.get("REPRO_CHAOS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError("$REPRO_CHAOS_SEED must be an integer, got %r" % text)


def _read(flag: str, path: str, read):
    """``read(path)``; a path the user named that cannot be read is a
    usage error."""
    try:
        return read(path)
    except (OSError, UnicodeError) as exc:
        raise UsageError("cannot read %s %s: %s"
                         % (flag, path, getattr(exc, "strerror", None) or exc))


_GENERATORS = {
    "lubm": lambda args: generate_lubm(universities=args.universities,
                                       seed=args.seed),
    "geo": lambda args: generate_geo(seed=args.seed),
    "bib": lambda args: generate_bib(seed=args.seed),
    "books": lambda args: books_graph(),
}


def build_graph(args):
    """The graph ``--dataset`` names (``file``: read from ``--file``,
    skipping unparsable lines under ``--lenient``)."""
    if args.dataset != "file":
        return _GENERATORS[args.dataset](args)
    if not args.file:
        raise UsageError("--dataset file requires --file PATH")
    errors = []
    graph = _read("--file", args.file, lambda path: load_file(
        path, strict=not getattr(args, "lenient", False), errors=errors))
    if errors:
        print("skipped %d unparsable line(s) (first: %s)"
              % (len(errors), errors[0]), file=sys.stderr)
    return graph


_CATALOGS = {
    "lubm": lubm_queries,
    "geo": geo_queries,
    "bib": bib_queries,
    "books": lambda: {"B1": books_example_query()},
}


def catalog_query(dataset: str, name, missing="--query NAME or --sparql QUERY"):
    """The query *name* names for *dataset*: ``Ex1`` (the paper's
    Example 1) for every dataset but books, else one of the dataset's
    catalog.  No name, or ``default``, names the dataset's default
    query, which only books has (B1, its only query); elsewhere the
    error asks for *missing*."""
    if name in (None, "default"):
        if dataset != "books":
            raise UsageError("dataset %r has no default query: provide %s"
                             % (dataset, missing))
        name = "B1"
    if name == "Ex1" and dataset != "books":
        return example1_query()
    query = _CATALOGS.get(dataset, dict)().get(name)
    if query is None:
        raise UsageError("unknown query %r for dataset %r" % (name, dataset))
    return query


def resolve_query(args):
    """``--sparql`` parsed, else the catalog query ``--query`` names."""
    if args.sparql:
        return parse_query(args.sparql)
    return catalog_query(args.dataset, args.query)


def parse_triple(text: str):
    """One N-Triples triple without its final dot; ``rdf:type``,
    ``rdfs:subClassOf`` and ``rdfs:subPropertyOf`` may be prefixed."""
    for uri in (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF):
        text = text.replace(shorten(uri), uri.n3())
    return parse_line(text + " .")


def count(default: int):
    """A script verb's optional count argument."""
    return lambda words: int(words[0]) if words else default


def read_script(command: str, path: str, verbs) -> list:
    """The ``command --script`` file at *path* as (verb, payload) pairs.

    ``#`` starts a comment; blank lines are skipped.  *verbs* maps each
    verb to a function of the line's remaining words that returns its
    payload, raising ``IndexError`` or ``ValueError`` on bad words.
    """
    lines = _read("--script", path,
                  lambda name: pathlib.Path(name).read_text().splitlines())
    commands = []
    for lineno, line in enumerate(lines, start=1):
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        verb = words[0]
        try:
            if verb not in verbs:
                raise ValueError("unknown verb %r" % verb)
            commands.append((verb, verbs[verb](words[1:])))
        except (IndexError, ValueError) as exc:
            raise UsageError("%s script line %d: %s" % (command, lineno, exc))
    return commands
