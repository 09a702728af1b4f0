"""Command-line interface: the demo's workflows from a shell.

    python -m repro stats --dataset lubm --universities 2
    python -m repro answer --dataset lubm --query Q9 --strategy ref-gcov
    python -m repro answer --dataset books --sparql "SELECT ?x WHERE {...}"
    python -m repro answer --dataset lubm --query Q5 --engine sqlite
    python -m repro explain --dataset lubm --query Q1
    python -m repro covers --dataset lubm --query Ex1
    python -m repro why --dataset books --triple \\
        '<http://example.org/books/doi1> rdf:type <http://example.org/books/Publication>'
    python -m repro load --dataset lubm --wal /tmp/lubm-wal --checkpoint
    python -m repro checkpoint --wal /tmp/lubm-wal
    python -m repro recover --wal /tmp/lubm-wal --verify
    python -m repro serve --dataset lubm --queries Q1,Q6,Ex1 --tenants alpha:3 beta:1
    python -m repro replicate --writes 40 --drop-rate 0.2 --dir /tmp/cluster
    python -m repro replstatus --dir /tmp/cluster

Each subcommand maps to one step of the Section 5 demonstration:
``stats`` is step 1, ``answer`` (with ``--strategy all``) is step 2,
``explain``/``covers`` are step 3; ``why`` prints the derivation of an
entailed triple (all in :mod:`.demo`, with ``cache-stats`` and
``federate``).  ``load --wal`` / ``checkpoint`` / ``recover`` drive
the crash-safe storage layer (DESIGN.md §10, :mod:`.durable`);
``serve`` runs a scripted multi-tenant serving session through the
admission-controlled query service (DESIGN.md §13) and ``replicate``
/ ``replstatus`` a WAL-shipping cluster (:mod:`.sessions`).  The
options several subcommands share are defined once, in
:mod:`.options`.

Exit codes (documented in README.md):

====  =======================================================
0     success (``recover``: clean, nothing truncated;
      ``serve``: every submitted request completed)
1     failure (including ``recover --verify`` discrepancies
      and ``serve`` runs where no request completed)
2     usage error (bad flags or flag combinations, malformed
      ``--sparql`` or script lines, unknown query names,
      unreadable ``--file``/``--script`` paths): one line on
      stderr
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
import sys
from typing import Optional

from ..core import OptionError
from ..query import QueryParseError
from ..rdf import ParseError

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


def build_parser() -> argparse.ArgumentParser:
    from . import demo, durable, sessions

    parser = _ArgumentParser(
        prog="repro",
        description="Reformulation-based RDF query answering (VLDB 2015 demo reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for commands in (demo, durable, sessions):
        commands.register(subparsers)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OptionError, QueryParseError, ParseError) as exc:
        # Malformed --sparql or N-Triples input, unknown query names
        # and option combinations the answerer refuses are usage
        # errors, not tracebacks; any other exception is a bug and
        # keeps its traceback.
        print("repro: error: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_USAGE
