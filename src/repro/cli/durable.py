"""The crash-safe storage subcommands: load, checkpoint and recover."""

from __future__ import annotations

import json
import sys

from . import (
    EXIT_FAILURE,
    EXIT_NOTHING_TO_RECOVER,
    EXIT_OK,
    EXIT_RECOVERED_TRUNCATED,
)
from .options import DATASET, add_command, build_graph


def cmd_load(args) -> int:
    """Load a dataset into a crash-safe store: every triple and
    constraint becomes one WAL record under ``--wal DIR``."""
    from ..durability import DurableStore

    graph = build_graph(args)
    durable = DurableStore.open(args.wal, sync=args.sync)
    records = durable.load(graph)
    line = "loaded %d record(s) into %s (segment %d, %d triple(s) stored)" % (
        records, args.wal, durable.segment, durable.store.triple_count)
    if args.checkpoint:
        line += "; checkpoint %s" % durable.checkpoint()
    durable.close()
    print(line)
    return EXIT_OK


def cmd_checkpoint(args) -> int:
    """Snapshot the durable state under ``--wal DIR`` atomically and
    rotate the WAL, so the next recovery replays only new records."""
    from ..durability import DurableStore

    durable = DurableStore.open(args.wal)
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
    """Recover the store under ``--wal DIR`` and report what happened."""
    from ..durability import recover, verify_recovery

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


def register(subparsers) -> None:
    load = add_command(subparsers, "load", cmd_load,
                       "load a dataset into a crash-safe WAL-backed store",
                       *DATASET, "--wal")
    load.add_argument("--sync", default="always", choices=["always", "never"],
                      help="fsync every WAL record (always) or only on "
                           "checkpoints (never); default always")
    load.add_argument("--checkpoint", action="store_true",
                      help="write a checkpoint after loading")
    load.add_argument("--lenient", action="store_true",
                      help="with --dataset file: skip unparsable N-Triples "
                           "lines instead of failing")

    add_command(subparsers, "checkpoint", cmd_checkpoint,
                "snapshot a durable store and rotate its WAL", "--wal")

    recover = add_command(
        subparsers, "recover", cmd_recover,
        "recover a durable store (exit 0 clean / 4 truncated tail / "
        "5 nothing to recover)",
        "--wal", "--json",
    )
    recover.add_argument("--verify", action="store_true",
                         help="cross-check the recovered store against a "
                              "fresh rebuild (exit 1 on discrepancies)")
    recover.add_argument("--read-only", action="store_true",
                         help="inspect only: leave torn WAL tails on disk")
    recover.add_argument("--saturate", action="store_true",
                         help="saturate the recovered store too")
