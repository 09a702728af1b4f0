"""The command line's surface, pinned: every subcommand and, for each
option, its option strings, dest, default, choices, nargs, required and
metavar must match ``cli_parser_snapshot.json``.

Argument types and help text are left out on purpose: a type may be
tightened (a rate checked to lie in [0, 1]) and shared options share one
help string.  Option order is not compared either.  Regenerate the
snapshot only when a flag is meant to change::

    PYTHONPATH=src python tests/test_cli_parser.py > tests/cli_parser_snapshot.json
"""

import argparse
import json
import pathlib
import sys

SNAPSHOT = pathlib.Path(__file__).with_name("cli_parser_snapshot.json")


def describe_parser():
    """The parser as JSON-ready data: ``{subcommand: {option: fields}}``."""
    from repro.cli import build_parser

    def options(parser):
        described = {}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                continue
            key = action.option_strings[0] if action.option_strings else action.dest
            described[key] = {
                "option_strings": sorted(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "nargs": action.nargs,
                "required": action.required,
                "metavar": action.metavar,
            }
        return described

    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    described = {"": options(parser)}
    for name, sub in subparsers.choices.items():
        described[name] = options(sub)
    return described


def test_parser_matches_snapshot(monkeypatch):
    # Building the parser reads no environment: a malformed
    # $REPRO_CHAOS_SEED neither fails it nor moves a default.
    monkeypatch.setenv("REPRO_CHAOS_SEED", "abc")
    assert describe_parser() == json.loads(SNAPSHOT.read_text())


if __name__ == "__main__":
    json.dump(describe_parser(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
