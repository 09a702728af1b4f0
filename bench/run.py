#!/usr/bin/env python3
"""The repository's one benchmark.

    python bench/run.py                     all four workloads, untraced then traced
    python bench/run.py --smoke             the same at toy scale, in seconds
    python bench/run.py --check-stability   the untraced set twice, compared
    python bench/run.py --regenerate-expected
    python bench/run.py --workload W --seed N --seconds S --trace 0|1

The last form measures one workload once and prints, as its last line,
the JSON object ``BENCHMARK.json``'s driver reads.  Every measurement
runs in a fresh child process with ``PYTHONHASHSEED=0``.  See
``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SOURCES = os.path.join(ROOT, "src")


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def parse_arguments(spec: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="nominal length of a timed loop; selects the frozen op counts",
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="measure this workload once and print the driver's JSON line",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-stability", action="store_true")
    parser.add_argument("--regenerate-expected", action="store_true")
    return parser.parse_args()


# ----------------------------------------------------------------------
# One measurement (runs in the child process)


def measure(args: argparse.Namespace, spec: Dict) -> int:
    sys.path.insert(0, SOURCES)
    import runner
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.seconds, args.smoke)
    if args.trace:
        outcome = runner.measure_traced(workload, OUT)
        declared = spec["per_layer"]
    else:
        outcome = runner.measure_untraced(workload, args.seed, args.smoke)
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(outcome.metrics):
        sys.exit(
            "metrics measured and metrics declared in BENCHMARK.json differ: %s"
            % sorted(set(units) ^ set(outcome.metrics))
        )
    record = {
        "workload": workload.name,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "universities": workload.universities,
        "triples": len(workload.graph),
        "kinds": list(workload.kinds),
        "timed_ops": outcome.timed_ops,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / outcome.attempted,
        "runner.cpu_share": outcome.cpu_share,
        "errors": outcome.errors,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
        },
    }
    with open(record_path(workload.name, args.trace), "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=1)
        sink.write("\n")
    print_record(record)
    # The driver's line: a layer with no number (a retired engine) reads
    # 0 here, like any other layer the run did not enter.
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": entry["value"] or 0.0, "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()
                },
            }
        )
    )
    return 0


def record_path(workload: str, traced) -> str:
    return os.path.join(
        OUT, "run-%s-%s.json" % (workload, "traced" if traced else "untraced")
    )


def print_record(record: Dict) -> None:
    print(
        "%s  %s  seed %d  %d universities, %d triples  %d timed ops over %d kinds"
        % (
            record["workload"],
            "traced" if record["traced"] else "untraced",
            record["seed"],
            record["universities"],
            record["triples"],
            record["timed_ops"],
            len(record["kinds"]),
        )
    )
    for name, entry in record["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-32s %14s %s" % (name, shown, entry["unit"]))
    print(
        "  %-32s %14.6g ratio  (%d failed of %d attempted)"
        % ("failed_share", record["failed_share"], record["failed"], record["attempted"])
    )
    if not record["traced"]:  # a traced run lists it among its metrics
        print(
            "  %-32s %14.6g ratio"
            % ("runner.cpu_share", record["runner.cpu_share"])
        )
    for error in record["errors"]:
        print("  error: %s" % error)


# ----------------------------------------------------------------------
# Orchestration (the parent process)


def child(args: argparse.Namespace, workload: str, traced: int, quiet=False) -> int:
    """Measure *workload* in a fresh interpreter with a pinned hash
    seed; waits for it and returns its exit code."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(traced),
    ]
    if args.smoke:
        command.append("--smoke")
    environment = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(
        command, env=environment, stdout=subprocess.DEVNULL if quiet else None
    )
    return completed.returncode


def read_record(workload: str, traced: int) -> Dict:
    with open(record_path(workload, traced), encoding="utf-8") as source:
        return json.load(source)


def provenance() -> Dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_all(args: argparse.Namespace, spec: Dict) -> int:
    """Every workload untraced, then traced; ``bench/out/result.json``."""
    names = [w["name"] for w in spec["workloads"]]
    records: List[Dict] = []
    status = 0
    for traced in (0, 1):
        for name in names:
            code = child(args, name, traced)
            if code != 0:
                print("%s (trace %d) exited with code %d" % (name, traced, code))
                status = 1
                continue
            record = read_record(name, traced)
            records.append(record)
            if record["failed"]:
                status = 1
    result = dict(provenance(), seed=args.seed, seconds=args.seconds,
                  smoke=args.smoke, runs=records)
    with open(os.path.join(OUT, "result.json"), "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=1)
        sink.write("\n")
    print("wrote %s" % os.path.relpath(os.path.join(OUT, "result.json")))
    return status


def check_stability(args: argparse.Namespace, spec: Dict) -> int:
    """Two untraced sets back to back; fails when any end-to-end metric
    moved by more than its own bound between them."""
    names = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, Dict]] = []
    for _ in range(2):
        current = {}
        for name in names:
            if child(args, name, 0, quiet=True) != 0:
                print("%s exited with an error" % name)
                return 1
            current[name] = read_record(name, 0)
        sets.append(current)
    status = 0
    print("%-18s %-16s %12s %12s %8s %7s" % (
        "workload", "metric", "first", "second", "gap", "bound"))
    for name in names:
        first, second = sets[0][name], sets[1][name]
        for run in (first, second):
            if run["failed"]:
                print("%-18s failed_share > 0" % name)
                status = 1
            if run["runner.cpu_share"] < 0.9:
                # Something else had the processor: the pair proves
                # nothing either way, so it is not averaged in.
                print("%-18s disturbed: runner.cpu_share %.3f < 0.9"
                      % (name, run["runner.cpu_share"]))
                status = 1
        for metric in spec["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            gap = abs(a - b) / min(a, b)
            verdict = "" if gap <= metric["bound"] else "  EXCEEDS BOUND"
            if verdict:
                status = 1
            print("%-18s %-16s %12.6g %12.6g %7.2f%% %6.0f%%%s" % (
                name, metric["name"], a, b, 100 * gap, 100 * metric["bound"],
                verdict))
    return status


def regenerate_expected(args: argparse.Namespace, spec: Dict) -> int:
    sys.path.insert(0, SOURCES)
    import oracle
    import workloads

    for entry in spec["workloads"]:
        workload = workloads.build(entry["name"], args.seed, args.seconds)
        answers = oracle.expected_answers(workload, args.seed, regenerate=True)
        print("%s: %d reference answers" % (workload.name, len(answers)))
    return 0


def main() -> int:
    spec = load_spec()
    args = parse_arguments(spec)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print("no program to measure: %s/repro is missing" % SOURCES, file=sys.stderr)
        return 2
    if args.regenerate_expected:
        return regenerate_expected(args, spec)
    if args.workload is None:
        os.makedirs(OUT, exist_ok=True)
        if args.check_stability:
            return check_stability(args, spec)
        return run_all(args, spec)
    if os.environ.get("PYTHONHASHSEED") != "0":
        return child(args, args.workload, args.trace)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
