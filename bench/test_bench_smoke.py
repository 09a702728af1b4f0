"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  Runs every
workload at toy scale, twice, and checks that what the benchmark emits
is what ``BENCHMARK.json`` declares, that nothing failed, and that the
counts a later change may be judged by repeat exactly.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Counts that must not change between two runs of the same code.
EXACT = (
    "optimizer.covers_explored",
    "optimizer.cover_fragments",
    "reformulation.disjuncts",
    "reformulation.atoms",
    "encoding.disjuncts",
    "storage.plan_nodes",
    "storage.max_intermediate_rows",
    "cache.answer_hit_ratio",
    "cache.reformulation_hit_ratio",
    "cache.invalidations",
    "service.shed",
    "saturation.derived_triples",
    "saturation.derived_per_insert",
)


def smoke_run():
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(os.path.join(HERE, "out", "result.json"), encoding="utf-8") as source:
        return json.load(source)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


@pytest.fixture(scope="module")
def results():
    return smoke_run(), smoke_run()


def test_names_and_units_match_the_declaration(spec, results):
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    runs = results[0]["runs"]
    workloads = [w["name"] for w in spec["workloads"]]
    for traced in (False, True):
        assert [r["workload"] for r in runs if r["traced"] is traced] == workloads
    for run in runs:
        emitted = {name: m["unit"] for name, m in run["metrics"].items()}
        assert emitted == declared[run["traced"]]
        for name, unit in emitted.items():
            assert NAME.match(name), name
            assert unit, name
    for name in workloads:
        assert NAME.match(name), name


def test_nothing_failed(results):
    for result in results:
        for run in result["runs"]:
            assert run["failed_share"] == 0, (run["workload"], run["errors"])
            assert run["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(results):
    for run in results[0]["runs"]:
        if not run["traced"]:
            for name, metric in run["metrics"].items():
                assert metric["value"] > 0, (run["workload"], name)


def test_counts_repeat_exactly(results):
    first, second = (
        {r["workload"]: r["metrics"] for r in result["runs"] if r["traced"]}
        for result in results
    )
    for workload, metrics in first.items():
        for name in EXACT:
            assert metrics[name]["value"] == second[workload][name]["value"], (
                workload,
                name,
            )


def test_result_records_how_it_was_made(results):
    result = results[0]
    for key in ("seed", "seconds", "commit", "python", "nproc"):
        assert key in result
    for run in result["runs"]:
        for key in ("universities", "triples", "timed_ops", "kinds"):
            assert run[key]
