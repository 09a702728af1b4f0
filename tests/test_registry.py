"""Tests for the paper-experiment runner, ``benchmarks/paper.py``, and
the documents indexed by its experiment ids."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "paper", os.path.join(ROOT, "benchmarks", "paper.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paper = _load_runner()
IDS = [entry.identifier for entry in paper.EXPERIMENTS]


def _read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as source:
        return source.read()


class TestRegistry:
    def test_identifiers_unique(self):
        assert len(IDS) == len(set(IDS))

    def test_covers_all_experiments(self):
        """Every E…/A… heading of EXPERIMENTS.md names a runner id or is
        marked retired, and every runner id has its heading."""
        named = set()
        for identifier, rest in re.findall(r"^## ([EA]\d+)\b(.*)$", _read("EXPERIMENTS.md"), re.M):
            if identifier in IDS:
                named.add(identifier)
            else:
                assert "retired" in rest, identifier
        assert named == set(IDS)

    def test_index(self):
        """DESIGN.md §4's experiment index lists the runner's ids, in order."""
        section = _read("DESIGN.md").split("\n## 4.")[1].split("\n## 5.")[0]
        assert re.findall(r"^\| ([EA]\d+) \|", section, re.M) == IDS

    def test_quick_runs_return_text(self):
        setup, headers, rows = paper.EXPERIMENTS[IDS.index("E1")].run(True)
        assert setup and headers
        assert ["UCQ disjuncts (their product)", "318,096", "186,624"] in rows


class TestCliExperiments:
    """The runner's command line."""

    def test_run_selected(self, capsys):
        assert paper.main(["E1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("## E1 — ")
        assert "| UCQ disjuncts (their product) | 318,096 | 186,624 |" in out

    def test_list(self, capsys):
        with pytest.raises(SystemExit) as raised:
            paper.main(["E10"])
        assert raised.value.code == 2
        assert ", ".join(IDS) in capsys.readouterr().err

    def test_failed_shape_exits_1_naming_the_experiment(self, capsys, monkeypatch):
        def misshapen(quick):
            raise AssertionError("SCQ beat the best cover")

        monkeypatch.setattr(paper, "EXPERIMENTS", [paper.Experiment("E2", "claim", misshapen)])
        assert paper.main([]) == 1
        err = capsys.readouterr().err
        assert "E2: shape assertion failed at line" in err
        assert "SCQ beat the best cover" in err
