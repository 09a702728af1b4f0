"""A1 — ablation: exact per-constant statistics vs uniformity.

DESIGN.md's cost model uses MCV-style exact frequencies for
bound-constant scans by default.  This ablation re-prices E8's cover
space with the textbook uniformity assumption instead and compares:

* scan-estimate error on constant-bound patterns;
* the rank correlation between estimated cover costs and measured
  runtimes (the quantity GCov's decisions live off);
* whether GCov's chosen cover changes.
"""

from __future__ import annotations

import time

import pytest
from scipy import stats as scipy_stats

from repro.bench import format_table
from repro.datasets import example1_query, lubm_queries
from repro.optimizer import CoverCostEstimator, exhaustive_cover_search, gcov
from repro.query import ConjunctiveQuery, Variable
from repro.reformulation import jucq_for_cover
from repro.storage import BackendProfile, Executor

EXACT = BackendProfile("exact-stats", exact_constant_stats=True)
UNIFORM = BackendProfile("uniform-stats", exact_constant_stats=False)


@pytest.fixture(scope="module")
def probe_query():
    q9 = lubm_queries()["Q9"]
    head = [item for item in q9.head if isinstance(item, Variable)]
    return ConjunctiveQuery(head, q9.atoms[:2] + q9.atoms[3:5])


def _rank_correlation(answerer_store, schema, query, backend):
    estimator = CoverCostEstimator(query, schema, answerer_store, backend)
    space = exhaustive_cover_search(
        query, schema, answerer_store, backend, estimator=estimator
    ).space
    executor = Executor(answerer_store, backend)
    estimated, measured = [], []
    for cover, cost in space:
        jucq = jucq_for_cover(cover, schema)
        start = time.perf_counter()
        executor.run(jucq)
        measured.append(time.perf_counter() - start)
        estimated.append(cost)
    rho, _ = scipy_stats.spearmanr(estimated, measured)
    return rho


def test_estimate_quality_comparison(lubm_answerer, probe_query):
    schema = lubm_answerer.schema
    store = lubm_answerer.store
    rho_exact = _rank_correlation(store, schema, probe_query, EXACT)
    rho_uniform = _rank_correlation(store, schema, probe_query, UNIFORM)
    print()
    print(
        format_table(
            ["statistics", "Spearman(est, measured)"],
            [["exact (MCV-style)", "%.2f" % rho_exact],
             ["uniformity assumption", "%.2f" % rho_uniform]],
            title="A1: estimate quality over the cover space",
        )
    )
    # Exact stats must not *hurt* the ranking.
    assert rho_exact >= rho_uniform - 0.15


def test_constant_scan_errors(lubm_answerer):
    """Per-scan relative error on the workload's constant-bound atoms."""
    from repro.cost import cardinality
    from repro.storage import ScanNode, Planner

    store = lubm_answerer.store
    statistics = store.statistics
    errors = {"exact": [], "uniform": []}
    planner = Planner(store, EXACT)
    for name in ("Q1", "Q3", "Q4", "Q7"):
        query = lubm_queries()[name]
        for atom in query.atoms:
            scan = planner._scan_for_atom(atom)
            if scan is None:
                continue
            bound = scan.bound_positions()
            if bound[0] is None and bound[2] is None:
                continue  # no constant beyond the property
            actual = len(
                __import__("repro.storage.executor", fromlist=["_execute_scan"])
                ._execute_scan(scan, store)
            )
            for label, flag in (("exact", True), ("uniform", False)):
                estimate = cardinality.estimate_scan(
                    scan.positions, statistics, store.type_property_id, flag
                )
                errors[label].append(abs(estimate - actual))
    mean_exact = sum(errors["exact"]) / max(len(errors["exact"]), 1)
    mean_uniform = sum(errors["uniform"]) / max(len(errors["uniform"]), 1)
    print(
        "\nA1: mean |estimate - actual| on %d constant-bound scans: "
        "exact %.2f vs uniform %.2f"
        % (len(errors["exact"]), mean_exact, mean_uniform)
    )
    assert mean_exact <= mean_uniform


def _groups_type_atoms(cover):
    return all(
        len(fragment) > 1
        for type_atom_index in (0, 1)
        for fragment in cover.fragments
        if type_atom_index in fragment
    )


def test_gcov_choice_stability(lubm_answerer):
    """Does the ablation change the chosen cover for Example 1?

    Finding: the statistics assumption changes the *selected cover*.
    The textbook uniformity model (the paper's, and our default) picks
    the fully grouped cover of Example 1; the sharper MCV estimates
    price the Zipf-head degree constant realistically high, under
    which the model genuinely prefers leaving ``t1`` ungrouped (beam
    search concurs, so it is a model preference, not a greedy
    artifact).  At the paper's scale — where the degree constant is
    rare, as uniformity predicts — the grouped cover is the right
    call, which is why the textbook model is the faithful default.
    """
    from repro.optimizer import beam_search

    query = example1_query()
    schema = lubm_answerer.schema
    store = lubm_answerer.store
    exact_greedy = gcov(query, schema, store, EXACT)
    uniform_greedy = gcov(query, schema, store, UNIFORM)
    exact_beam = beam_search(query, schema, store, EXACT, beam_width=4)
    print(
        "\nA1: GCov (uniformity):  %r\n"
        "    GCov (exact stats):  %r\n"
        "    beam-4 (exact):      %r"
        % (uniform_greedy.cover, exact_greedy.cover, exact_beam.cover)
    )
    assert _groups_type_atoms(uniform_greedy.cover)
    # Under exact statistics greedy and beam agree with each other —
    # whatever they choose, it is the model speaking, not the search.
    assert (
        _groups_type_atoms(exact_greedy.cover)
        == _groups_type_atoms(exact_beam.cover)
    )
