"""The columnar engine's operator trees: what building one allocates,
and the per-operator metrics its meters keep.

* **Allocation budget**: building the operator tree of Example 1's
  paper-cover JUCQ (1,239 plan nodes at LUBM 1) leaves at most eight
  GC-tracked objects alive per plan node.  They live for the whole
  execution, so each one is promoted and walked by every full
  collection.  Frames are not counted: a generator's frame is its own
  object before Python 3.11 and part of the generator after.
* **Metrics invariants**, over the differential matrix's queries and
  strategies: an operator's ``rows_in`` is the sum of its children's
  ``rows_out``, no operator still holds buffered rows, and a run leaves
  every node's attributes unchanged (what it observed lives in its
  metrics) — on a complete run (where a merge join may stop reading
  one input early), on a second run of the same plan, and on the
  partial metrics a budget abort carries along with its partial rows.
"""

import gc
from types import FrameType

import pytest

from repro import BudgetExceeded, ExecutionBudget, QueryAnswerer, Strategy
from repro.columnar.engine import (
    DEFAULT_COLUMNAR_BATCH_SIZE,
    _ColumnarPipeline,
    collect_columnar,
)
from repro.datasets import example1_best_cover, example1_query, generate_lubm, lubm_queries
from repro.engine.metrics import PipelineMetrics
from repro.query import Cover
from repro.reformulation import ReformulationTooLarge
from repro.storage import Executor, QueryTooLargeError

#: The tracked objects one plan node may cost once its operator is built.
OBJECTS_PER_NODE = 8

#: The differential matrix's LUBM queries and strategies
#: (tests/test_engine_equivalence.py).
QUERIES = ["Q1", "Q5", "Q9", "Q13", "Ex1"]
STRATEGIES = [
    Strategy.SAT, Strategy.REF_UCQ, Strategy.REF_SCQ, Strategy.REF_JUCQ, Strategy.REF_GCOV,
]


def _query(name):
    return example1_query() if name == "Ex1" else lubm_queries()[name]


def _tracked() -> int:
    return sum(1 for item in gc.get_objects() if type(item) is not FrameType)


def _attributes(plan):
    return [dict(vars(node)) for node in plan.walk()]


def _assert_invariants(plan, metrics):
    for node in plan.walk():
        entry = metrics.operator(node)
        children = node.children()
        if children:
            pulled = sum(metrics.operator(child).rows_out for child in children)
            assert entry.rows_in == pulled, node
        assert metrics.actual_rows(node) == entry.rows_out, node
        assert entry.buffered_rows == 0, node  # released, even if stopped early


def test_a_plan_node_costs_a_handful_of_tracked_objects():
    answerer = QueryAnswerer(generate_lubm(universities=1, seed=42))
    query = example1_query()
    compiled = answerer.compile(query, Strategy.REF_JUCQ, cover=example1_best_cover(query))
    plan = answerer.executor.planner.plan(compiled.relational)
    nodes = sum(1 for _ in plan.walk())
    assert nodes > 1000  # two 144-disjunct unions of joins
    pipeline = _ColumnarPipeline(
        answerer.store, PipelineMetrics(), None, DEFAULT_COLUMNAR_BATCH_SIZE
    )
    gc.collect()
    gc.disable()
    try:
        before = _tracked()
        stream = pipeline.stream(plan)
        built = _tracked() - before
    finally:
        gc.enable()
    assert built <= OBJECTS_PER_NODE * nodes, (
        "%d tracked objects for %d plan nodes (%.1f each)"
        % (built, nodes, built / nodes)
    )
    # The tree still runs: the paper cover's answer, like any cover's.
    assert sum(chunk.length for chunk in stream.chunks) > 0


@pytest.fixture(scope="module")
def answerer(lubm_small):
    return QueryAnswerer(lubm_small)


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.value for s in STRATEGIES])
def test_meters_agree_along_every_edge(answerer, name, strategy):
    query = _query(name)
    cover = Cover.per_atom(query) if strategy is Strategy.REF_JUCQ else None
    try:
        report = answerer.answer(query, strategy, cover=cover)
    except (QueryTooLargeError, ReformulationTooLarge):
        return  # refused before planning (Ex1's UCQ): nothing ran
    execution = report.execution
    _assert_invariants(execution.plan, execution.metrics)
    assert execution.row_count == len(report.answer)
    # The plan is only read: a second run leaves every node as it was
    # and meters the same rows.
    before = _attributes(execution.plan)
    store = answerer.saturated_store() if strategy is Strategy.SAT else answerer.store
    rerun = Executor(store).run(execution.plan)
    assert _attributes(execution.plan) == before
    _assert_invariants(execution.plan, rerun.metrics)
    assert [e.rows_out for e in rerun.metrics.per_operator()] == [
        e.rows_out for e in execution.metrics.per_operator()
    ]


def test_a_budget_abort_carries_partial_metrics_that_agree(answerer):
    """Ex1's SCQ multiplies its open type atoms: a row budget stops it
    mid-stream, and the metrics it carries out obey the invariants."""
    query = example1_query()
    compiled = answerer.compile(query, Strategy.REF_SCQ)
    plan = answerer.executor.planner.plan(compiled.relational)
    metrics = PipelineMetrics()
    budget = ExecutionBudget(max_rows=2000)
    before = _attributes(plan)
    with pytest.raises(BudgetExceeded) as info:
        collect_columnar(plan, answerer.store, budget, metrics=metrics)
    _assert_invariants(plan, metrics)
    assert _attributes(plan) == before
    partial = info.value.partial
    assert [op["rows_out"] for op in partial["operators"]] == [
        metrics.actual_rows(node) for node in plan.walk()
    ]
    assert sum(op["rows_out"] for op in partial["operators"]) >= 2000
    assert info.value.diagnostics()["partial_row_count"] == len(info.value.partial_rows)
