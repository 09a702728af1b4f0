"""Plan execution: the in-process engine behind one façade.

:class:`Executor` plans a query against a
:class:`~repro.storage.store.TripleStore` and runs the plan on the
vectorized columnar executor of :mod:`repro.columnar.engine`, which
streams column batches over the store's sorted integer-run indexes in
bounded memory with per-operator metrics.  Every node's actual
cardinality is recorded in the run's metrics, never on the plan (the
paper's Example 1 discussion is about *intermediate result sizes* — 33
million rows for the open type atoms vs 2,296 after grouping — so
experiments can compare the estimates with reality).  SQL lowering
(:mod:`repro.storage.sql`) is the external cross-check, beside this.
"""

from __future__ import annotations

import time
from typing import FrozenSet, List, Optional, Tuple

from ..columnar.engine import ColumnarAnswer, collect_columnar, run_columnar
from ..engine.ir import PlanNode
from ..engine.metrics import PipelineMetrics
from ..rdf.terms import Term
from .backends import BackendProfile, HASH_BACKEND
from .planner import PlannableQuery, Planner
from .store import TripleStore

Row = Tuple[int, ...]

#: The in-process engines (there is one).  Kept importable for
#: ``bench/layers.py`` until ROADMAP item 8 retires its replay.
ENGINES = ("columnar",)


class ExecutionResult:
    """The outcome of running one plan: decoded answer plus metrics."""

    def __init__(
        self,
        plan: PlanNode,
        collected: ColumnarAnswer,
        store: TripleStore,
        elapsed_seconds: float,
        metrics: PipelineMetrics,
    ):
        self.plan = plan
        self._collected = collected
        self._store = store
        self.elapsed_seconds = elapsed_seconds
        #: Per-operator metrics of the run.
        self.metrics = metrics
        self._answer: Optional[FrozenSet[Tuple[Term, ...]]] = None

    @property
    def row_count(self) -> int:
        return self._collected.length

    def answer(self) -> FrozenSet[Tuple[Term, ...]]:
        """The decoded answer relation (set semantics), memoized —
        diagnostics-heavy callers read it repeatedly and must not pay
        decoding and re-freezing each time.  Decodes once per column."""
        if self._answer is None:
            self._answer = self._collected.decode(self._store.dictionary)
        return self._answer

    def max_intermediate_rows(self) -> int:
        """The largest operator output in the plan — the quantity that
        makes SCQ evaluation slow in Example 1."""
        actual_rows = self.metrics.actual_rows
        return max((actual_rows(node) or 0) for node in self.plan.walk())

    @property
    def peak_buffered_rows(self) -> int:
        """The engine's memory high-water mark in rows: the global peak
        of concurrently buffered operator state, counted as rows
        *represented* — a column chunk of 1,024 rows contributes 1,024
        whatever its Python object count."""
        return self.metrics.peak_buffered_rows

    def node_cardinalities(self) -> List[Tuple[str, float, Optional[int]]]:
        """(operator, estimated rows, actual rows) per node, preorder —
        the demo's step-3 inspection panel."""
        return [
            (repr(node), node.estimated_rows, self.metrics.actual_rows(node))
            for node in self.plan.walk()
        ]


def execute_plan(node: PlanNode, store: TripleStore, budget=None) -> List[Row]:
    """Run *node* on the columnar engine and return its distinct rows,
    setting every node's ``actual_rows`` from the run's metrics: kept for
    ``bench/layers.py``, which reads them, until ROADMAP item 8."""
    rows, metrics = run_columnar(node, store, budget=budget)
    for each in node.walk():
        each.actual_rows = metrics.actual_rows(each)
    return rows


class Executor:
    """Plans and runs queries for one store + backend pair.

    >>> # store = TripleStore.from_graph(graph)
    >>> # Executor(store).run(query).answer()
    """

    def __init__(
        self,
        store: TripleStore,
        backend: BackendProfile = HASH_BACKEND,
    ):
        self.store = store
        self.backend = backend
        self.planner = Planner(store, backend)

    def run(self, query: PlannableQuery | PlanNode, budget=None, binding=()) -> ExecutionResult:
        """Plan and execute *query*, or execute it as it is when it is a
        plan, its slots bound to *binding*: runs only read a plan.

        Raises :class:`~repro.storage.backends.QueryTooLargeError` when
        the query exceeds the backend's parse limit, and
        :class:`~repro.resilience.errors.BudgetExceeded` when a
        ``budget`` is given and the evaluation outgrows it — with the
        partial per-node cardinalities, the operator metrics and the
        partial answer attached to the raised error."""
        start = time.perf_counter()
        plan = query if isinstance(query, PlanNode) else self.planner.plan(query)
        metrics = PipelineMetrics()
        try:
            collected, _ = collect_columnar(
                plan, self.store, budget=budget, metrics=metrics, binding=binding
            )
        except Exception as exc:
            self._attach_partial(exc, plan, metrics)
            raise
        elapsed = time.perf_counter() - start
        return ExecutionResult(plan, collected, self.store, elapsed, metrics)

    def _attach_partial(self, exc, plan: PlanNode, metrics: PipelineMetrics) -> None:
        """Satellite of a budget abort: the error carries how far the
        plan got (completed-subtree cardinalities, operator metrics,
        decoded partial answer) instead of erasing the evidence."""
        if not hasattr(exc, "diagnostics"):
            return
        partial = getattr(exc, "partial", None) or {}
        partial.setdefault("engine", "columnar")
        partial["node_cardinalities"] = [
            (repr(node), node.estimated_rows, metrics.actual_rows(node))
            for node in plan.walk()
        ]
        exc.partial = partial
        partial_rows = getattr(exc, "partial_rows", None)
        if partial_rows is not None:
            exc.partial_answer = frozenset(
                self.store.decode_row(row) for row in partial_rows
            )
