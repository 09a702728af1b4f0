"""Plan execution (the materialized engine, plus the engine switch).

Interprets the plan trees of :mod:`repro.engine.ir` against a
:class:`~repro.storage.store.TripleStore`, materializing each operator
(the paper's Example 1 discussion is about *intermediate result sizes*
— 33 million rows for the open type atoms vs 2,296 after grouping — so
the executor records the actual cardinality of every node, letting
experiments compare the estimates with reality).

:class:`Executor` is the façade over the physical engines: the
materialized interpreter below and the vectorized columnar executor of
:mod:`repro.columnar.engine` (``engine="columnar"``), which runs the
same plans over sorted integer-run indexes exchanging column batches,
in bounded memory with per-operator metrics.  Either way the result is
an :class:`ExecutionResult` with the same API.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..engine.metrics import PipelineMetrics
from ..rdf.terms import Term
from .backends import BackendProfile, HASH_BACKEND
from .plan import (
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from .planner import PlannableQuery, Planner
from .store import TripleStore

Row = Tuple[int, ...]

#: The physical engines :class:`Executor` can run a plan on.
ENGINES = ("materialized", "columnar")


class ExecutionResult:
    """The outcome of running one plan: decoded answer plus metrics."""

    def __init__(
        self,
        plan: PlanNode,
        rows: List[Row],
        store: TripleStore,
        elapsed_seconds: float,
        metrics: Optional[PipelineMetrics] = None,
        engine: str = "materialized",
    ):
        self.plan = plan
        self._rows = rows
        self._store = store
        self.elapsed_seconds = elapsed_seconds
        #: Per-operator metrics (columnar runs only).
        self.metrics = metrics
        self.engine = engine
        self._answer: Optional[FrozenSet[Tuple[Term, ...]]] = None

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def answer(self) -> FrozenSet[Tuple[Term, ...]]:
        """The decoded answer relation (set semantics), memoized —
        diagnostics-heavy callers read it repeatedly and must not pay
        decoding and re-freezing each time."""
        if self._answer is None:
            self._answer = frozenset(
                self._store.decode_row(row) for row in self._rows
            )
        return self._answer

    def max_intermediate_rows(self) -> int:
        """The largest operator output in the plan — the quantity that
        makes SCQ evaluation slow in Example 1."""
        return max(
            (node.actual_rows or 0) for node in self.plan.walk()
        )

    @property
    def peak_buffered_rows(self) -> int:
        """The engine's memory high-water mark in rows.

        For a columnar run, the global peak of concurrently buffered
        operator state (from the metrics) — counted as rows
        *represented*, so a column chunk of 1,024 rows contributes
        1,024 whatever its Python object count, keeping memory
        comparisons meaningful across the engines (E21).  For a
        materialized run the best available proxy is the largest
        operator output, which the interpreter held in full by
        construction.
        """
        if self.metrics is not None:
            return self.metrics.peak_buffered_rows
        return self.max_intermediate_rows()

    def node_cardinalities(self) -> List[Tuple[str, float, Optional[int]]]:
        """(operator, estimated rows, actual rows) per node, preorder —
        the demo's step-3 inspection panel."""
        return [
            (repr(node), node.estimated_rows, node.actual_rows)
            for node in self.plan.walk()
        ]


def iter_scan_rows(node: ScanNode, store) -> Iterator[Row]:
    """Lazily yield the rows of one triple-table scan.

    The materialized interpreter drains it into a list (the columnar
    engine reads its own sorted-run indexes instead).
    """
    subject_id, property_id, object_id = node.bound_positions()
    range_info = node.range_spec()
    if (
        range_info is not None
        and range_info[0] == 2
        and property_id is not None
        and subject_id is None
    ):
        # Fast path for the interval-atom shape (?x, p, [lo..hi)):
        # one ordered POS sweep over the object range.
        lo, hi = range_info[1]
        matches: Iterable[Tuple[int, int, int]] = (
            (subject, property_id, object_)
            for subject, object_ in store.scan_property_object_range(
                property_id, lo, hi
            )
        )
        range_info = None
    elif range_info is not None and range_info[0] == 1:
        # Subproperty interval (s?, [lo..hi), o?): probe the window's
        # property ids instead of filtering a full-table scan.
        lo, hi = range_info[1]
        matches = store.scan_property_range(lo, hi, subject_id, object_id)
        range_info = None
    elif property_id is None:
        matches: Iterable[Tuple[int, int, int]] = (
            triple
            for triple in store.scan_all()
            if (subject_id is None or triple[0] == subject_id)
            and (object_id is None or triple[2] == object_id)
        )
    elif subject_id is not None and object_id is not None:
        encoded = (subject_id, property_id, object_id)
        matches = iter([encoded] if store.contains(encoded) else [])
    elif subject_id is not None:
        matches = (
            (subject_id, property_id, value)
            for value in store.scan_property_subject(property_id, subject_id)
        )
    elif object_id is not None:
        matches = (
            (value, property_id, object_id)
            for value in store.scan_property_object(property_id, object_id)
        )
    else:
        matches = (
            (subject, property_id, object_)
            for subject, object_ in store.scan_property(property_id)
        )

    if range_info is not None:
        # Generic fallback: the range position was treated as unbound
        # above; filter the id interval here.
        position, (lo, hi) = range_info
        matches = (
            triple for triple in matches if lo <= triple[position] < hi
        )

    for triple in matches:
        binding = {}
        consistent = True
        for (kind, value), term_id in zip(node.positions, triple):
            if kind != "var":
                continue
            bound = binding.get(value)
            if bound is None:
                binding[value] = term_id
            elif bound != term_id:
                consistent = False
                break
        if consistent:
            yield tuple(binding[label] for label in node.columns)


def _execute_scan(node: ScanNode, store: TripleStore) -> List[Row]:
    return list(iter_scan_rows(node, store))


def _join_rows(
    node: JoinNode,
    left_rows: List[Row],
    right_rows: List[Row],
    budget=None,
) -> List[Row]:
    left_positions = node.left.variable_positions()
    right_positions = node.right.variable_positions()
    left_key = [left_positions[v] for v in node.join_variables]
    right_key = [right_positions[v] for v in node.join_variables]
    keep = node.keep_right_indexes

    # In-loop budget probe: joins are where intermediate results blow
    # up (Example 1's 33M rows), so the guard must fire *inside* the
    # output loop, not after materialisation.  Probing every row would
    # dominate the join; every CHECK_INTERVAL rows is free in practice.
    if budget is None:
        def probe(count: int) -> None:
            pass
    else:
        from ..resilience.budget import CHECK_INTERVAL

        def probe(count: int) -> None:
            if count % CHECK_INTERVAL == 0:
                budget.probe_rows(count, operator="join (%s)" % node.algorithm)
                budget.check_time(operator="join (%s)" % node.algorithm)

    if node.algorithm == "nested_loop":
        output: List[Row] = []
        for left in left_rows:
            lkey = tuple(left[i] for i in left_key)
            for right in right_rows:
                if tuple(right[i] for i in right_key) == lkey:
                    output.append(left + tuple(right[i] for i in keep))
                    probe(len(output))
        return output

    if node.algorithm == "merge":
        left_sorted = sorted(left_rows, key=lambda r: tuple(r[i] for i in left_key))
        right_sorted = sorted(
            right_rows, key=lambda r: tuple(r[i] for i in right_key)
        )
        output = []
        li = ri = 0
        while li < len(left_sorted) and ri < len(right_sorted):
            lkey = tuple(left_sorted[li][i] for i in left_key)
            rkey = tuple(right_sorted[ri][i] for i in right_key)
            if lkey < rkey:
                li += 1
            elif lkey > rkey:
                ri += 1
            else:
                lend = li
                while lend < len(left_sorted) and tuple(
                    left_sorted[lend][i] for i in left_key
                ) == lkey:
                    lend += 1
                rend = ri
                while rend < len(right_sorted) and tuple(
                    right_sorted[rend][i] for i in right_key
                ) == rkey:
                    rend += 1
                for left in left_sorted[li:lend]:
                    for right in right_sorted[ri:rend]:
                        output.append(left + tuple(right[i] for i in keep))
                        probe(len(output))
                li, ri = lend, rend
        return output

    # Hash join: build on the smaller input, preserving output layout
    # (left columns then kept right columns) regardless of build side.
    table: Dict[Tuple[int, ...], List[Row]] = {}
    if len(left_rows) <= len(right_rows):
        for left in left_rows:
            table.setdefault(tuple(left[i] for i in left_key), []).append(left)
        output = []
        for right in right_rows:
            key = tuple(right[i] for i in right_key)
            kept = tuple(right[i] for i in keep)
            for left in table.get(key, ()):
                output.append(left + kept)
                probe(len(output))
        return output
    for right in right_rows:
        table.setdefault(tuple(right[i] for i in right_key), []).append(right)
    output = []
    for left in left_rows:
        key = tuple(left[i] for i in left_key)
        for right in table.get(key, ()):
            output.append(left + tuple(right[i] for i in keep))
            probe(len(output))
    return output


def execute_plan(
    node: PlanNode,
    store: TripleStore,
    budget=None,
) -> List[Row]:
    """Recursively execute *node*, recording actual cardinalities.

    ``budget`` (an :class:`~repro.resilience.budget.ExecutionBudget`)
    charges every operator's output against a cumulative row cap —
    exactly the "intermediate result size" quantity of the paper's
    Example 1 — and raises
    :class:`~repro.resilience.errors.BudgetExceeded` instead of
    materialising past it.  Joins additionally probe mid-loop (see
    :func:`_join_rows`), so even one runaway operator cannot overshoot
    the cap by more than ``CHECK_INTERVAL`` rows.
    """
    if isinstance(node, EmptyNode):
        rows: List[Row] = []
    elif isinstance(node, ScanNode):
        rows = _execute_scan(node, store)
    elif isinstance(node, JoinNode):
        rows = _join_rows(
            node,
            execute_plan(node.left, store, budget),
            execute_plan(node.right, store, budget),
            budget=budget,
        )
    elif isinstance(node, ProjectNode):
        child_rows = execute_plan(node.child, store, budget)
        positions = node.child.variable_positions()
        plan_specs = [
            ("col", positions[value]) if kind == "var" else ("const", value)
            for kind, value in node.specs
        ]
        rows = [
            tuple(
                row[value] if kind == "col" else value
                for kind, value in plan_specs
            )
            for row in child_rows
        ]
    elif isinstance(node, NonLiteralFilterNode):
        child_rows = execute_plan(node.child, store, budget)
        positions = node.child.variable_positions()
        guarded = [positions[variable] for variable in node.variables]
        is_literal = store.dictionary.is_literal_id
        rows = [
            row
            for row in child_rows
            if not any(is_literal(row[index]) for index in guarded)
        ]
    elif isinstance(node, UnionNode):
        merged = set()
        for child in node.children():
            merged.update(execute_plan(child, store, budget))
        rows = list(merged)
    elif isinstance(node, DistinctNode):
        rows = list(set(execute_plan(node.child, store, budget)))
    else:
        raise TypeError("cannot execute %r" % (node,))
    node.actual_rows = len(rows)
    if budget is not None:
        budget.charge_rows(len(rows), operator=type(node).__name__)
        budget.check_time(operator=type(node).__name__)
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
        engine: str = "materialized",
    ):
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine %r (choose from %s)" % (engine, ENGINES)
            )
        self.store = store
        self.backend = backend
        self.engine = engine
        self.planner = Planner(store, backend)

    def run(
        self,
        query: PlannableQuery,
        budget=None,
        engine: Optional[str] = None,
    ) -> ExecutionResult:
        """Plan and execute *query* on the chosen physical engine.

        Raises :class:`~repro.storage.backends.QueryTooLargeError` when
        the query exceeds the backend's parse limit, and
        :class:`~repro.resilience.errors.BudgetExceeded` when a
        ``budget`` is given and the evaluation outgrows it — with the
        partial per-node cardinalities (and, on the columnar engine,
        the operator metrics and partial answer) attached to the
        raised error."""
        engine = engine or self.engine
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine %r (choose from %s)" % (engine, ENGINES)
            )
        start = time.perf_counter()
        plan = self.planner.plan(query)
        try:
            if engine == "columnar":
                from ..columnar.engine import run_columnar

                rows, metrics = run_columnar(plan, self.store, budget=budget)
            else:
                metrics = None
                if budget is not None:
                    budget.start()
                rows = execute_plan(plan, self.store, budget)
        except Exception as exc:
            self._attach_partial(exc, plan, engine)
            raise
        elapsed = time.perf_counter() - start
        return ExecutionResult(
            plan, rows, self.store, elapsed, metrics=metrics, engine=engine
        )

    def _attach_partial(self, exc, plan: PlanNode, engine: str) -> None:
        """Satellite of a budget abort: the error carries how far the
        plan got (completed-subtree cardinalities, operator metrics,
        decoded partial answer) instead of erasing the evidence."""
        if not hasattr(exc, "diagnostics"):
            return
        partial = getattr(exc, "partial", None) or {}
        partial.setdefault("engine", engine)
        partial["node_cardinalities"] = [
            (repr(node), node.estimated_rows, node.actual_rows)
            for node in plan.walk()
        ]
        exc.partial = partial
        partial_rows = getattr(exc, "partial_rows", None)
        if partial_rows is not None:
            exc.partial_answer = frozenset(
                self.store.decode_row(row) for row in partial_rows
            )

    def estimated_cost(self, query: PlannableQuery) -> float:
        """The cost model's price for *query*, without executing it."""
        return self.planner.plan(query).total_estimated_cost()
