"""Per-operator execution metrics for the streaming (columnar) engine.

The paper's whole argument is about *intermediate result sizes*
(Example 1: 33M rows for the open type atoms vs 2,296 after grouping).
Each plan node's ``actual_rows`` records what it emitted; the columnar
executor streams instead of materializing, so the other interesting
quantity is what each operator *buffers* — hash-join build tables, sort buffers, dedup sets — and the
global peak of all concurrent buffers, the engine's true memory high-
water mark.  :class:`PipelineMetrics` records both, per operator:

======================  ==============================================
``rows_in``             rows pulled from the operator's inputs
``rows_out``            rows the operator emitted downstream
``batches``             batches emitted (the engine's unit of work)
``peak_buffered_rows``  rows this operator held at once (its state)
``wall_seconds``        inclusive time producing this operator's output
======================  ==============================================

In-flight batches are not counted as buffered: they are bounded by
``batch_size`` × plan depth by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional, Union

from .ir import PlanNode


class OperatorMetrics:
    """One operator's accounting across a single streaming run.

    Its ``label`` is given as a string, or as the plan node whose
    ``repr`` it is: only ``explain``, the metric tables and a tripped
    budget read it, so a node's label is formatted on first read.
    """

    __slots__ = (
        "_label", "rows_in", "rows_out", "batches", "buffered_rows",
        "peak_buffered_rows", "wall_seconds",
    )

    def __init__(self, label: Union[str, PlanNode]):
        self._label = label
        self.rows_in = 0
        self.rows_out = 0
        self.batches = 0
        self.buffered_rows = 0
        self.peak_buffered_rows = 0
        self.wall_seconds = 0.0

    @property
    def label(self) -> str:
        if not isinstance(self._label, str):
            self._label = repr(self._label)
        return self._label

    def pull(self, chunks: Iterator):
        """The next item of *chunks*, or None once it is exhausted; the
        time the pull took is added to ``wall_seconds``."""
        started = perf_counter()
        try:
            return next(chunks, None)
        finally:
            self.wall_seconds += perf_counter() - started

    def as_dict(self) -> Dict:
        return {
            "operator": self.label,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "batches": self.batches,
            "peak_buffered_rows": self.peak_buffered_rows,
            "wall_seconds": self.wall_seconds,
        }

    def __repr__(self) -> str:
        return "OperatorMetrics(%s, out=%d, peak=%d)" % (
            self.label,
            self.rows_out,
            self.peak_buffered_rows,
        )


class PipelineMetrics:
    """The metrics of one streaming execution, preorder per operator.

    Also tracks the *global* buffered-row high-water mark across all
    concurrently live operator buffers (plus the collected result),
    the number the differential harness compares against the same
    run's largest operator output.

    Not thread-safe, and it needs no lock: one instance belongs to one
    single-threaded run (``run_columnar`` creates and drains it within
    one call), and federation endpoints each run their own pipeline.
    """

    def __init__(self):
        self._per_node: Dict[int, OperatorMetrics] = {}
        self._order: List[OperatorMetrics] = []
        self._buffered_total = 0
        self.peak_buffered_rows = 0
        self.started_at: Optional[float] = None
        self.elapsed_seconds = 0.0

    # ------------------------------------------------------------------

    def operator(self, node: PlanNode) -> OperatorMetrics:
        """The (lazily created) metrics entry for *node*."""
        key = id(node)
        entry = self._per_node.get(key)
        if entry is None:
            entry = OperatorMetrics(node)
            self._per_node[key] = entry
            self._order.append(entry)
        return entry

    def buffer(self, entry: OperatorMetrics, rows: int) -> None:
        """Record *rows* newly held in *entry*'s operator state."""
        entry.buffered_rows += rows
        if entry.buffered_rows > entry.peak_buffered_rows:
            entry.peak_buffered_rows = entry.buffered_rows
        self._buffered_total += rows
        if self._buffered_total > self.peak_buffered_rows:
            self.peak_buffered_rows = self._buffered_total

    def release(self, entry: OperatorMetrics) -> None:
        """An operator's state was dropped (stream closed/exhausted)."""
        self._buffered_total -= entry.buffered_rows
        entry.buffered_rows = 0

    # ------------------------------------------------------------------

    def per_operator(self) -> List[OperatorMetrics]:
        """Entries in the order operators first produced output."""
        return list(self._order)

    def total_rows_out(self) -> int:
        return sum(entry.rows_out for entry in self._order)

    def as_dict(self) -> Dict:
        return {
            "peak_buffered_rows": self.peak_buffered_rows,
            "elapsed_seconds": self.elapsed_seconds,
            "operators": [entry.as_dict() for entry in self._order],
        }

    def table_rows(self) -> List[List]:
        """Rows for the CLI's per-operator metric table."""
        return [
            [
                entry.label,
                entry.rows_in,
                entry.rows_out,
                entry.batches,
                entry.peak_buffered_rows,
                "%.2f" % (entry.wall_seconds * 1e3),
            ]
            for entry in self._order
        ]

    def __repr__(self) -> str:
        return "PipelineMetrics(%d operators, peak_buffered=%d)" % (
            len(self._order),
            self.peak_buffered_rows,
        )
