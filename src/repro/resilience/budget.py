"""Execution budgets: bounded-cost local evaluation.

The paper's Example 1 shows an SCQ evaluation drowning in intermediate
results (33M rows, 229 s).  An :class:`ExecutionBudget` turns that
failure mode from a hang into a structured
:class:`~repro.resilience.errors.BudgetExceeded` carrying partial
diagnostics: the executor and the reference evaluator charge every
materialized operator output against the budget (and probe it *inside*
join loops, so a single cross product cannot overshoot unboundedly).

A budget is single-use: it accumulates charges across one evaluation.
Callers that retry (e.g. the cover-fallback path of
:class:`~repro.core.answerer.QueryAnswerer`) construct a fresh budget
per attempt.

Several threads may charge one budget, so its counters are guarded by
a lock.  A charge that overruns the budget leaves it spent: the rows
charged and the elapsed time only grow, so every later charge raises
too (a probe's in-flight rows are not committed).
"""

from __future__ import annotations

import threading
from typing import Optional

from .clock import Clock, SYSTEM_CLOCK
from .errors import BudgetExceeded

#: How many rows a join loop may produce between budget probes.
CHECK_INTERVAL = 1024


class ExecutionBudget:
    """A row- and/or time-budget for one evaluation.

    >>> budget = ExecutionBudget(max_rows=10)
    >>> budget.charge_rows(8, operator="Scan")
    >>> try:
    ...     budget.charge_rows(8, operator="Join")
    ... except BudgetExceeded as exc:
    ...     (exc.kind, exc.rows_produced, exc.operator)
    ('rows', 16, 'Join')
    """

    def __init__(
        self,
        max_rows: Optional[int] = None,
        max_seconds: Optional[float] = None,
        clock: Optional[Clock] = None,
        owner: Optional[str] = None,
    ):
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be >= 1, got %r" % (max_rows,))
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError("max_seconds must be > 0, got %r" % (max_seconds,))
        self.max_rows = max_rows
        self.max_seconds = max_seconds
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: Who this budget is charged to (e.g. ``"tenant-a/req-3"``);
        #: every overrun carries it, so accounting layers attribute it
        #: to the request that overran.
        self.owner = owner
        self.rows_charged = 0
        self._started_at: Optional[float] = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Anchor the time budget; implicit on the first charge/check."""
        with self._lock:
            if self._started_at is None:
                self._started_at = self.clock.monotonic()

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self.clock.monotonic() - self._started_at

    # ------------------------------------------------------------------

    def charge_rows(self, count: int, operator=None) -> None:
        """Commit *count* materialized rows and enforce both limits.

        *operator* names the charging operator: a string, or an object
        whose ``label`` is read only if the charge trips the budget."""
        with self._lock:
            self.start()
            self.rows_charged += count
            if self.max_rows is not None and self.rows_charged > self.max_rows:
                operator = getattr(operator, "label", operator)
                raise self._exceeded(
                    "row budget exceeded at %s: %d rows produced (budget %d)"
                    % (operator or "?", self.rows_charged, self.max_rows),
                    "rows",
                    self.rows_charged,
                    self.elapsed(),
                    operator,
                )
            self._check_time_locked(operator)

    def probe_rows(self, in_flight: int, operator: Optional[str] = None) -> None:
        """An *uncommitted* check from inside an operator loop: raise if
        the rows committed so far plus *in_flight* already bust the
        budget.  Keeps one runaway join from materializing far past the
        limit before its node-level charge."""
        with self._lock:
            self.start()
            if (
                self.max_rows is not None
                and self.rows_charged + in_flight > self.max_rows
            ):
                raise self._exceeded(
                    "row budget exceeded inside %s: %d rows in flight over %d "
                    "already produced (budget %d)"
                    % (operator or "?", in_flight, self.rows_charged, self.max_rows),
                    "rows",
                    self.rows_charged + in_flight,
                    self.elapsed(),
                    operator,
                )
            self._check_time_locked(operator)

    def check_time(self, operator: Optional[str] = None) -> None:
        with self._lock:
            self.start()
            self._check_time_locked(operator)

    def _check_time_locked(self, operator) -> None:
        if self.max_seconds is None:
            return
        elapsed = self.elapsed()
        if elapsed > self.max_seconds:
            operator = getattr(operator, "label", operator)
            raise self._exceeded(
                "time budget exceeded at %s: %.3fs elapsed (budget %.3fs)"
                % (operator or "?", elapsed, self.max_seconds),
                "time",
                self.rows_charged,
                elapsed,
                operator,
            )

    def _exceeded(
        self, message: str, kind: str, rows: int, elapsed: float, operator
    ) -> BudgetExceeded:
        return BudgetExceeded(
            message,
            kind=kind,
            rows_produced=rows,
            row_budget=self.max_rows,
            elapsed_seconds=elapsed,
            time_budget=self.max_seconds,
            operator=operator,
            owner=self.owner,
        )

    def __repr__(self) -> str:
        return "ExecutionBudget(rows=%d/%s, time=%s)" % (
            self.rows_charged,
            self.max_rows if self.max_rows is not None else "∞",
            "%.3fs" % self.max_seconds if self.max_seconds is not None else "∞",
        )
