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

**Thread safety.**  Several threads may charge one budget — the
counters are therefore guarded by a lock, and the budget remembers
the first overrun as its *trip*: once any worker raises
:class:`~repro.resilience.errors.BudgetExceeded`, every sibling
worker's next charge/probe/check raises immediately (a copy marked
``sibling_abort=True``), which is what cancels in-flight sibling tasks
mid-stream.  The shared total is exactly the serial semantics: N
workers charging one budget can never jointly exceed what one thread
could.
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
    >>> budget.tripped
    True
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
        #: Who this budget is charged to (e.g. ``"tenant-a/req-3"``).
        #: Every overrun — the primary *and* its sibling-abort copies —
        #: carries it, so fan-out aborts are attributed to the request
        #: that genuinely overran, never to an innocent sibling.
        self.owner = owner
        self.rows_charged = 0
        self._started_at: Optional[float] = None
        self._lock = threading.RLock()
        self._trip: Optional[BudgetExceeded] = None

    # ------------------------------------------------------------------

    @property
    def tripped(self) -> bool:
        """True once any charge has raised: the budget is spent, and
        every subsequent charge (from any thread) raises immediately."""
        return self._trip is not None

    def _sibling_abort(self) -> BudgetExceeded:
        """A fresh copy of the original overrun for a sibling worker —
        marked so fan-out error selection can prefer the primary."""
        trip = self._trip
        exc = BudgetExceeded(
            "aborted: %s" % (trip,),
            kind=trip.kind,
            rows_produced=trip.rows_produced,
            row_budget=trip.row_budget,
            elapsed_seconds=trip.elapsed_seconds,
            time_budget=trip.time_budget,
            operator=trip.operator,
            owner=trip.owner,
        )
        exc.sibling_abort = True
        return exc

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
            if self._trip is not None:
                raise self._sibling_abort()
            self.start()
            self.rows_charged += count
            if self.max_rows is not None and self.rows_charged > self.max_rows:
                operator = getattr(operator, "label", operator)
                exc = BudgetExceeded(
                    "row budget exceeded at %s: %d rows produced (budget %d)"
                    % (operator or "?", self.rows_charged, self.max_rows),
                    kind="rows",
                    rows_produced=self.rows_charged,
                    row_budget=self.max_rows,
                    elapsed_seconds=self.elapsed(),
                    time_budget=self.max_seconds,
                    operator=operator,
                    owner=self.owner,
                )
                self._trip = exc
                raise exc
            self._check_time_locked(operator)

    def probe_rows(self, in_flight: int, operator: Optional[str] = None) -> None:
        """An *uncommitted* check from inside an operator loop: raise if
        the rows committed so far plus *in_flight* already bust the
        budget.  Keeps one runaway join from materializing far past the
        limit before its node-level charge."""
        with self._lock:
            if self._trip is not None:
                raise self._sibling_abort()
            self.start()
            if (
                self.max_rows is not None
                and self.rows_charged + in_flight > self.max_rows
            ):
                exc = BudgetExceeded(
                    "row budget exceeded inside %s: %d rows in flight over %d "
                    "already produced (budget %d)"
                    % (
                        operator or "?",
                        in_flight,
                        self.rows_charged,
                        self.max_rows,
                    ),
                    kind="rows",
                    rows_produced=self.rows_charged + in_flight,
                    row_budget=self.max_rows,
                    elapsed_seconds=self.elapsed(),
                    time_budget=self.max_seconds,
                    operator=operator,
                    owner=self.owner,
                )
                self._trip = exc
                raise exc
            self._check_time_locked(operator)

    def check_time(self, operator: Optional[str] = None) -> None:
        with self._lock:
            if self._trip is not None:
                raise self._sibling_abort()
            self.start()
            self._check_time_locked(operator)

    def _check_time_locked(self, operator) -> None:
        if self.max_seconds is None:
            return
        elapsed = self.elapsed()
        if elapsed > self.max_seconds:
            operator = getattr(operator, "label", operator)
            exc = BudgetExceeded(
                "time budget exceeded at %s: %.3fs elapsed (budget %.3fs)"
                % (operator or "?", elapsed, self.max_seconds),
                kind="time",
                rows_produced=self.rows_charged,
                row_budget=self.max_rows,
                elapsed_seconds=elapsed,
                time_budget=self.max_seconds,
                operator=operator,
                owner=self.owner,
            )
            self._trip = exc
            raise exc

    def __repr__(self) -> str:
        return "ExecutionBudget(rows=%d/%s, time=%s%s)" % (
            self.rows_charged,
            self.max_rows if self.max_rows is not None else "∞",
            "%.3fs" % self.max_seconds if self.max_seconds is not None else "∞",
            ", TRIPPED" if self._trip is not None else "",
        )
