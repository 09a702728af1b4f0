"""The failure vocabulary of the resilience layer.

Every fault the federation can survive is a typed exception defined
here, so policy code (retry, breakers, degradation) dispatches on
types rather than string-matching messages.  The module is dependency-
free on purpose: it is imported by the storage executor, the reference
evaluator, the federation client and the chaos harness without
creating cycles.
"""

from __future__ import annotations

from typing import Optional


class EndpointFailure(RuntimeError):
    """Base class for request-level endpoint failures.

    ``endpoint_name`` identifies the source that failed (when known) so
    completeness reports can attribute the degradation.
    """

    def __init__(self, message: str, endpoint_name: Optional[str] = None):
        super().__init__(message)
        self.endpoint_name = endpoint_name


class TransientEndpointError(EndpointFailure):
    """A failure worth retrying: the request may succeed if re-sent
    (connection reset, 5xx, momentary overload)."""


class EndpointOutage(EndpointFailure):
    """A permanent failure: the endpoint is gone for the rest of the
    run.  Retrying is pointless; the breaker should open instead."""


class DeadlineExceeded(RuntimeError):
    """A per-request deadline elapsed before a usable response arrived.

    Raised by the federation client around endpoint calls — either
    before an attempt (no time left to try) or after one (the response
    came back too late to be waited for honestly).
    """

    def __init__(self, message: str, elapsed_seconds: Optional[float] = None):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


class SimulatedCrash(RuntimeError):
    """The injected process death of the durability chaos harness.

    Raised by :class:`~repro.resilience.faults.CrashingFileSystem` when
    its write budget runs out (mid-write — the torn-record case) or
    around a checkpoint rename.  ``bytes_written`` records how many
    bytes actually reached the wrapped filesystem, so tests can map the
    crash back to the operation prefix that must survive recovery.
    """

    def __init__(self, message: str, bytes_written: Optional[int] = None):
        super().__init__(message)
        self.bytes_written = bytes_written


class CircuitOpen(RuntimeError):
    """A request was refused locally because the endpoint's circuit
    breaker is open — the endpoint has failed enough times recently
    that sending more requests would only burn the request budget."""


class BudgetExceeded(RuntimeError):
    """A local evaluation outgrew its row or time budget.

    Carries partial diagnostics: what tripped (``"rows"`` or
    ``"time"``), how much had been produced, where in the plan, and the
    elapsed time — so callers can report *how far* evaluation got
    instead of presenting a bare failure.
    """

    def __init__(
        self,
        message: str,
        kind: str,
        rows_produced: int = 0,
        row_budget: Optional[int] = None,
        elapsed_seconds: Optional[float] = None,
        time_budget: Optional[float] = None,
        operator: Optional[str] = None,
        owner: Optional[str] = None,
    ):
        super().__init__(message)
        #: ``"rows"`` or ``"time"`` — which limit tripped.
        self.kind = kind
        self.rows_produced = rows_produced
        self.row_budget = row_budget
        self.elapsed_seconds = elapsed_seconds
        self.time_budget = time_budget
        #: The operator being evaluated when the budget tripped.
        self.operator = operator
        #: Who the tripped budget belonged to (e.g. the service layer's
        #: ``tenant/request-id``), so accounting layers attribute the
        #: overrun to the request that overran.
        self.owner = owner
        #: Partial-execution snapshot attached by the executor: the
        #: per-node cardinalities of completed subtrees and, for
        #: columnar runs, the operator metrics — a budget abort
        #: reports how far evaluation got, it does not erase it.
        self.partial: Optional[dict] = None
        #: Answer rows produced before the abort (columnar runs only;
        #: every collected row is a genuine answer row, the set is just
        #: incomplete).  Encoded in whatever the execution context's
        #: row currency is.
        self.partial_rows: Optional[list] = None
        #: ``partial_rows`` decoded to terms, when the executor had the
        #: dictionary at hand.
        self.partial_answer = None

    def diagnostics(self) -> dict:
        """The structured payload, for reports and CLI rendering."""
        payload = {
            "kind": self.kind,
            "rows_produced": self.rows_produced,
            "row_budget": self.row_budget,
            "elapsed_seconds": self.elapsed_seconds,
            "time_budget": self.time_budget,
            "operator": self.operator,
        }
        if self.owner is not None:
            payload["owner"] = self.owner
        if self.partial is not None:
            payload["partial"] = self.partial
        if self.partial_rows is not None:
            payload["partial_row_count"] = len(self.partial_rows)
        return payload

    @property
    def details(self) -> dict:
        """Alias of :meth:`diagnostics` — the name accounting layers
        (e.g. the query service's shed/abort attribution) read."""
        return self.diagnostics()
