"""The request/ticket vocabulary of the multi-tenant query service.

A :class:`QueryRequest` is what a tenant hands the front door: the
query, the strategy to answer it with, a priority within the tenant's
own queue, and an optional deadline.  Admission turns it into a
:class:`Ticket` — the service-side handle that tracks the request
through ``queued → running → done/failed`` (or ``expired``, when its
deadline passes while still queued) and carries the timing stamps the
metrics layer aggregates.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..core.answerer import AnswerReport, Strategy

#: Ticket lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EXPIRED = "expired"

#: Process-wide request identity (diagnostic only; ordering inside the
#: service uses the per-service admission sequence).
_request_counter = itertools.count(1)


class QueryRequest:
    """One tenant's query-answering request.

    ``priority`` orders requests *within* the tenant's queue (higher
    first; ties arrival-ordered) — cross-tenant ordering is the
    weighted fair scheduler's job, so one tenant's priorities can never
    starve another tenant.  ``deadline`` (seconds from arrival, on the
    service clock) sheds the request if it is still queued when the
    horizon passes.  ``snapshot`` pins evaluation to an
    epoch-stamped :class:`~repro.storage.snapshot.StoreSnapshot`
    obtained from :meth:`~repro.service.service.QueryService.pin`.
    """

    def __init__(
        self,
        tenant: str,
        query,
        strategy: Strategy = Strategy.REF_GCOV,
        priority: int = 0,
        deadline: Optional[float] = None,
        snapshot=None,
        cover=None,
    ):
        if deadline is not None and deadline <= 0:
            raise ValueError(
                "a deadline needs a positive horizon, got %r" % (deadline,)
            )
        if strategy is Strategy.REF_JUCQ:
            if cover is None:
                raise ValueError("REF_JUCQ requests need a cover")
            if cover.query != query:
                raise ValueError("a REF_JUCQ request's cover must cover its query")
        self.tenant = tenant
        self.query = query
        self.strategy = strategy
        self.priority = priority
        self.deadline = deadline
        self.snapshot = snapshot
        self.cover = cover
        self.request_id = next(_request_counter)

    def __repr__(self) -> str:
        return "QueryRequest(%s, %s, priority=%d%s)" % (
            self.tenant,
            self.strategy.value,
            self.priority,
            ", deadline=%.3fs" % self.deadline if self.deadline else "",
        )


class Ticket:
    """The admitted request's service-side handle.

    ``sequence`` is the per-service admission number — it breaks
    priority ties FIFO and names the request in budget attribution
    (:attr:`owner` is the ``tenant/req-N`` string stamped onto
    execution budgets).
    """

    def __init__(self, request: QueryRequest, sequence: int, arrived_at: float):
        self.request = request
        self.sequence = sequence
        self.arrived_at = arrived_at
        self.status = QUEUED
        self.report: Optional[AnswerReport] = None
        self.error: Optional[BaseException] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def owner(self) -> str:
        """The attribution label stamped onto this request's budgets."""
        return "%s/req-%d" % (self.request.tenant, self.sequence)

    @property
    def answer(self):
        return None if self.report is None else self.report.answer

    @property
    def cache(self) -> Optional[str]:
        """``"hit"`` / ``"miss"`` / ``"stale"`` when the tenant cache
        partition was consulted (``"stale"`` = an expired entry was
        served under stale-while-revalidate), None for uncacheable
        (snapshot-pinned) reads and for requests that did not complete:
        the report's ``details["cache"]["answer"]``."""
        if self.report is None or "cache" not in self.report.details:
            return None
        return self.report.details["cache"]["answer"]

    @property
    def degraded(self) -> bool:
        """Did the answer go out flagged as a truncated partial
        (brownout partial-answers mode)?"""
        return self.report is not None and bool(
            self.report.details.get("partial")
        )

    @property
    def stale(self) -> bool:
        """Was an expired cache entry served (stale-while-revalidate)?"""
        return self.report is not None and bool(self.report.details.get("stale"))

    def service_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def latency_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrived_at

    def __repr__(self) -> str:
        return "Ticket(%s, %s)" % (self.owner, self.status)
