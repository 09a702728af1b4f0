"""Admission control: bounded queues, weighted fair dequeue, shedding.

The controller is the service's only gate.  Each tenant gets

* a **bounded queue** (``queue_depth``) — a full queue sheds the new
  request with a :class:`AdmissionRejected` carrying a retry-after
  hint instead of letting the backlog grow without bound;
* a **scheduling weight** — dequeue order follows stride scheduling
  (Waldspurger & Weihl, OSDI '94): each tenant carries a *pass* value
  advanced by ``SCALE / weight`` per dequeue, and the runnable tenant
  with the minimum pass goes next (ties broken by tenant name, so the
  whole schedule is deterministic).  Over any window, tenant throughput
  is proportional to weight, and no backlogged tenant starves;
* an optional **standing quota** (``quota_rows`` / ``quota_seconds``)
  charged as answers complete — an exhausted quota sheds *future*
  requests at the front door rather than cancelling admitted work.

Everything is driven by an injected clock, so tests replay identical
schedules with :class:`~repro.resilience.clock.FakeClock`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..resilience.budget import ExecutionBudget
from ..resilience.clock import Clock, SYSTEM_CLOCK
from ..resilience.errors import BudgetExceeded
from .request import EXPIRED, QueryRequest, Ticket

#: Stride numerator: pass += SCALE / weight per dequeue.
SCALE = 1 << 16

#: The service-time prior (seconds) used for retry-after hints before
#: any request has completed.
DEFAULT_SERVICE_SECONDS = 0.05

#: Rejection reason codes.
REASON_UNKNOWN_TENANT = "unknown-tenant"
REASON_QUEUE_FULL = "queue-full"
REASON_QUOTA_EXHAUSTED = "quota-exhausted"
#: Shed by the brownout ladder at shed-new-work (service-wide).
REASON_BROWNOUT = "brownout-shed"
#: Shed because the tenant's own circuit breaker is open.
REASON_TENANT_BREAKER = "breaker-open"


class TenantConfig:
    """One tenant's admission contract."""

    def __init__(
        self,
        name: str,
        weight: float = 1.0,
        queue_depth: int = 8,
        request_rows: Optional[int] = None,
        request_seconds: Optional[float] = None,
        quota_rows: Optional[int] = None,
        quota_seconds: Optional[float] = None,
    ):
        if not name:
            raise ValueError("tenant name must be non-empty")
        if weight <= 0:
            raise ValueError("weight must be > 0, got %r" % (weight,))
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1, got %r" % (queue_depth,))
        self.name = name
        self.weight = weight
        self.queue_depth = queue_depth
        #: Per-request evaluation budget (rows / seconds), stamped with
        #: the request's owner label for attribution.
        self.request_rows = request_rows
        self.request_seconds = request_seconds
        #: Standing quota across all of the tenant's completed answers.
        self.quota_rows = quota_rows
        self.quota_seconds = quota_seconds

    @classmethod
    def parse(cls, spec: str) -> "TenantConfig":
        """Parse a CLI ``name[:weight[:depth]]`` spec."""
        parts = spec.split(":")
        if len(parts) > 3 or not parts[0]:
            raise ValueError("expected name[:weight[:depth]], got %r" % (spec,))
        name = parts[0]
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        depth = int(parts[2]) if len(parts) > 2 and parts[2] else 8
        return cls(name, weight=weight, queue_depth=depth)

    def __repr__(self) -> str:
        return "TenantConfig(%s, weight=%g, depth=%d)" % (
            self.name,
            self.weight,
            self.queue_depth,
        )


class AdmissionRejected(RuntimeError):
    """A request shed at the front door (never silently dropped).

    ``reason`` is one of :data:`REASON_UNKNOWN_TENANT`,
    :data:`REASON_QUEUE_FULL`, :data:`REASON_QUOTA_EXHAUSTED`;
    ``retry_after`` (seconds) is the controller's backlog-derived hint
    for when capacity is expected to free up (None when retrying cannot
    help, e.g. an unknown tenant).
    """

    def __init__(
        self,
        message: str,
        tenant: str,
        reason: str,
        retry_after: Optional[float] = None,
        queued: int = 0,
        cooldown_remaining: Optional[float] = None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.retry_after = retry_after
        self.queued = queued
        #: For breaker sheds: how long the tenant's circuit stays open
        #: (distinct from ``retry_after``, which estimates queue drain).
        self.cooldown_remaining = cooldown_remaining

    def diagnostics(self) -> dict:
        payload = {
            "tenant": self.tenant,
            "reason": self.reason,
            "queued": self.queued,
        }
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        if self.cooldown_remaining is not None:
            payload["cooldown_remaining"] = self.cooldown_remaining
        return payload


class AdmissionController:
    """Bounded-queue, weighted-fair admission for one service.

    ``capacity`` is the executor-side width: :meth:`next_batch` hands
    out at most that many runnable tickets per scheduling round, and
    retry-after hints assume the backlog drains ``capacity`` requests
    per estimated service time.
    """

    def __init__(
        self,
        tenants: Sequence[TenantConfig],
        capacity: int = 2,
        clock: Optional[Clock] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % (capacity,))
        if not tenants:
            raise ValueError("at least one tenant is required")
        self.capacity = capacity
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.tenants: Dict[str, TenantConfig] = {}
        self._queues: Dict[str, List[Ticket]] = {}
        self._passes: Dict[str, float] = {}
        self._quotas: Dict[str, Optional[ExecutionBudget]] = {}
        #: Tenants whose quota a charge has overrun.
        self._exhausted: set = set()
        for config in tenants:
            if config.name in self.tenants:
                raise ValueError("duplicate tenant %r" % (config.name,))
            self.tenants[config.name] = config
            self._queues[config.name] = []
            self._passes[config.name] = 0.0
            if config.quota_rows is not None or config.quota_seconds is not None:
                self._quotas[config.name] = ExecutionBudget(
                    max_rows=config.quota_rows,
                    max_seconds=config.quota_seconds,
                    clock=self.clock,
                    owner=config.name,
                )
            else:
                self._quotas[config.name] = None
        self._virtual = 0.0
        self._sequence = itertools.count(1)
        self._service_ewma: Optional[float] = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Front door

    def submit(self, request: QueryRequest) -> Ticket:
        """Admit *request* or raise :class:`AdmissionRejected`."""
        with self._lock:
            config = self.tenants.get(request.tenant)
            if config is None:
                raise AdmissionRejected(
                    "unknown tenant %r" % (request.tenant,),
                    tenant=request.tenant,
                    reason=REASON_UNKNOWN_TENANT,
                )
            if request.tenant in self._exhausted:
                raise AdmissionRejected(
                    "tenant %r quota exhausted" % (request.tenant,),
                    tenant=request.tenant,
                    reason=REASON_QUOTA_EXHAUSTED,
                    queued=len(self._queues[request.tenant]),
                )
            queue = self._queues[request.tenant]
            if len(queue) >= config.queue_depth:
                raise AdmissionRejected(
                    "tenant %r queue full (%d queued, depth %d)"
                    % (request.tenant, len(queue), config.queue_depth),
                    tenant=request.tenant,
                    reason=REASON_QUEUE_FULL,
                    retry_after=self.retry_after(),
                    queued=len(queue),
                )
            if not queue:
                # A tenant re-entering the runnable set resumes at the
                # current virtual time: idleness banks no credit.
                self._passes[request.tenant] = max(
                    self._passes[request.tenant], self._virtual
                )
            ticket = Ticket(request, next(self._sequence), self.clock.monotonic())
            queue.append(ticket)
            return ticket

    # ------------------------------------------------------------------
    # Scheduler side

    def next_batch(self, limit: Optional[int] = None) -> Tuple[List[Ticket], List[Ticket]]:
        """Dequeue up to ``limit`` (default: capacity) runnable tickets
        in weighted-fair order; deadline-lapsed tickets are marked
        :data:`~repro.service.request.EXPIRED` and returned separately
        (they consume no executor slot and charge no pass)."""
        if limit is None:
            limit = self.capacity
        runnable: List[Ticket] = []
        expired: List[Ticket] = []
        with self._lock:
            now = self.clock.monotonic()
            while len(runnable) < limit:
                tenant = self._min_pass_tenant()
                if tenant is None:
                    break
                ticket = self._pop_best(tenant)
                if (
                    ticket.request.deadline is not None
                    and now - ticket.arrived_at > ticket.request.deadline
                ):
                    ticket.status = EXPIRED
                    ticket.finished_at = now
                    expired.append(ticket)
                    continue
                self._virtual = self._passes[tenant]
                self._passes[tenant] += SCALE / self.tenants[tenant].weight
                runnable.append(ticket)
        return runnable, expired

    def _min_pass_tenant(self) -> Optional[str]:
        best = None
        for name, queue in self._queues.items():
            if not queue:
                continue
            key = (self._passes[name], name)
            if best is None or key < best[0]:
                best = (key, name)
        return None if best is None else best[1]

    def _pop_best(self, tenant: str) -> Ticket:
        queue = self._queues[tenant]
        index = min(
            range(len(queue)),
            key=lambda i: (-queue[i].request.priority, queue[i].sequence),
        )
        return queue.pop(index)

    # ------------------------------------------------------------------
    # Accounting feedback

    def note_service_time(self, seconds: float) -> None:
        """Fold one completed request's service time into the EWMA the
        retry-after hint is derived from."""
        with self._lock:
            if self._service_ewma is None:
                self._service_ewma = seconds
            else:
                self._service_ewma = 0.7 * self._service_ewma + 0.3 * seconds

    def charge_quota(self, tenant: str, rows: int) -> None:
        """Charge *rows* answer rows against the tenant's standing
        quota.  Raises :class:`~repro.resilience.errors.BudgetExceeded`
        when the quota trips — the *current* answer stands, but every
        later :meth:`submit` sheds with
        :data:`REASON_QUOTA_EXHAUSTED`."""
        with self._lock:
            quota = self._quotas.get(tenant)
        if quota is None:
            return
        try:
            quota.charge_rows(max(1, rows), operator="service-quota")
        except BudgetExceeded:
            with self._lock:
                self._exhausted.add(tenant)
            raise

    def quota_exhausted(self, tenant: str) -> bool:
        return tenant in self._exhausted

    def backlog(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                return len(self._queues.get(tenant, ()))
            return sum(len(queue) for queue in self._queues.values())

    def retry_after(self) -> float:
        """Expected seconds until a queue slot frees: backlog rounds at
        ``capacity`` per round, each round costing the observed (or
        prior) per-request service time."""
        estimate = (
            self._service_ewma
            if self._service_ewma is not None
            else DEFAULT_SERVICE_SECONDS
        )
        rounds = (self.backlog() // self.capacity) + 1
        return rounds * estimate

    def __repr__(self) -> str:
        return "AdmissionController(tenants=%d, backlog=%d, capacity=%d)" % (
            len(self.tenants),
            self.backlog(),
            self.capacity,
        )


__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "DEFAULT_SERVICE_SECONDS",
    "REASON_BROWNOUT",
    "REASON_QUEUE_FULL",
    "REASON_QUOTA_EXHAUSTED",
    "REASON_TENANT_BREAKER",
    "REASON_UNKNOWN_TENANT",
    "SCALE",
    "TenantConfig",
]
