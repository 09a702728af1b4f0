"""Service observability: per-tenant counters and latency percentiles.

The same nearest-rank percentile convention as the repository
benchmark (``bench/metrics.py``): ``p50`` of N sorted samples is
element ``ceil(0.50 * N) - 1``.  All counters are plain integers
updated under one lock; :meth:`ServiceMetrics.as_dict` is the
JSON-ready view ``repro serve --json`` emits.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (fraction in (0, 1])."""
    if not values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1], got %r" % (fraction,))
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class TenantMetrics:
    """One tenant's counters (mutated only via :class:`ServiceMetrics`)."""

    def __init__(self, name: str):
        self.name = name
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.expired = 0
        self.shed: Dict[str, int] = {}
        self.rows_returned = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Budget aborts attributed *to this tenant as originator*, via
        #: the owner stamped on ``BudgetExceeded.owner``.
        self.budget_trips = 0
        #: Budget aborts split by ``BudgetExceeded.kind`` ("rows" /
        #: "time"), from the exception's own ``details`` attribution.
        self.aborted: Dict[str, int] = {}
        #: The request labels (``tenant/req-N``) whose budgets tripped,
        #: so overruns are queryable per request, not just per tenant.
        self.aborted_requests: List[str] = []
        #: Failures split by exception class name.
        self.failures_by_reason: Dict[str, int] = {}
        #: Degraded-mode serving counters.
        self.degraded = 0
        self.stale_serves = 0
        self.refreshes = 0
        self.refresh_failures = 0
        self.latencies: List[float] = []

    def shed_total(self) -> int:
        return sum(self.shed.values())

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": self.shed_total(),
            "rows_returned": self.rows_returned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "budget_trips": self.budget_trips,
            "aborted": dict(sorted(self.aborted.items())),
            "aborted_requests": list(self.aborted_requests),
            "failures_by_reason": dict(sorted(self.failures_by_reason.items())),
            "degraded": self.degraded,
            "stale_serves": self.stale_serves,
            "refreshes": self.refreshes,
            "refresh_failures": self.refresh_failures,
            "latency": {
                "p50": percentile(self.latencies, 0.50),
                "p95": percentile(self.latencies, 0.95),
                "p99": percentile(self.latencies, 0.99),
            },
        }


class ServiceMetrics:
    """Aggregated counters for one :class:`~repro.service.QueryService`.

    Conservation invariant (checked by the property-based admission
    test): ``submitted == admitted + shed_total`` for every tenant, and
    ``admitted == completed + failed + expired + still-queued``.
    """

    def __init__(self, tenants: Sequence[str] = ()):  # pre-seed buckets
        self._lock = threading.RLock()
        self.tenants: Dict[str, TenantMetrics] = {
            name: TenantMetrics(name) for name in tenants
        }

    def _bucket(self, tenant: str) -> TenantMetrics:
        bucket = self.tenants.get(tenant)
        if bucket is None:
            bucket = self.tenants[tenant] = TenantMetrics(tenant)
        return bucket

    # ------------------------------------------------------------------

    def note_submitted(self, tenant: str) -> None:
        with self._lock:
            self._bucket(tenant).submitted += 1

    def note_admitted(self, tenant: str) -> None:
        with self._lock:
            self._bucket(tenant).admitted += 1

    def note_shed(self, tenant: str, reason: str) -> None:
        with self._lock:
            bucket = self._bucket(tenant)
            bucket.shed[reason] = bucket.shed.get(reason, 0) + 1

    def note_expired(self, tenant: str) -> None:
        with self._lock:
            self._bucket(tenant).expired += 1

    def note_completed(
        self,
        tenant: str,
        latency_seconds: float,
        rows: int,
        cache: Optional[str] = None,
        degraded: bool = False,
    ) -> None:
        with self._lock:
            bucket = self._bucket(tenant)
            bucket.completed += 1
            bucket.rows_returned += rows
            bucket.latencies.append(latency_seconds)
            if cache == "hit":
                bucket.cache_hits += 1
            elif cache == "miss":
                bucket.cache_misses += 1
            elif cache == "stale":
                bucket.stale_serves += 1
            if degraded:
                bucket.degraded += 1

    def note_failed(self, tenant: str, reason: Optional[str] = None) -> None:
        with self._lock:
            bucket = self._bucket(tenant)
            bucket.failed += 1
            if reason:
                bucket.failures_by_reason[reason] = (
                    bucket.failures_by_reason.get(reason, 0) + 1
                )

    def note_budget_trip(
        self,
        owner_tenant: str,
        owner: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> None:
        """Attribute one budget overrun to the tenant that owns the
        budget — callers pass the tenant parsed from
        ``BudgetExceeded.owner``.  ``owner``/``kind`` (from
        ``BudgetExceeded.details``) keep the per-request and
        rows-vs-time breakdown queryable."""
        with self._lock:
            bucket = self._bucket(owner_tenant)
            bucket.budget_trips += 1
            if kind:
                bucket.aborted[kind] = bucket.aborted.get(kind, 0) + 1
            if owner:
                bucket.aborted_requests.append(owner)

    def note_refresh(self, tenant: str, ok: bool) -> None:
        """A single-flight stale refresh finished for *tenant*."""
        with self._lock:
            bucket = self._bucket(tenant)
            bucket.refreshes += 1
            if not ok:
                bucket.refresh_failures += 1

    # ------------------------------------------------------------------
    # Aggregate views

    def totals(self) -> dict:
        with self._lock:
            buckets = list(self.tenants.values())
        return {
            "submitted": sum(b.submitted for b in buckets),
            "admitted": sum(b.admitted for b in buckets),
            "completed": sum(b.completed for b in buckets),
            "failed": sum(b.failed for b in buckets),
            "expired": sum(b.expired for b in buckets),
            "shed": sum(b.shed_total() for b in buckets),
            "rows_returned": sum(b.rows_returned for b in buckets),
            "cache_hits": sum(b.cache_hits for b in buckets),
            "cache_misses": sum(b.cache_misses for b in buckets),
            "budget_trips": sum(b.budget_trips for b in buckets),
            "degraded": sum(b.degraded for b in buckets),
            "stale_serves": sum(b.stale_serves for b in buckets),
            "refreshes": sum(b.refreshes for b in buckets),
            "refresh_failures": sum(b.refresh_failures for b in buckets),
        }

    def shed_rate(self) -> float:
        totals = self.totals()
        if totals["submitted"] == 0:
            return 0.0
        return totals["shed"] / totals["submitted"]

    def latency_percentiles(self, tenant: Optional[str] = None) -> dict:
        with self._lock:
            if tenant is not None:
                samples = list(self._bucket(tenant).latencies)
            else:
                samples = [
                    value
                    for bucket in self.tenants.values()
                    for value in bucket.latencies
                ]
        return {
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "p99": percentile(samples, 0.99),
        }

    def as_dict(self) -> dict:
        with self._lock:
            per_tenant = {
                name: bucket.as_dict()
                for name, bucket in sorted(self.tenants.items())
            }
        payload = self.totals()
        payload["shed_rate"] = self.shed_rate()
        payload["latency"] = self.latency_percentiles()
        payload["tenants"] = per_tenant
        return payload


__all__ = ["ServiceMetrics", "TenantMetrics", "percentile"]
