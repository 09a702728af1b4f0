"""Multi-tenant query serving: admission control, fair scheduling,
per-tenant cache partitions, snapshot reads, and degraded-mode
serving (S13, S24).

The paper's engine answers one query at a time; this package makes it
a *service*: several tenants share one dataset and one executor, each
behind a bounded queue with a scheduling weight and optional standing
quotas, while epoch-pinned snapshots keep in-flight readers isolated
from concurrent bulk loads and saturation rounds.  Under faults or
overload an optional brownout controller walks an explicit degradation
ladder — tightening budgets into flagged partial
answers, serving stale cache entries while refreshes revalidate, and
finally shedding new work — and recovers level by level as per-round
health signals clear.
"""

from .admission import (
    AdmissionController,
    AdmissionRejected,
    REASON_BROWNOUT,
    REASON_QUEUE_FULL,
    REASON_QUOTA_EXHAUSTED,
    REASON_TENANT_BREAKER,
    REASON_UNKNOWN_TENANT,
    TenantConfig,
)
from .chaos import ServiceChaos
from .degrade import (
    BrownoutController,
    BrownoutPolicy,
    LEVEL_NAMES,
    NORMAL,
    PARTIAL_ANSWERS,
    SHED_NEW_WORK,
    STALE_SERVING,
)
from .health import HealthMonitor, HealthSignals
from .metrics import percentile
from .request import DONE, EXPIRED, FAILED, QueryRequest
from .service import QueryService

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BrownoutController",
    "BrownoutPolicy",
    "DONE",
    "EXPIRED",
    "FAILED",
    "HealthMonitor",
    "HealthSignals",
    "LEVEL_NAMES",
    "NORMAL",
    "PARTIAL_ANSWERS",
    "QueryRequest",
    "QueryService",
    "REASON_BROWNOUT",
    "REASON_QUEUE_FULL",
    "REASON_QUOTA_EXHAUSTED",
    "REASON_TENANT_BREAKER",
    "REASON_UNKNOWN_TENANT",
    "SHED_NEW_WORK",
    "STALE_SERVING",
    "ServiceChaos",
    "TenantConfig",
    "percentile",
]
