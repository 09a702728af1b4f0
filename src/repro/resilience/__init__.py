"""Resilience: fault injection, retries, breakers, deadlines, budgets.

The production-readiness layer for the federated and local answering
paths (ROADMAP north star; motivated by the unreliable endpoints of
the paper's Section 1 and the bounded-cost concerns of LiteMat-style
systems):

* :mod:`~repro.resilience.errors` — the typed failure vocabulary;
* :mod:`~repro.resilience.clock` — injected time (``FakeClock`` makes
  every retry/cooldown/deadline test run instantly);
* :mod:`~repro.resilience.retry` — exponential backoff + full jitter;
* :mod:`~repro.resilience.breaker` — per-endpoint circuit breakers;
* :mod:`~repro.resilience.budget` — row/time budgets for local
  evaluation (``BudgetExceeded`` instead of an Example-1 hang);
* :mod:`~repro.resilience.report` — per-endpoint completeness
  accounting for graceful partial answers;
* :mod:`~repro.resilience.faults` — the seeded chaos harness
  (``FaultPlan`` + ``ChaosEndpoint`` for endpoints, ``CrashPlan`` +
  ``CrashingFileSystem`` for the durability layer), loaded lazily
  because it wraps :mod:`repro.federation` endpoints.
"""

from .breaker import CircuitBreaker
from .budget import ExecutionBudget
from .clock import Deadline, FakeClock
from .errors import (
    BudgetExceeded,
    CircuitOpen,
    DeadlineExceeded,
    EndpointOutage,
    SimulatedCrash,
    TransientEndpointError,
)
from .retry import RetryPolicy

__all__ = [
    "BudgetExceeded",
    "ChaosEndpoint",
    "CircuitBreaker",
    "CircuitOpen",
    "CrashPlan",
    "CrashingFileSystem",
    "Deadline",
    "DeadlineExceeded",
    "EndpointOutage",
    "ExecutionBudget",
    "FakeClock",
    "FaultPlan",
    "RetryPolicy",
    "SimulatedCrash",
    "TransientEndpointError",
]


def __getattr__(name):
    # The chaos harness wraps federation endpoints; importing it
    # eagerly would cycle (federation.client imports this package).
    if name in ("ChaosEndpoint", "FaultPlan", "CrashPlan", "CrashingFileSystem"):
        from . import faults

        return getattr(faults, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
