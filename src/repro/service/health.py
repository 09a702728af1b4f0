"""Service health tracking: the signals the brownout ladder reads.

A :class:`HealthMonitor` folds the serving loop's raw events into a
small set of smoothed signals, one :class:`HealthSignals` snapshot per
scheduling round:

* **queue pressure** — backlog over total queue capacity, EWMA'd so a
  single bursty round does not flap the ladder;
* **latency** — an EWMA of completed-request latencies on the injected
  clock (stale serves included: they are responses too);
* **shed fraction** — the round's shed/submitted ratio, EWMA'd;
* **failure fraction** — failed over attempted responses this round
  (*user-visible* distress: the signal that escalates the ladder);
* **refresh-failure fraction** — the stale-serving canary: while
  stale answers mask faults from tenants, the single-flight refreshes
  still probe the backend, and their failures are the evidence that
  the fault has not cleared (it holds the ladder down without
  escalating it further);
* **per-tenant circuit breakers** — ``breaker_threshold`` consecutive
  tenant-local failures open the tenant's
  :class:`~repro.resilience.breaker.CircuitBreaker`; its requests are
  then shed at the front door until the cooldown elapses, and — the
  point — its failures stop feeding the global signals, so one
  pathological tenant cannot drag every other tenant down the ladder.

Everything reads time through the injected clock, so the whole health
pipeline replays deterministically under
:class:`~repro.resilience.clock.FakeClock`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from ..resilience.breaker import CircuitBreaker
from ..resilience.clock import Clock, SYSTEM_CLOCK

#: Default per-tenant breaker contract (used when a service enables
#: breakers without picking numbers).
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_COOLDOWN = 5.0

#: EWMA smoothing factor: weight of the newest round.
EWMA_ALPHA = 0.3


def _ewma(previous: Optional[float], sample: float, alpha: float = EWMA_ALPHA) -> float:
    if previous is None:
        return sample
    return (1.0 - alpha) * previous + alpha * sample


class HealthSignals:
    """One round's smoothed health snapshot (what the ladder reads)."""

    __slots__ = (
        "round_index",
        "backlog",
        "queue_fraction",
        "latency_ewma",
        "shed_fraction",
        "failure_fraction",
        "refresh_failure_fraction",
        "failure_rounds",
        "open_breakers",
        "attempts",
    )

    def __init__(
        self,
        round_index: int = 0,
        backlog: int = 0,
        queue_fraction: float = 0.0,
        latency_ewma: float = 0.0,
        shed_fraction: float = 0.0,
        failure_fraction: float = 0.0,
        refresh_failure_fraction: float = 0.0,
        failure_rounds: int = 0,
        open_breakers: int = 0,
        attempts: int = 0,
    ):
        self.round_index = round_index
        self.backlog = backlog
        self.queue_fraction = queue_fraction
        self.latency_ewma = latency_ewma
        self.shed_fraction = shed_fraction
        self.failure_fraction = failure_fraction
        self.refresh_failure_fraction = refresh_failure_fraction
        self.failure_rounds = failure_rounds
        self.open_breakers = open_breakers
        self.attempts = attempts

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            "HealthSignals(round=%d, queue=%.2f, fail=%.2f, refresh_fail=%.2f, "
            "shed=%.2f)"
            % (
                self.round_index,
                self.queue_fraction,
                self.failure_fraction,
                self.refresh_failure_fraction,
                self.shed_fraction,
            )
        )


class HealthMonitor:
    """Aggregates serving-loop events into per-round health signals.

    ``total_queue_depth`` normalizes the backlog into a 0..1 queue
    pressure.  ``breaker_threshold`` of ``None`` (or ``0``) disables
    per-tenant breakers entirely — the monitor still produces the
    global signals.
    """

    def __init__(
        self,
        tenants: Sequence[str],
        *,
        total_queue_depth: int = 1,
        clock: Optional[Clock] = None,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        alpha: float = EWMA_ALPHA,
    ):
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.total_queue_depth = max(1, total_queue_depth)
        self.alpha = alpha
        self.breakers: Dict[str, CircuitBreaker] = {}
        if breaker_threshold:
            self.breakers = {
                name: CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    cooldown_seconds=breaker_cooldown,
                    clock=self.clock,
                )
                for name in tenants
            }
        self._lock = threading.RLock()
        # Smoothed signals (None = no sample yet).
        self._queue_ewma: Optional[float] = None
        self._latency_ewma: Optional[float] = None
        self._shed_ewma: Optional[float] = None
        # Current-round counters, folded by end_round().
        self._round_submitted = 0
        self._round_shed = 0
        self._round_attempts = 0
        self._round_failed = 0
        self._round_refreshes = 0
        self._round_refresh_failures = 0
        #: Consecutive rounds with at least one user-visible failure.
        self.failure_rounds = 0
        self.rounds = 0

    # ------------------------------------------------------------------
    # Event feed (called from the service's submit/account paths)

    def note_submitted(self) -> None:
        with self._lock:
            self._round_submitted += 1

    def note_shed(self) -> None:
        with self._lock:
            self._round_shed += 1

    def note_completed(
        self,
        tenant: str,
        latency_seconds: Optional[float],
        stale: bool = False,
    ) -> None:
        """A response went out.  Stale serves count as *responses* (the
        tenant got an answer) but do not reset the tenant's breaker —
        the backend was never exercised on their behalf."""
        with self._lock:
            self._round_attempts += 1
            if latency_seconds is not None:
                self._latency_ewma = _ewma(
                    self._latency_ewma, latency_seconds, self.alpha
                )
            if not stale:
                breaker = self.breakers.get(tenant)
                if breaker is not None:
                    breaker.record_success()

    def note_failure(self, tenant: str) -> None:
        """A request failed in the serving loop (budget, fault, blowup).
        Feeds the tenant's breaker *and* the global failure signal."""
        with self._lock:
            self._round_attempts += 1
            self._round_failed += 1
            breaker = self.breakers.get(tenant)
            if breaker is not None:
                breaker.record_failure()

    def note_refresh(self, ok: bool) -> None:
        """A single-flight stale refresh finished.  Failures feed the
        canary signal only — never a tenant breaker (refreshes are
        service-initiated, not tenant-submitted work)."""
        with self._lock:
            self._round_refreshes += 1
            if not ok:
                self._round_refresh_failures += 1

    # ------------------------------------------------------------------
    # Breakers

    def breaker_for(self, tenant: str) -> Optional[CircuitBreaker]:
        return self.breakers.get(tenant)

    def breaker_states(self) -> Dict[str, str]:
        return {name: breaker.state for name, breaker in sorted(self.breakers.items())}

    def open_tenants(self) -> List[str]:
        from ..resilience.breaker import OPEN

        return [
            name
            for name, breaker in sorted(self.breakers.items())
            if breaker.state == OPEN
        ]

    # ------------------------------------------------------------------
    # Round boundary

    def end_round(self, backlog: int) -> HealthSignals:
        """Fold the round's counters into the EWMAs and emit the
        snapshot the brownout controller observes."""
        with self._lock:
            self.rounds += 1
            self._queue_ewma = _ewma(
                self._queue_ewma,
                min(1.0, backlog / self.total_queue_depth),
                self.alpha,
            )
            shed_sample = (
                self._round_shed / self._round_submitted
                if self._round_submitted
                else 0.0
            )
            self._shed_ewma = _ewma(self._shed_ewma, shed_sample, self.alpha)
            failure_fraction = (
                self._round_failed / self._round_attempts
                if self._round_attempts
                else 0.0
            )
            refresh_failure_fraction = (
                self._round_refresh_failures / self._round_refreshes
                if self._round_refreshes
                else 0.0
            )
            if self._round_failed:
                self.failure_rounds += 1
            else:
                self.failure_rounds = 0
            signals = HealthSignals(
                round_index=self.rounds,
                backlog=backlog,
                queue_fraction=self._queue_ewma or 0.0,
                latency_ewma=self._latency_ewma or 0.0,
                shed_fraction=self._shed_ewma or 0.0,
                failure_fraction=failure_fraction,
                refresh_failure_fraction=refresh_failure_fraction,
                failure_rounds=self.failure_rounds,
                open_breakers=len(self.open_tenants()),
                attempts=self._round_attempts,
            )
            self._round_submitted = 0
            self._round_shed = 0
            self._round_attempts = 0
            self._round_failed = 0
            self._round_refreshes = 0
            self._round_refresh_failures = 0
            return signals

    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "rounds": self.rounds,
                "queue_ewma": self._queue_ewma or 0.0,
                "latency_ewma": self._latency_ewma or 0.0,
                "shed_ewma": self._shed_ewma or 0.0,
                "failure_rounds": self.failure_rounds,
                "breakers": self.breaker_states(),
                "open_breakers": self.open_tenants(),
            }

    def __repr__(self) -> str:
        return "HealthMonitor(rounds=%d, failure_rounds=%d)" % (
            self.rounds,
            self.failure_rounds,
        )


__all__ = [
    "DEFAULT_BREAKER_COOLDOWN",
    "DEFAULT_BREAKER_THRESHOLD",
    "EWMA_ALPHA",
    "HealthMonitor",
    "HealthSignals",
]
