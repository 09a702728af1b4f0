"""Brownout controller: the explicit degradation ladder.

Under overload or faults, a front door has better options than the
binary serve/collapse: it can shed *quality* before it sheds *work*.
The :class:`BrownoutController` walks a four-level ladder, one level
per observation round, guarded by hysteresis so transient spikes do
not flap the service between modes:

====  ==================  ==================================================
lvl   name                what the service gives up
====  ==================  ==================================================
0     normal              nothing
1     partial-answers     full answers: budgets tighten, the columnar
                          engine may return a truncated answer flagged
                          DEGRADED instead of failing it
2     stale-serving       freshness: expired per-tenant cache entries
                          are served tagged ``stale=True`` while a
                          single-flight refresh recomputes them
3     shed-new-work       availability for *new* requests: submissions
                          are refused with a retry-after hint
====  ==================  ==================================================

Escalation is driven only by *user-visible* pressure (queue depth,
latency, shed rate, failed responses).  De-escalation additionally
requires the refresh-failure canary to be quiet: while stale serving
masks a backend fault from tenants, the background refreshes keep
probing it, and their failures hold the ladder in place.  The
controller de-escalates one level after ``recovery_rounds``
consecutive clear rounds, where *clear* means every signal is under
``clear_factor`` × its escalation threshold — the hysteresis band in
between holds the current level and resets the healthy streak.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from ..resilience.clock import Clock, SYSTEM_CLOCK
from .health import HealthSignals

NORMAL = 0
PARTIAL_ANSWERS = 1
STALE_SERVING = 2
SHED_NEW_WORK = 3

LEVEL_NAMES = (
    "normal",
    "partial-answers",
    "stale-serving",
    "shed-new-work",
)


class BrownoutPolicy:
    """Thresholds and knobs for the ladder.  All escalation thresholds
    are fractions in [0, 1] except ``latency_high`` (seconds on the
    service clock)."""

    def __init__(
        self,
        *,
        queue_high: float = 0.75,
        latency_high: float = 0.25,
        shed_high: float = 0.5,
        failure_high: float = 0.5,
        clear_factor: float = 0.5,
        recovery_rounds: int = 3,
        budget_factor: float = 0.5,
        degraded_row_budget: Optional[int] = None,
        degraded_time_budget: Optional[float] = None,
        stale_max_epochs: int = 1,
        refreshes_per_round: int = 1,
    ):
        if not 0.0 < clear_factor <= 1.0:
            raise ValueError("clear_factor must be in (0, 1], got %r" % clear_factor)
        if recovery_rounds < 1:
            raise ValueError(
                "recovery_rounds must be >= 1, got %r" % (recovery_rounds,)
            )
        if stale_max_epochs < 1:
            raise ValueError(
                "stale_max_epochs must be >= 1, got %r" % (stale_max_epochs,)
            )
        self.queue_high = queue_high
        self.latency_high = latency_high
        self.shed_high = shed_high
        self.failure_high = failure_high
        self.clear_factor = clear_factor
        self.recovery_rounds = recovery_rounds
        self.budget_factor = budget_factor
        self.degraded_row_budget = degraded_row_budget
        self.degraded_time_budget = degraded_time_budget
        self.stale_max_epochs = stale_max_epochs
        self.refreshes_per_round = refreshes_per_round

    def as_dict(self) -> dict:
        return {
            "queue_high": self.queue_high,
            "latency_high": self.latency_high,
            "shed_high": self.shed_high,
            "failure_high": self.failure_high,
            "clear_factor": self.clear_factor,
            "recovery_rounds": self.recovery_rounds,
            "budget_factor": self.budget_factor,
            "degraded_row_budget": self.degraded_row_budget,
            "degraded_time_budget": self.degraded_time_budget,
            "stale_max_epochs": self.stale_max_epochs,
            "refreshes_per_round": self.refreshes_per_round,
        }


class BrownoutController:
    """Observes :class:`~repro.service.health.HealthSignals` once per
    scheduling round and moves at most one ladder level per round."""

    def __init__(
        self,
        policy: Optional[BrownoutPolicy] = None,
        clock: Optional[Clock] = None,
    ):
        self.policy = policy if policy is not None else BrownoutPolicy()
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self._lock = threading.RLock()
        self._level = NORMAL
        self._healthy_streak = 0
        #: (clock time, from-level, to-level, reason) — the audit trail
        #: E19 and the tests use to prove the ladder went up *and* came
        #: back down.
        self.transitions: List[Tuple[float, int, int, str]] = []
        self.observations = 0

    # ------------------------------------------------------------------
    # Level queries (what the serving loop asks each round / request)

    @property
    def level(self) -> int:
        return self._level

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self._level]

    @property
    def allow_partial(self) -> bool:
        return self._level >= PARTIAL_ANSWERS

    @property
    def serve_stale(self) -> bool:
        return self._level >= STALE_SERVING

    @property
    def shed_new_work(self) -> bool:
        return self._level >= SHED_NEW_WORK

    def effective_budgets(
        self,
        row_budget: Optional[int],
        time_budget: Optional[float],
    ) -> Tuple[Optional[int], Optional[float]]:
        """Tighten a request's configured budgets at partial-answers
        and above.  Explicit degraded budgets win; otherwise the
        configured budgets are scaled by ``budget_factor``."""
        if self._level < PARTIAL_ANSWERS:
            return row_budget, time_budget
        policy = self.policy
        rows = policy.degraded_row_budget
        if rows is None and row_budget is not None:
            rows = max(1, int(row_budget * policy.budget_factor))
        elif rows is None:
            rows = row_budget
        seconds = policy.degraded_time_budget
        if seconds is None and time_budget is not None:
            seconds = time_budget * policy.budget_factor
        elif seconds is None:
            seconds = time_budget
        return rows, seconds

    # ------------------------------------------------------------------
    # The ladder

    def observe(self, signals: HealthSignals) -> int:
        """Fold one round of health signals; returns the (possibly
        changed) level."""
        with self._lock:
            self.observations += 1
            policy = self.policy
            pressure = self._pressure_reasons(signals, factor=1.0)
            if pressure:
                self._healthy_streak = 0
                if self._level < SHED_NEW_WORK:
                    self._move(self._level + 1, "pressure: " + ", ".join(pressure))
                return self._level
            # No escalation pressure.  Clear enough to recover?
            lingering = self._pressure_reasons(signals, factor=policy.clear_factor)
            if not lingering and signals.refresh_failure_fraction <= 0.0:
                self._healthy_streak += 1
                if self._level > NORMAL and self._healthy_streak >= policy.recovery_rounds:
                    self._move(
                        self._level - 1,
                        "recovered: %d clear rounds" % self._healthy_streak,
                    )
                    self._healthy_streak = 0
            else:
                # Hysteresis band (or the refresh canary is firing):
                # hold the level, restart the healthy streak.
                self._healthy_streak = 0
            return self._level

    def _pressure_reasons(self, signals: HealthSignals, factor: float) -> List[str]:
        policy = self.policy
        reasons = []
        if signals.queue_fraction > policy.queue_high * factor:
            reasons.append("queue %.2f" % signals.queue_fraction)
        if signals.latency_ewma > policy.latency_high * factor:
            reasons.append("latency %.3fs" % signals.latency_ewma)
        if signals.shed_fraction > policy.shed_high * factor:
            reasons.append("shed %.2f" % signals.shed_fraction)
        if signals.failure_fraction > policy.failure_high * factor:
            reasons.append("failures %.2f" % signals.failure_fraction)
        return reasons

    def _move(self, level: int, reason: str) -> None:
        level = max(NORMAL, min(SHED_NEW_WORK, level))
        if level == self._level:
            return
        self.transitions.append((self.clock.monotonic(), self._level, level, reason))
        self._level = level

    def force(self, level: int, reason: str = "forced") -> None:
        """Pin the ladder to a level (tests, operator override)."""
        with self._lock:
            self._move(level, reason)
            self._healthy_streak = 0

    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "level": self._level,
                "level_name": self.level_name,
                "healthy_streak": self._healthy_streak,
                "observations": self.observations,
                "transitions": [
                    {"at": at, "from": src, "to": dst, "reason": reason}
                    for at, src, dst, reason in self.transitions
                ],
                "policy": self.policy.as_dict(),
            }

    def __repr__(self) -> str:
        return "BrownoutController(level=%s, streak=%d)" % (
            self.level_name,
            self._healthy_streak,
        )


__all__ = [
    "BrownoutController",
    "BrownoutPolicy",
    "LEVEL_NAMES",
    "NORMAL",
    "PARTIAL_ANSWERS",
    "SHED_NEW_WORK",
    "STALE_SERVING",
]
