"""Injected time: clocks and deadlines.

Every time-dependent resilience component (retry backoff, circuit
breaker cooldowns, deadlines, time budgets, injected latency) reads
time through a :class:`Clock` so tests and benchmarks substitute a
:class:`FakeClock` and run *instantly* — no wall-clock sleeps anywhere
in the test-suite, per the acceptance criteria.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from .errors import DeadlineExceeded


class Clock:
    """The time source interface: monotonic seconds plus sleep."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """Real time; the production default."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """A manually driven clock for tests and deterministic benchmarks.

    ``sleep`` advances simulated time instead of blocking, and every
    sleep is recorded — tests assert on the *schedule* of backoffs, not
    on elapsed wall time.  ``auto_advance`` (seconds per ``monotonic``
    call) simulates work taking time, which is how time budgets and
    deadlines are exercised without waiting.

    >>> clock = FakeClock()
    >>> clock.sleep(2.5); clock.monotonic()
    2.5
    >>> clock.sleeps
    [2.5]

    Thread-safe: a federation's fanned-out endpoint calls share one
    clock (e.g. chaos-endpoint latency), so the simulated-time
    mutations run under a lock.
    """

    def __init__(self, start: float = 0.0, auto_advance: float = 0.0):
        self._now = start
        self.auto_advance = auto_advance
        self.sleeps: List[float] = []
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            self._now += self.auto_advance
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep %r seconds" % (seconds,))
        with self._lock:
            self._now += seconds
            self.sleeps.append(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        with self._lock:
            self._now += seconds


#: The process-wide default clock, used when none is injected.
SYSTEM_CLOCK = SystemClock()


class Deadline:
    """A fixed point in (injected) time by which work must finish.

    >>> clock = FakeClock()
    >>> deadline = Deadline(5.0, clock)
    >>> deadline.expired()
    False
    >>> clock.advance(6.0); deadline.expired()
    True
    """

    def __init__(self, seconds: float, clock: Optional[Clock] = None):
        if seconds <= 0:
            raise ValueError("a deadline needs a positive horizon, got %r"
                             % (seconds,))
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.seconds = seconds
        self.started_at = self.clock.monotonic()

    def elapsed(self) -> float:
        return self.clock.monotonic() - self.started_at

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` when the horizon has passed."""
        elapsed = self.elapsed()
        if elapsed >= self.seconds:
            raise DeadlineExceeded(
                "%s exceeded its %.3fs deadline (%.3fs elapsed)"
                % (what, self.seconds, elapsed),
                elapsed_seconds=elapsed,
            )
