"""The worker pool behind federation fan-out.

A federated atom is fetched from every endpoint, and those fetches wait
on endpoint latency, not on the CPU — the one place where threads pay
under the GIL.  :class:`~repro.federation.FederatedAnswerer` fans them
out here; query evaluation and saturation run on the calling thread.

Design rules the federation client relies on:

* **Serial is the identity.**  A pool with ``workers == 1`` runs every
  task inline on the calling thread, in submission order — the exact
  serial code path, so ``parallelism=1`` is byte-for-byte the serial
  behaviour and the differential harnesses can compare against it.
* **No nested fan-out.**  A task running *on* the pool that submits
  more work to the same pool would deadlock a bounded pool (workers
  waiting on work only workers can run).  The pool tracks which
  threads are its own workers and degrades their submissions to inline
  execution, so nesting is safe and merely serial.
* **First failure wins, siblings are cancelled.**  ``scatter``/``map``
  cancel not-yet-started tasks as soon as one fails and re-raise the
  *primary* error — an error that is not a sibling-abort echo (see
  :meth:`~repro.resilience.budget.ExecutionBudget.charge_rows`: once a
  shared budget trips, every sibling's next charge raises a marked
  ``sibling_abort`` copy).  Running tasks cannot be interrupted
  mid-Python, but budget-metered tasks abort at their next charge.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def primary_error(errors: Sequence[BaseException]) -> BaseException:
    """The error worth re-raising from a failed fan-out: the first one
    that is not a ``sibling_abort`` echo of a shared budget trip (all
    siblings re-raise after the first trip; only the first carries the
    genuine overrun diagnostics)."""
    for error in errors:
        if not getattr(error, "sibling_abort", False):
            return error
    return errors[0]


class ExecutorPool:
    """A shared bounded worker pool (see module doc).

    >>> with ExecutorPool(workers=2) as pool:
    ...     pool.map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    """

    def __init__(self, workers: int = 1, name: str = "repro-worker"):
        if workers < 1:
            raise ValueError("a pool needs >= 1 worker, got %r" % (workers,))
        self.workers = workers
        self._name = name
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._worker_threads: set = set()

    # ------------------------------------------------------------------

    @property
    def serial(self) -> bool:
        """True when this pool runs everything inline (one worker)."""
        return self.workers <= 1

    def usable(self) -> bool:
        """True when fanning out from the *calling thread* would
        actually run concurrently: more than one worker, and the caller
        is not itself one of this pool's workers (whose submissions
        degrade to inline execution — see module doc)."""
        return self.workers > 1 and threading.get_ident() not in self._worker_threads

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=self._name
                )
            return self._executor

    def _run(self, task: Callable[[], T]) -> T:
        ident = threading.get_ident()
        self._worker_threads.add(ident)
        try:
            return task()
        finally:
            self._worker_threads.discard(ident)

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """``[fn(item) for item in items]`` with the loop body fanned
        out; results in item order, first failure re-raised."""
        materialized = list(items)
        return self.scatter([lambda item=item: fn(item) for item in materialized])

    def scatter(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Run zero-argument *tasks* concurrently; results in task
        order.  On failure, pending siblings are cancelled, running
        ones are drained, and the primary error is re-raised."""
        tasks = list(tasks)
        if not self.usable() or len(tasks) <= 1:
            return [task() for task in tasks]
        executor = self._ensure()
        futures = [executor.submit(self._run, task) for task in tasks]
        pending = set(futures)
        failed = False
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            if failed:
                continue
            for future in done:
                if not future.cancelled() and future.exception() is not None:
                    failed = True
                    for other in pending:
                        other.cancel()
                    break
        if failed:
            errors = [
                future.exception()
                for future in futures
                if not future.cancelled() and future.exception() is not None
            ]
            raise primary_error(errors)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the worker threads (idempotent; the pool respawns
        them lazily if used again)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return "ExecutorPool(workers=%d)" % (self.workers,)


# ---------------------------------------------------------------------------
# The process-wide shared pool

_shared_lock = threading.Lock()
_shared_pool: Optional[ExecutorPool] = None


def shared_pool(workers: int) -> ExecutorPool:
    """The process-wide pool, grown to at least *workers* workers.

    Every ``FederatedAnswerer(parallelism=N)`` routes here so
    concurrent federated queries share one set of threads instead of
    each spawning their own; growing replaces the pool (the old threads
    drain and exit).
    """
    global _shared_pool
    if workers < 1:
        raise ValueError("parallelism must be >= 1, got %r" % (workers,))
    with _shared_lock:
        if _shared_pool is None or _shared_pool.workers < workers:
            previous, _shared_pool = _shared_pool, ExecutorPool(workers)
            if previous is not None:
                previous.close()
        return _shared_pool


def pool_for(parallelism: Optional[int]) -> Optional[ExecutorPool]:
    """The pool for a ``parallelism=`` argument: ``None`` (take the
    serial code path) for 1/None, the shared pool otherwise."""
    if parallelism is None:
        return None
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1, got %r" % (parallelism,))
    if parallelism == 1:
        return None
    return shared_pool(parallelism)
