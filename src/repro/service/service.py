"""The multi-tenant query service front door.

:class:`QueryService` glues the serving stack together on top of one
writer :class:`~repro.core.answerer.QueryAnswerer`:

* **admission** — :meth:`submit` charges each
  :class:`~repro.service.request.QueryRequest` against the tenant's
  bounded queue and standing quota
  (:class:`~repro.service.admission.AdmissionController`), shedding
  past saturation with a typed
  :class:`~repro.service.admission.AdmissionRejected`;
* **execution** — :meth:`step` dequeues up to ``capacity`` tickets in
  weighted-fair order and answers them; :meth:`drain` steps until the
  queues are empty.  Execution is *step-driven* rather than
  thread-driven: the scheduling decisions are taken serially under the
  injected clock, which makes every interleaving a deterministic,
  replayable script (the concurrency test harness drives exactly this
  entry point);
* **caching** — each tenant owns a private
  :class:`~repro.cache.QueryCache` partition, which the writer answerer
  consults for it (``answer(..., cache=partition)``: one key recipe,
  lookup and write-back for both tiers); all partitions watch the one
  shared store, so a write invalidates every tenant's answers at the
  same epoch (shared-epoch invalidation: no tenant can read another
  tenant's entries, and no tenant can read stale data either — unless
  the brownout ladder has *explicitly* opened the stale-while-revalidate
  window, in which case expired entries are served tagged
  ``stale=True``).  The partition's reformulation tier keeps GCov's
  covers per query *shape* (the query up to its instance constants)
  across writes: a miss on a shape the tenant already compiled runs no
  cover search, and usually no planning either (its plan is kept);
* **snapshot reads** — :meth:`pin` hands out an epoch-pinned
  :class:`~repro.storage.snapshot.StoreSnapshot`; a request carrying
  one is answered over the pinned state — the live store until a write
  lands, then the store frozen before that write — byte-identical no
  matter what the writer does concurrently;
* **degraded-mode serving** — an optional
  :class:`~repro.service.degrade.BrownoutController` observes per-round
  :class:`~repro.service.health.HealthMonitor` signals and walks the
  degradation ladder; the service derives per-request effective
  budgets, partial-answer opt-in, stale-serving and front-door
  shedding from the current level.  Per-tenant circuit
  breakers shed a pathological tenant's requests at the door before
  its failures can drag the ladder down for everyone else, a watchdog
  bounds every execution's wall-clock through its time budget, and an
  optional :class:`~repro.service.chaos.ServiceChaos` injects seeded
  faults inside this very serving loop.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cache import QueryCache
from ..cache.keys import cover_key, query_key
from ..core.answerer import DEFAULT_ENGINE, AnswerReport, QueryAnswerer
from ..resilience.clock import Clock, SYSTEM_CLOCK
from ..resilience.errors import BudgetExceeded, EndpointFailure
from ..storage.backends import QueryTooLargeError
from ..storage.snapshot import SnapshotManager, StoreSnapshot
from .admission import (
    AdmissionController,
    AdmissionRejected,
    REASON_BROWNOUT,
    REASON_TENANT_BREAKER,
    TenantConfig,
)
from .chaos import ServiceChaos
from .degrade import BrownoutController, BrownoutPolicy
from .health import DEFAULT_BREAKER_COOLDOWN, DEFAULT_BREAKER_THRESHOLD, HealthMonitor
from .metrics import ServiceMetrics
from .request import DONE, FAILED, RUNNING, QueryRequest, Ticket

#: Exceptions the serving loop absorbs into a FAILED ticket (everything
#: else is a programming error and propagates).
_SERVING_ERRORS = (
    BudgetExceeded,
    QueryTooLargeError,
    EndpointFailure,
)

#: Each tenant cache partition's capacities, in entries.
CACHE_REFORMULATIONS = 128
CACHE_ANSWERS = 512


class QueryService:
    """A multi-tenant serving layer over one dataset.

    ``tenants`` are :class:`~repro.service.admission.TenantConfig`
    entries (bare names get default weight/depth).  ``capacity`` is how
    many requests one :meth:`step` round executes, one after another in
    ticket order.  ``clock`` drives every
    timestamp, deadline, and retry-after hint — tests inject a
    :class:`~repro.resilience.clock.FakeClock` and replay identical
    schedules.

    Degraded-mode knobs (all optional):

    * ``brownout`` — ``True`` for the default
      :class:`~repro.service.degrade.BrownoutPolicy`, a policy, or a
      ready :class:`~repro.service.degrade.BrownoutController`;
    * ``watchdog_seconds`` — a hard wall-clock ceiling applied to every
      execution (min'd with the tenant's own time budget) so no single
      reformulation blowup can occupy a slot forever;
    * ``breaker_threshold`` / ``breaker_cooldown`` — per-tenant circuit
      breakers (threshold consecutive failures open the tenant's
      breaker; ``0`` disables).  Enabled by default when ``brownout``
      is set;
    * ``chaos`` — a :class:`~repro.service.chaos.ServiceChaos` whose
      seeded faults are injected per execution and per stale refresh.
    """

    def __init__(
        self,
        graph,
        schema=None,
        *,
        tenants: Sequence[Union[str, TenantConfig]],
        engine: str = DEFAULT_ENGINE,
        capacity: int = 2,
        clock: Optional[Clock] = None,
        brownout: Union[None, bool, BrownoutPolicy, BrownoutController] = None,
        chaos: Optional[ServiceChaos] = None,
        watchdog_seconds: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
    ):
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.engine = engine
        self.answerer = QueryAnswerer(graph, schema, engine=engine)
        self.snapshots = SnapshotManager(self.answerer.store)
        configs = [
            t if isinstance(t, TenantConfig) else TenantConfig(t) for t in tenants
        ]
        self.admission = AdmissionController(
            configs, capacity=capacity, clock=self.clock
        )
        self.capacity = capacity
        self.metrics = ServiceMetrics([c.name for c in configs])
        # Degraded-mode serving: ladder, health, chaos, watchdog.
        if brownout is True:
            brownout = BrownoutController(clock=self.clock)
        elif isinstance(brownout, BrownoutPolicy):
            brownout = BrownoutController(brownout, clock=self.clock)
        self.brownout: Optional[BrownoutController] = brownout
        self.chaos = chaos
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError(
                "watchdog_seconds must be > 0, got %r" % (watchdog_seconds,)
            )
        self.watchdog_seconds = watchdog_seconds
        if breaker_threshold is None and brownout is not None:
            breaker_threshold = DEFAULT_BREAKER_THRESHOLD
        self.health = HealthMonitor(
            [c.name for c in configs],
            total_queue_depth=sum(c.queue_depth for c in configs),
            clock=self.clock,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        # Stale-while-revalidate bookkeeping: logical keys with a
        # refresh in flight (single-flight), and the FIFO of refreshes
        # step() works through.
        self._refreshing: set = set()
        self._pending_refreshes: List[QueryRequest] = []
        self._refresh_lock = threading.RLock()
        # Per-tenant cache partitions: private entries, shared
        # invalidation epochs via the one store.
        self._caches: Dict[str, QueryCache] = {}
        for config in configs:
            cache = QueryCache(CACHE_REFORMULATIONS, CACHE_ANSWERS)
            cache.watch_store(self.answerer.store)
            self._caches[config.name] = cache
        #: Reader answerers over each pinned epoch's frozen store,
        #: shared by every request pinned at that epoch.
        self._readers: Dict[int, QueryAnswerer] = {}

    # ------------------------------------------------------------------
    # Front door

    def submit(self, request: QueryRequest) -> Ticket:
        """Admit *request*, or shed it with
        :class:`~repro.service.admission.AdmissionRejected`.

        Health gates run before the admission controller: at
        shed-new-work every submission is refused with a retry-after
        hint, and a tenant whose circuit breaker is open is refused
        until the cooldown elapses.  Neither gate feeds the ladder's
        shed signal — brownout sheds are the *remedy*, and breaker
        sheds are tenant-local quarantine; only genuine queue/quota
        sheds indicate service-wide overload."""
        self.metrics.note_submitted(request.tenant)
        self.health.note_submitted()
        if self.brownout is not None and self.brownout.shed_new_work:
            self.metrics.note_shed(request.tenant, REASON_BROWNOUT)
            raise AdmissionRejected(
                "service degraded to %s; not accepting new work"
                % self.brownout.level_name,
                tenant=request.tenant,
                reason=REASON_BROWNOUT,
                retry_after=self.admission.retry_after(),
                queued=self.admission.backlog(request.tenant),
            )
        breaker = self.health.breaker_for(request.tenant)
        if breaker is not None and not breaker.allow():
            self.metrics.note_shed(request.tenant, REASON_TENANT_BREAKER)
            raise AdmissionRejected(
                "tenant %r circuit open after repeated failures"
                % (request.tenant,),
                tenant=request.tenant,
                reason=REASON_TENANT_BREAKER,
                retry_after=breaker.cooldown_remaining(),
                queued=self.admission.backlog(request.tenant),
                cooldown_remaining=breaker.cooldown_remaining(),
            )
        try:
            ticket = self.admission.submit(request)
        except AdmissionRejected as exc:
            self.metrics.note_shed(request.tenant, exc.reason)
            self.health.note_shed()
            raise
        self.metrics.note_admitted(request.tenant)
        return ticket

    def pin(self) -> StoreSnapshot:
        """An O(1) epoch-pinned snapshot for later snapshot reads."""
        return self.snapshots.pin()

    def release(self, snapshot: StoreSnapshot) -> None:
        """Release *snapshot* and drop its reader once unpinned."""
        epoch = snapshot.epoch
        snapshot.release()
        if epoch in self._readers and not self.snapshots.pinned_at(epoch):
            del self._readers[epoch]

    # ------------------------------------------------------------------
    # Writes (all go through the writer answerer, so the snapshot COW
    # hooks and every tenant's cache invalidation fire on the way)

    def insert(self, triple) -> bool:
        return self.answerer.insert(triple)

    def delete(self, triple) -> bool:
        return self.answerer.delete(triple)

    def load(self, graph) -> int:
        """Bulk-load *graph*'s data triples; returns how many were new."""
        count = 0
        for triple in graph.data_triples():
            if self.answerer.insert(triple):
                count += 1
        return count

    # ------------------------------------------------------------------
    # Scheduler

    def step(self) -> List[Ticket]:
        """Run one scheduling round: dequeue up to ``capacity`` tickets
        in weighted-fair order, execute them, account them, work one
        slice of pending stale refreshes, then feed the round's health
        signals to the brownout ladder.  Returns the tickets that left
        the queue this round (done, failed, or expired), in scheduling
        order."""
        runnable, expired = self.admission.next_batch(self.capacity)
        for ticket in expired:
            self.metrics.note_expired(ticket.request.tenant)
        for ticket in runnable:
            self._execute(ticket)
            self._account(ticket)
        self._run_refreshes()
        signals = self.health.end_round(self.admission.backlog())
        if self.brownout is not None:
            self.brownout.observe(signals)
        return runnable + expired

    def drain(self, max_steps: int = 10_000) -> List[Ticket]:
        """Step until every queue is empty; returns all finished
        tickets in completion order.  Pending stale refreshes are
        worked to completion too — drain leaves no background work."""
        finished: List[Ticket] = []
        steps = 0
        while self.admission.backlog() > 0 or self._pending_refreshes:
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    "drain did not converge after %d steps (backlog %d)"
                    % (max_steps, self.admission.backlog())
                )
            finished.extend(self.step())
        return finished

    # ------------------------------------------------------------------
    # Execution internals

    def _answerer_for(self, request: QueryRequest) -> Tuple[QueryAnswerer, bool]:
        """The answerer evaluating *request*: the live writer (also
        for a pinned request when nothing was written since its pin),
        or a reader over the pinned snapshot's frozen store (one reader
        per epoch, shared across requests).  Returns ``(answerer,
        bypass_cache)`` — snapshot reads bypass the tenant cache (their
        freshness is the pin, not the epoch)."""
        snapshot = request.snapshot
        if snapshot is None:
            return self.answerer, False
        store = snapshot.store()
        if store is self.answerer.store:  # no write since the pin
            return self.answerer, True
        reader = self._readers.get(snapshot.epoch)
        if reader is None:
            reader = QueryAnswerer(store, engine=self.engine)
            self._readers[snapshot.epoch] = reader
        return reader, True

    def _budget_kwargs(self, config: TenantConfig, owner: str, degrade: bool) -> dict:
        """The budget kwargs for one execution: the tenant's configured
        budgets, tightened by the ladder when *degrade* is set, then
        capped by the watchdog's hard wall-clock ceiling."""
        row_budget = config.request_rows
        time_budget = config.request_seconds
        if degrade and self.brownout is not None:
            row_budget, time_budget = self.brownout.effective_budgets(
                row_budget, time_budget
            )
        if self.watchdog_seconds is not None and self.engine != "sqlite":
            time_budget = (
                self.watchdog_seconds
                if time_budget is None
                else min(time_budget, self.watchdog_seconds)
            )
        if row_budget is None and time_budget is None:
            return {}
        return {
            "row_budget": row_budget,
            "time_budget": time_budget,
            "budget_owner": owner,
        }

    def _execute(self, ticket: Ticket) -> None:
        request = ticket.request
        ticket.status = RUNNING
        ticket.started_at = self.clock.monotonic()
        config = self.admission.tenants[request.tenant]
        answerer, pinned = self._answerer_for(request)
        cache = None if pinned else self._caches.get(request.tenant)
        stale = self.brownout is not None and self.brownout.serve_stale
        cached = False
        if cache is not None and (stale or self.chaos is not None):
            # Membership counts nothing: the answerer's lookup below is
            # the one the tier counts.  A cached answer executes nothing,
            # so it draws no chaos fault.
            cached = answerer.answer_cache_key(
                cache, request.query, request.strategy, request.cover
            ) in cache.answers
            if not cached and stale and self._serve_stale(ticket, cache, request):
                return
        kwargs = self._budget_kwargs(config, ticket.owner, degrade=True)
        if self.brownout is not None and self.brownout.allow_partial:
            # Only the columnar engine (the default) carries partial
            # rows on the exception; on the others the flag is a
            # harmless no-op and the overrun still fails the ticket.
            kwargs["allow_partial"] = True
        try:
            if self.chaos is not None and not cached:
                self.chaos.maybe_fail("request %s" % ticket.owner)
            report = answerer.answer(
                request.query,
                request.strategy,
                cover=request.cover,
                cache=cache,
                **kwargs,
            )
        except _SERVING_ERRORS as exc:
            ticket.error = exc
            ticket.status = FAILED
        else:
            if cache is not None:
                report.details["cache"]["tenant"] = request.tenant
            ticket.report = report
            ticket.status = DONE
        ticket.finished_at = self.clock.monotonic()

    # ------------------------------------------------------------------
    # Stale-while-revalidate

    def _refresh_key(self, request: QueryRequest):
        """The single-flight identity of a refresh: epoch-independent,
        so one refresh is in flight per logical query per tenant no
        matter how many stale serves it backs."""
        return (
            request.tenant,
            request.strategy.value,
            query_key(request.query),
            None if request.cover is None else cover_key(request.cover),
        )

    def _serve_stale(
        self, ticket: Ticket, cache: QueryCache, request: QueryRequest
    ) -> bool:
        """Serve an expired cache entry if one is still reachable.

        Epoch invalidation is lazy — superseded entries linger in the
        LRU — so probing the previous ``stale_max_epochs`` data epochs'
        keys finds answers invalidated by recent writes.  A hit is
        served tagged ``stale=True`` (age included) and a single-flight
        background refresh is scheduled; anything older than the window
        is unreachable, so a stale serve never outlives the next epoch
        beyond the policy's bound."""
        policy = self.brownout.policy
        current_epoch = cache.data_epoch
        for age in range(1, policy.stale_max_epochs + 1):
            epoch = current_epoch - age
            if epoch < 0:
                break
            hit = cache.lookup_answer(self.answerer.answer_cache_key(
                cache, request.query, request.strategy, request.cover,
                data_epoch=epoch,
            ))
            if hit is None:
                continue
            answer, details = hit
            scheduled = self._schedule_refresh(request)
            ticket.status = DONE
            ticket.finished_at = self.clock.monotonic()
            details = dict(details)
            details["stale"] = {
                "age_epochs": age,
                "served_epoch": epoch,
                "current_epoch": current_epoch,
                "refresh_scheduled": scheduled,
            }
            details["cache"] = {"answer": "stale", "tenant": request.tenant}
            ticket.report = AnswerReport(
                request.strategy,
                answer,
                ticket.finished_at - ticket.started_at,
                details,
            )
            return True
        return False

    def _schedule_refresh(self, request: QueryRequest) -> bool:
        """Queue a background recompute for *request*'s logical query;
        single-flight per :meth:`_refresh_key`."""
        logical = self._refresh_key(request)
        with self._refresh_lock:
            if logical in self._refreshing:
                return False
            self._refreshing.add(logical)
            self._pending_refreshes.append(request)
            return True

    def _run_refreshes(self) -> None:
        """Work up to ``refreshes_per_round`` pending refreshes.  A
        refresh answers through the tenant's partition, so a recompute
        stores a genuinely fresh entry (current epochs); a failure
        releases the single-flight guard so a later stale serve can
        retry — and feeds the health monitor's refresh canary, which is
        what holds the ladder down while the fault persists."""
        if self.brownout is None:
            return
        quota = self.brownout.policy.refreshes_per_round
        while quota > 0 and self._pending_refreshes:
            quota -= 1
            with self._refresh_lock:
                if not self._pending_refreshes:
                    break
                request = self._pending_refreshes.pop(0)
            logical = self._refresh_key(request)
            config = self.admission.tenants.get(request.tenant)
            ok = False
            try:
                if self.chaos is not None:
                    self.chaos.maybe_fail("refresh %s" % (request.tenant,))
                kwargs = (
                    self._budget_kwargs(
                        config, "%s/refresh" % request.tenant, degrade=False
                    )
                    if config is not None
                    else {}
                )
                self.answerer.answer(
                    request.query,
                    request.strategy,
                    cover=request.cover,
                    cache=self._caches.get(request.tenant),
                    **kwargs,
                )
                ok = True
            except _SERVING_ERRORS:
                pass
            finally:
                with self._refresh_lock:
                    self._refreshing.discard(logical)
            self.health.note_refresh(ok)
            self.metrics.note_refresh(request.tenant, ok)

    # ------------------------------------------------------------------
    # Accounting

    def _account(self, ticket: Ticket) -> None:
        tenant = ticket.request.tenant
        if ticket.status == DONE:
            self.admission.note_service_time(ticket.service_seconds())
            self.metrics.note_completed(
                tenant,
                ticket.latency_seconds(),
                ticket.report.cardinality,
                ticket.cache,
                degraded=ticket.degraded,
            )
            self.health.note_completed(
                tenant, ticket.latency_seconds(), stale=ticket.cache == "stale"
            )
            try:
                # Standing quota is charged on *answer rows* — an
                # engine-independent, deterministic measure (the same
                # query yields the same charge on every engine).
                self.admission.charge_quota(tenant, ticket.report.cardinality)
            except BudgetExceeded:
                # The answer stands; the tenant's later submits shed.
                pass
        elif ticket.status == FAILED:
            self.metrics.note_failed(tenant, reason=type(ticket.error).__name__)
            self.health.note_failure(tenant)
            if isinstance(ticket.error, BudgetExceeded):
                # Attribute the overrun to the owner stamped on the
                # budget, which names the originating request.
                owner = getattr(ticket.error, "owner", None) or ticket.owner
                self.metrics.note_budget_trip(
                    owner.split("/")[0],
                    owner=owner,
                    kind=getattr(ticket.error, "kind", None),
                )

    # ------------------------------------------------------------------
    # Observability

    def cache_stats(self) -> Dict[str, dict]:
        return {name: cache.stats() for name, cache in sorted(self._caches.items())}

    def health_report(self) -> dict:
        """The JSON-ready health section: ladder state, per-tenant
        breakers, EWMAs, the metrics' failure/stale/degraded/refresh
        totals, chaos injections."""
        totals = self.metrics.totals()
        monitor = self.health.as_dict()
        monitor.update(
            failures=totals["failed"],
            stale_serves=totals["stale_serves"],
            degraded_answers=totals["degraded"],
            refreshes=totals["refreshes"],
            refresh_failures=totals["refresh_failures"],
        )
        payload = {
            "monitor": monitor,
            "breakers": {
                name: breaker.as_dict()
                for name, breaker in sorted(self.health.breakers.items())
            },
            "watchdog_seconds": self.watchdog_seconds,
            "pending_refreshes": len(self._pending_refreshes),
        }
        if self.brownout is not None:
            payload["brownout"] = self.brownout.as_dict()
        if self.chaos is not None:
            payload["chaos"] = self.chaos.as_dict()
        return payload

    def describe(self) -> dict:
        payload = self.metrics.as_dict()
        payload["backlog"] = self.admission.backlog()
        payload["engine"] = self.engine
        payload["snapshots"] = {
            "active_pins": self.snapshots.active_pins,
            "frozen_copies": self.snapshots.frozen_copies,
            "epoch": self.snapshots.epoch,
        }
        payload["health"] = self.health_report()
        return payload


__all__ = ["QueryService"]
