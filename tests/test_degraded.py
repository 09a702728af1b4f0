"""Degraded-mode serving: the brownout ladder, health-gated admission,
stale-while-revalidate, the watchdog, and the service-level chaos
adapter.

Everything here is seeded and :class:`~repro.resilience.clock.FakeClock`
driven — the chaos-serving CI matrix replays this file under several
``REPRO_CHAOS_SEED`` × ``PYTHONHASHSEED`` pairs.  Covered:

* the ladder: one level per round under pressure, hysteresis band
  holds, de-escalation needs ``recovery_rounds`` consecutive clear
  rounds, the refresh-failure canary blocks recovery, budgets tighten
  at partial-answers and above;
* health-gated admission: shed-new-work refuses with a retry hint,
  per-tenant breakers quarantine a pathological tenant without
  escalating the ladder for everyone else, breaker sheds carry the
  cooldown as ``retry_after``;
* stale-while-revalidate: expired entries served flagged and
  subset-correct, single-flight refreshes, the freshness window bound;
* the watchdog: a hard wall-clock ceiling min'd into every budget;
* the chaos adapter: seeded determinism, disarmed draws not consumed,
  injected latency on the service clock;
* hypothesis properties: degraded/stale answers are never cached as
  fresh entries, and a stale serve never outlives the policy's epoch
  window;
* an availability mini-scenario (E19 in miniature).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QueryAnswerer
from repro.query import parse_query
from repro.rdf import Graph, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple
from repro.resilience.breaker import CLOSED, OPEN
from repro.resilience.clock import FakeClock
from repro.resilience.errors import (
    BudgetExceeded,
    EndpointOutage,
    TransientEndpointError,
)
from repro.resilience.faults import FaultPlan
from repro.service import (
    AdmissionRejected,
    BrownoutController,
    BrownoutPolicy,
    DONE,
    FAILED,
    HealthMonitor,
    HealthSignals,
    LEVEL_NAMES,
    NORMAL,
    PARTIAL_ANSWERS,
    QueryRequest,
    QueryService,
    REASON_BROWNOUT,
    REASON_TENANT_BREAKER,
    SHED_NEW_WORK,
    STALE_SERVING,
    ServiceChaos,
    TenantConfig,
)

#: The CI chaos-matrix seed convention (same as the resilience tests).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

EX = Namespace("http://example.org/degraded/")

STUDENT_QUERY = (
    "SELECT ?x WHERE { ?x rdf:type <http://example.org/degraded/Student> }"
)


def tiny_dataset():
    """Two students (one via subclass entailment) and a student query."""
    graph = Graph()
    graph.add(Triple(EX.Grad, RDFS_SUBCLASSOF, EX.Student))
    graph.add(Triple(EX.alice, RDF_TYPE, EX.Grad))
    graph.add(Triple(EX.bob, RDF_TYPE, EX.Student))
    return graph, parse_query(STUDENT_QUERY)


def signals(**overrides):
    return HealthSignals(**overrides)


def make_service(graph, *, clock=None, **kwargs):
    clock = clock if clock is not None else FakeClock(auto_advance=0.001)
    kwargs.setdefault("tenants", ["solo"])
    kwargs.setdefault("capacity", 2)
    return QueryService(graph, clock=clock, **kwargs)


def round_trip(service, tenant, query, **kwargs):
    """Submit one request and run one scheduling round."""
    ticket = service.submit(QueryRequest(tenant, query, **kwargs))
    service.step()
    return ticket


#: Writes the student query's footprint matches, each leaving its
#: answer unchanged: re-typing a student through ``Grad`` or
#: ``Student``, then undoing the first.
BUMPS = [
    ("insert", Triple(EX.bob, RDF_TYPE, EX.Grad)),
    ("insert", Triple(EX.alice, RDF_TYPE, EX.Student)),
    ("delete", Triple(EX.bob, RDF_TYPE, EX.Grad)),
]


def bump_epoch(service, bump):
    """The *bump*-th write of :data:`BUMPS`: expires the student
    query's cached answer, changes no query's result."""
    action, triple = BUMPS[bump]
    assert getattr(service, action)(triple)


# ---------------------------------------------------------------------------
# The ladder itself (synthetic signals, no service)


class TestBrownoutLadder:
    def test_escalates_one_level_per_round_and_saturates(self):
        ladder = BrownoutController(clock=FakeClock())
        pressured = signals(failure_fraction=1.0)
        levels = [ladder.observe(pressured) for _ in range(6)]
        assert levels == [1, 2, 3, 3, 3, 3]
        assert ladder.level == SHED_NEW_WORK
        assert all(t[2] - t[1] == 1 for t in ladder.transitions)

    def test_each_signal_escalates_and_is_named_in_the_reason(self):
        for kwargs, needle in [
            (dict(queue_fraction=0.9), "queue"),
            (dict(latency_ewma=1.0), "latency"),
            (dict(shed_fraction=0.9), "shed"),
            (dict(failure_fraction=0.9), "failures"),
        ]:
            ladder = BrownoutController(clock=FakeClock())
            assert ladder.observe(signals(**kwargs)) == PARTIAL_ANSWERS
            assert needle in ladder.transitions[-1][3]

    def test_recovery_needs_consecutive_clear_rounds(self):
        ladder = BrownoutController(
            BrownoutPolicy(recovery_rounds=3), clock=FakeClock()
        )
        ladder.force(STALE_SERVING)
        clear = signals()
        assert ladder.observe(clear) == STALE_SERVING
        assert ladder.observe(clear) == STALE_SERVING
        assert ladder.observe(clear) == PARTIAL_ANSWERS  # 3rd clear round
        # The streak restarts per level: two more clears hold.
        assert ladder.observe(clear) == PARTIAL_ANSWERS
        assert ladder.observe(clear) == PARTIAL_ANSWERS
        assert ladder.observe(clear) == NORMAL

    def test_hysteresis_band_holds_level_and_resets_streak(self):
        policy = BrownoutPolicy(
            failure_high=0.5, clear_factor=0.5, recovery_rounds=2
        )
        ladder = BrownoutController(policy, clock=FakeClock())
        ladder.force(STALE_SERVING)
        # 0.3 is under failure_high (no escalation) but over
        # clear_factor * failure_high = 0.25 (not clear): the band.
        band = signals(failure_fraction=0.3)
        clear = signals()
        assert ladder.observe(clear) == STALE_SERVING  # streak 1
        assert ladder.observe(band) == STALE_SERVING  # streak reset
        assert ladder.observe(clear) == STALE_SERVING  # streak 1 again
        assert ladder.observe(clear) == PARTIAL_ANSWERS

    def test_refresh_canary_blocks_recovery_without_escalating(self):
        ladder = BrownoutController(
            BrownoutPolicy(recovery_rounds=1), clock=FakeClock()
        )
        ladder.force(STALE_SERVING)
        # Every user-visible signal is clear, but refreshes still fail:
        # the fault is merely masked, so the ladder must hold.
        canary = signals(refresh_failure_fraction=1.0)
        for _ in range(5):
            assert ladder.observe(canary) == STALE_SERVING
        assert ladder.observe(signals()) == PARTIAL_ANSWERS

    def test_effective_budgets_tighten_only_at_partial_answers(self):
        ladder = BrownoutController(
            BrownoutPolicy(budget_factor=0.5), clock=FakeClock()
        )
        ladder.force(NORMAL)
        assert ladder.effective_budgets(100, 2.0) == (100, 2.0)
        ladder.force(PARTIAL_ANSWERS)
        assert ladder.effective_budgets(100, 2.0) == (50, 1.0)
        assert ladder.effective_budgets(1, None) == (1, None)  # floor at 1
        explicit = BrownoutController(
            BrownoutPolicy(degraded_row_budget=7, degraded_time_budget=0.25),
            clock=FakeClock(),
        )
        explicit.force(STALE_SERVING)
        assert explicit.effective_budgets(100, 2.0) == (7, 0.25)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BrownoutPolicy(clear_factor=0.0)
        with pytest.raises(ValueError):
            BrownoutPolicy(recovery_rounds=0)
        with pytest.raises(ValueError):
            BrownoutPolicy(stale_max_epochs=0)

    def test_force_is_audited(self):
        ladder = BrownoutController(clock=FakeClock())
        ladder.force(SHED_NEW_WORK, "operator drill")
        assert ladder.shed_new_work
        payload = ladder.as_dict()
        assert payload["transitions"][-1]["reason"] == "operator drill"
        assert payload["level_name"] == "shed-new-work"

    def test_every_rung_gives_something_up(self):
        """Each level above NORMAL changes at least one thing the
        service reads off the ladder, so a no-op rung cannot creep
        back in."""

        def observable(level):
            ladder = BrownoutController(clock=FakeClock())
            ladder.force(level)
            return (
                ladder.allow_partial,
                ladder.serve_stale,
                ladder.shed_new_work,
                ladder.effective_budgets(100, 2.0),
            )

        assert LEVEL_NAMES == (
            "normal",
            "partial-answers",
            "stale-serving",
            "shed-new-work",
        )
        for level in range(NORMAL + 1, len(LEVEL_NAMES)):
            assert observable(level) != observable(level - 1), LEVEL_NAMES[level]


# ---------------------------------------------------------------------------
# Health monitor (unit)


class TestHealthMonitor:
    def test_round_counters_fold_and_reset(self):
        monitor = HealthMonitor(
            ["a"], total_queue_depth=4, clock=FakeClock()
        )
        monitor.note_submitted()
        monitor.note_submitted()
        monitor.note_shed()
        monitor.note_completed("a", 0.1)
        monitor.note_failure("a")
        first = monitor.end_round(backlog=2)
        assert first.attempts == 2
        assert first.failure_fraction == pytest.approx(0.5)
        assert first.shed_fraction == pytest.approx(0.5)
        assert first.queue_fraction == pytest.approx(0.5)
        assert first.failure_rounds == 1
        # A quiet round decays the EWMAs and clears the failure streak.
        second = monitor.end_round(backlog=0)
        assert second.attempts == 0
        assert second.failure_fraction == 0.0
        assert second.failure_rounds == 0
        assert second.shed_fraction < first.shed_fraction

    def test_stale_completions_do_not_reset_the_breaker(self):
        monitor = HealthMonitor(
            ["a"], clock=FakeClock(), breaker_threshold=3
        )
        monitor.note_failure("a")
        monitor.note_failure("a")
        # A stale serve answers the tenant without touching the
        # backend — it must not be evidence the backend recovered.
        monitor.note_completed("a", 0.01, stale=True)
        monitor.note_failure("a")
        assert monitor.breaker_for("a").state == OPEN
        # A genuine completion does reset.
        fresh = HealthMonitor(["b"], clock=FakeClock(), breaker_threshold=3)
        fresh.note_failure("b")
        fresh.note_failure("b")
        fresh.note_completed("b", 0.01)
        fresh.note_failure("b")
        assert fresh.breaker_for("b").state == CLOSED

    def test_refresh_failures_feed_the_canary_not_the_breakers(self):
        monitor = HealthMonitor(
            ["a"], clock=FakeClock(), breaker_threshold=1
        )
        monitor.note_refresh(ok=False)
        assert monitor.breaker_for("a").state == CLOSED
        round_signals = monitor.end_round(backlog=0)
        assert round_signals.refresh_failure_fraction == 1.0
        assert round_signals.failure_fraction == 0.0


# ---------------------------------------------------------------------------
# The serving loop under the ladder


class TestDegradedService:
    def test_ladder_climbs_serves_stale_then_recovers(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, transient_rate=1.0),
            clock=clock,
            armed=False,
        )
        service = make_service(
            graph,
            clock=clock,
            brownout=BrownoutPolicy(recovery_rounds=1),
            chaos=chaos,
            breaker_threshold=0,
        )
        truth = sorted(QueryAnswerer(graph).answer(query).answer)
        warm = round_trip(service, "solo", query)
        assert warm.status == DONE and warm.cache == "miss"
        bump_epoch(service, 0)
        chaos.arm()
        # Two failing rounds climb NORMAL → STALE_SERVING...
        failures = [round_trip(service, "solo", query) for _ in range(2)]
        assert [t.status for t in failures] == [FAILED] * 2
        assert all(
            isinstance(t.error, TransientEndpointError) for t in failures
        )
        assert service.brownout.level == STALE_SERVING
        # ...then the expired warm entry answers, flagged, subset-true,
        # while the (failing) refresh canary holds the level.
        stale = round_trip(service, "solo", query)
        assert stale.status == DONE and stale.cache == "stale"
        assert stale.stale and not stale.degraded
        assert stale.report.details["stale"]["age_epochs"] == 1
        assert sorted(stale.answer) == truth
        assert service.brownout.level == STALE_SERVING
        assert service.metrics.totals()["refresh_failures"] >= 1
        # Fault clears: the refresh succeeds and stores a fresh entry,
        # and the ladder walks all the way back down.
        chaos.disarm()
        recovered = round_trip(service, "solo", query)
        assert recovered.status == DONE
        for _ in range(6):
            service.step()
        assert service.brownout.level == NORMAL
        fresh = round_trip(service, "solo", query)
        assert fresh.cache == "hit" and not fresh.stale
        assert sorted(fresh.answer) == truth
        # The audit trail shows the full round trip.
        trail = [(t["from"], t["to"]) for t in service.brownout.as_dict()["transitions"]]
        assert (1, 2) in trail and (1, 0) in trail

    def test_shed_new_work_refuses_with_retry_hint(self):
        graph, query = tiny_dataset()
        service = make_service(graph, brownout=True)
        service.brownout.force(SHED_NEW_WORK, "test")
        with pytest.raises(AdmissionRejected) as caught:
            service.submit(QueryRequest("solo", query))
        exc = caught.value
        assert exc.reason == REASON_BROWNOUT
        assert exc.retry_after is not None
        assert exc.diagnostics()["reason"] == REASON_BROWNOUT
        assert service.metrics.tenants["solo"].shed[REASON_BROWNOUT] == 1
        # Brownout sheds are the remedy, not overload evidence: they
        # must not feed the shed signal that escalates the ladder.
        round_signals = service.health.end_round(backlog=0)
        assert round_signals.shed_fraction == 0.0

    def test_breaker_quarantines_one_tenant_without_degrading_others(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        service = make_service(
            graph,
            clock=clock,
            tenants=[
                TenantConfig("good"),
                # A row budget the 2-row answer always exceeds: every
                # request of this tenant fails deterministically.
                TenantConfig("bad", request_rows=1),
            ],
            brownout=True,
            breaker_threshold=3,
            breaker_cooldown=5.0,
        )
        for _ in range(3):
            good = service.submit(QueryRequest("good", query))
            bad = service.submit(QueryRequest("bad", query))
            service.step()
            assert good.status == DONE
            assert bad.status == FAILED
            assert isinstance(bad.error, BudgetExceeded)
        assert service.health.breaker_for("bad").state == OPEN
        assert service.health.breaker_for("good").state == CLOSED
        # The pathological tenant is shed at the door, cooldown as the
        # retry hint...
        with pytest.raises(AdmissionRejected) as caught:
            service.submit(QueryRequest("bad", query))
        assert caught.value.reason == REASON_TENANT_BREAKER
        assert 0 < caught.value.retry_after <= 5.0
        # ...while the other tenant still gets NORMAL service: the bad
        # tenant's failures never exceeded the global failure_high.
        assert service.brownout.level == NORMAL
        assert round_trip(service, "good", query).status == DONE
        # After the cooldown the breaker re-admits (half-open probe).
        clock.sleep(5.0)
        probe = service.submit(QueryRequest("bad", query))
        assert probe is not None
        # Budget attribution survived the quarantine: the overruns name
        # the bad tenant's own requests.
        bucket = service.metrics.tenants["bad"]
        assert bucket.failures_by_reason == {"BudgetExceeded": 3}
        assert bucket.aborted.get("rows") == 3
        assert all(owner.startswith("bad/req-") for owner in bucket.aborted_requests)

    def test_degraded_partials_are_flagged_subsets_and_never_cached(self):
        graph, query = tiny_dataset()
        truth = sorted(QueryAnswerer(graph, engine="columnar").answer(query).answer)
        service = make_service(
            graph,
            engine="columnar",
            brownout=BrownoutPolicy(degraded_row_budget=1),
            breaker_threshold=0,
        )
        service.brownout.force(PARTIAL_ANSWERS, "test")
        partial = round_trip(service, "solo", query)
        assert partial.status == DONE and partial.degraded
        assert partial.report.details["partial"]
        # The 1-row degraded budget trips mid-evaluation; the flagged
        # answer is whatever emitted before the trip — always a strict
        # subset, possibly empty.
        assert len(partial.answer) < len(truth)
        assert set(partial.answer) < set(truth)
        assert service.metrics.tenants["solo"].degraded == 1
        # Back at NORMAL the same query must recompute in full — the
        # truncated answer was never written into the cache.
        service.brownout.force(NORMAL, "test")
        full = round_trip(service, "solo", query)
        assert full.cache == "miss" and not full.degraded
        assert sorted(full.answer) == truth

    def test_stale_window_is_bounded_by_policy(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, transient_rate=1.0),
            clock=clock,
            armed=False,
        )
        service = make_service(
            graph,
            clock=clock,
            brownout=BrownoutPolicy(stale_max_epochs=1),
            chaos=chaos,
            breaker_threshold=0,
        )
        round_trip(service, "solo", query)
        bump_epoch(service, 0)
        bump_epoch(service, 1)
        service.brownout.force(STALE_SERVING, "test")
        chaos.arm()
        # The warm entry is now 2 epochs old — outside the window, so
        # the service must fail rather than serve it.
        too_old = round_trip(service, "solo", query)
        assert too_old.status == FAILED

    def test_stale_refresh_is_single_flight(self):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, transient_rate=1.0),
            clock=clock,
            armed=False,
        )
        # refreshes_per_round=0: scheduled refreshes stay pending, so
        # the single-flight guard is observable across rounds.
        service = make_service(
            graph,
            clock=clock,
            tenants=[TenantConfig("solo", queue_depth=8)],
            brownout=BrownoutPolicy(refreshes_per_round=0),
            chaos=chaos,
            breaker_threshold=0,
        )
        round_trip(service, "solo", query)
        bump_epoch(service, 0)
        service.brownout.force(STALE_SERVING, "test")
        chaos.arm()
        first = round_trip(service, "solo", query)
        second = round_trip(service, "solo", query)
        assert first.cache == second.cache == "stale"
        assert first.report.details["stale"]["refresh_scheduled"] is True
        assert second.report.details["stale"]["refresh_scheduled"] is False
        assert service.health_report()["pending_refreshes"] == 1

    def test_watchdog_caps_every_time_budget(self):
        graph, query = tiny_dataset()
        service = make_service(
            graph,
            tenants=[
                TenantConfig("capped", request_seconds=10.0),
                TenantConfig("unbounded"),
            ],
            watchdog_seconds=0.5,
        )
        capped = service._budget_kwargs(
            service.admission.tenants["capped"], "capped/req-1", degrade=False
        )
        assert capped["time_budget"] == 0.5  # min(10.0, watchdog)
        unbounded = service._budget_kwargs(
            service.admission.tenants["unbounded"], "unbounded/req-2", degrade=False
        )
        assert unbounded["time_budget"] == 0.5  # watchdog alone
        assert unbounded["budget_owner"] == "unbounded/req-2"
        # A tighter tenant budget wins over a looser watchdog.
        service.watchdog_seconds = 60.0
        loose = service._budget_kwargs(
            service.admission.tenants["capped"], "capped/req-3", degrade=False
        )
        assert loose["time_budget"] == 10.0

    def test_watchdog_rejects_nonpositive_and_skips_sqlite(self):
        graph, query = tiny_dataset()
        with pytest.raises(ValueError):
            make_service(graph, watchdog_seconds=0.0)
        sqlite_service = make_service(
            graph, engine="sqlite", watchdog_seconds=0.5
        )
        # SQLite evaluations cannot carry execution budgets; the
        # watchdog must not smuggle one in.
        kwargs = sqlite_service._budget_kwargs(
            sqlite_service.admission.tenants["solo"], "solo/req-1", degrade=False
        )
        assert kwargs == {}
        assert round_trip(sqlite_service, "solo", query).status == DONE

    def test_health_report_shape(self):
        graph, query = tiny_dataset()
        service = make_service(graph, brownout=True, watchdog_seconds=2.0)
        round_trip(service, "solo", query)
        report = service.describe()["health"]
        assert report["watchdog_seconds"] == 2.0
        assert report["pending_refreshes"] == 0
        assert report["monitor"]["rounds"] == 1
        assert report["brownout"]["level_name"] == "normal"
        breaker = report["breakers"]["solo"]
        assert breaker["state"] == CLOSED
        assert breaker["cooldown_remaining"] == 0.0


# ---------------------------------------------------------------------------
# The chaos adapter


class TestServiceChaos:
    def test_same_seed_replays_the_same_fault_schedule(self):
        def run():
            chaos = ServiceChaos(
                FaultPlan(seed=CHAOS_SEED + 1, transient_rate=0.5),
                clock=FakeClock(),
            )
            outcomes = []
            for _ in range(20):
                try:
                    chaos.maybe_fail()
                except TransientEndpointError:
                    outcomes.append("fault")
                else:
                    outcomes.append("ok")
            return outcomes, chaos.as_dict()["injected"]

        assert run() == run()

    def test_disarmed_calls_consume_no_draws(self):
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, transient_rate=1.0),
            clock=FakeClock(),
            armed=False,
        )
        for _ in range(5):
            chaos.maybe_fail()  # no-ops: the fault window is closed
        assert chaos.plan.requests_seen == 0
        chaos.arm()
        with pytest.raises(TransientEndpointError):
            chaos.maybe_fail()
        assert chaos.plan.requests_seen == 1
        assert chaos.as_dict()["injected"]["transient"] == 1

    def test_outage_injection(self):
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, outage_after=0), clock=FakeClock()
        )
        with pytest.raises(EndpointOutage):
            chaos.maybe_fail()
        assert chaos.as_dict()["injected"]["outage"] == 1

    def test_latency_is_slept_on_the_service_clock(self):
        clock = FakeClock()
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, latency_rate=1.0, latency_seconds=0.25),
            clock=clock,
        )
        before = clock.monotonic()
        chaos.maybe_fail()  # latency only: the request still succeeds
        assert clock.monotonic() - before == pytest.approx(0.25)
        assert chaos.as_dict()["injected"]["latency"] == 1


# ---------------------------------------------------------------------------
# Freshness-contract properties


class TestFreshnessProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        bumps=st.integers(min_value=1, max_value=3),
        window=st.integers(min_value=1, max_value=2),
    )
    def test_stale_serves_never_outlive_the_epoch_window(self, bumps, window):
        """A stale serve happens iff the entry's age fits the policy
        window — and afterwards, the entry is never promoted to fresh:
        once the fault clears, the same query recomputes exactly."""
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, transient_rate=1.0),
            clock=clock,
            armed=False,
        )
        service = make_service(
            graph,
            clock=clock,
            brownout=BrownoutPolicy(
                stale_max_epochs=window, refreshes_per_round=0
            ),
            chaos=chaos,
            breaker_threshold=0,
        )
        truth = sorted(QueryAnswerer(graph).answer(query).answer)
        warm = round_trip(service, "solo", query)
        assert warm.status == DONE
        for bump in range(bumps):
            bump_epoch(service, bump)
        service.brownout.force(STALE_SERVING, "property")
        chaos.arm()
        probe = round_trip(service, "solo", query)
        if bumps <= window:
            assert probe.status == DONE and probe.stale
            assert probe.report.details["stale"]["age_epochs"] == bumps
            assert set(probe.answer) <= set(truth)
        else:
            # Outside the window: failing honestly beats serving an
            # answer of unbounded age.
            assert probe.status == FAILED
        # Fault over: the stale entry must not satisfy a fresh lookup.
        chaos.disarm()
        service.brownout.force(NORMAL, "property")
        fresh = round_trip(service, "solo", query)
        assert fresh.status == DONE
        assert not fresh.stale and not fresh.degraded
        assert fresh.cache == "miss"  # recomputed, not served stale
        assert sorted(fresh.answer) == truth

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        row_budget=st.integers(min_value=1, max_value=2),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_degraded_partials_never_become_cache_entries(
        self, row_budget, repeats
    ):
        """However many truncated answers go out under partial-answers
        mode, the cache never holds one: the first NORMAL-level request
        recomputes the exact answer."""
        graph, query = tiny_dataset()
        service = make_service(
            graph,
            engine="columnar",
            tenants=[TenantConfig("solo", queue_depth=8)],
            brownout=BrownoutPolicy(degraded_row_budget=row_budget),
            breaker_threshold=0,
        )
        truth = sorted(
            QueryAnswerer(graph, engine="columnar").answer(query).answer
        )
        service.brownout.force(PARTIAL_ANSWERS, "property")
        any_degraded = False
        for _ in range(repeats):
            ticket = round_trip(service, "solo", query)
            assert ticket.status == DONE
            if ticket.degraded:
                any_degraded = True
                assert set(ticket.answer) < set(truth)
            else:
                # The degraded budget happened to fit the full answer —
                # an unflagged (and cacheable) exact response.
                assert sorted(ticket.answer) == truth
        service.brownout.force(NORMAL, "property")
        full = round_trip(service, "solo", query)
        assert full.status == DONE and not full.degraded
        assert sorted(full.answer) == truth
        if any_degraded:
            # Identical requests under the same budget degrade
            # identically, so nothing was cached: the NORMAL-level
            # request had to recompute.
            assert full.cache == "miss"
        # And the exact answer *is* cached thereafter.
        assert round_trip(service, "solo", query).cache == "hit"


# ---------------------------------------------------------------------------
# Availability (E19 in miniature)


class TestAvailabilityScenario:
    def _run(self, ladder):
        graph, query = tiny_dataset()
        clock = FakeClock(auto_advance=0.001)
        chaos = ServiceChaos(
            FaultPlan(seed=CHAOS_SEED, transient_rate=1.0),
            clock=clock,
            armed=False,
        )
        service = make_service(
            graph,
            clock=clock,
            tenants=[TenantConfig("solo", queue_depth=8)],
            brownout=BrownoutPolicy(recovery_rounds=1) if ladder else None,
            chaos=chaos,
            breaker_threshold=0,
        )
        round_trip(service, "solo", query)
        bump_epoch(service, 0)
        chaos.arm()
        for _ in range(6):
            round_trip(service, "solo", query)
        chaos.disarm()
        for _ in range(5):
            round_trip(service, "solo", query)
        service.drain()
        totals = service.metrics.totals()
        return service, totals["completed"] / totals["submitted"]

    def test_ladder_strictly_improves_availability(self):
        with_ladder, ladder_availability = self._run(ladder=True)
        bare, bare_availability = self._run(ladder=False)
        assert ladder_availability > bare_availability
        assert with_ladder.metrics.totals()["stale_serves"] > 0
        assert with_ladder.brownout.level == NORMAL  # recovered

    def test_scenario_replays_identically(self):
        first, _ = self._run(ladder=True)
        second, _ = self._run(ladder=True)
        assert first.metrics.totals() == second.metrics.totals()
        assert (first.brownout.as_dict()["transitions"]
                == second.brownout.as_dict()["transitions"])
