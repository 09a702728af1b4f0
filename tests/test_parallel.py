"""The thread-safety contracts.

Three layers of coverage:

* the shared mutable state threads may touch — a spent
  :class:`~repro.resilience.budget.ExecutionBudget` refuses later
  charges, the cache's single-flight gate computes a missed key exactly
  once, the LRU survives concurrent hammering;
* the determinism contract — federation produces identical results
  with and without its per-endpoint fan-out;
* the fan-out's own contract — a bad ``parallelism`` is refused and an
  endpoint call's error reaches the caller unchanged.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import BudgetExceeded, ExecutionBudget
from repro.cache import LRUCache, QueryCache
from repro.datasets import lubm_queries, lubm_schema
from repro.federation import Endpoint, FederatedAnswerer
from repro.rdf import Graph


# ---------------------------------------------------------------------------
# A spent budget


class TestConcurrentBudget:
    def test_concurrent_charges_keep_one_exact_total(self):
        budget = ExecutionBudget(max_rows=500)
        barrier = threading.Barrier(8)
        errors = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                while True:
                    budget.charge_rows(10, operator="Worker")
            except BudgetExceeded as exc:
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # No charge is lost under the lock: the first overrun lands at
        # the first charge past the limit, and each other worker stops
        # at its next charge, exactly as if one thread made them all.
        assert budget.rows_charged == 510 + 7 * 10
        assert sorted(e.rows_produced for e in errors) == list(range(510, 581, 10))

    def test_post_trip_charges_raise_immediately(self):
        budget = ExecutionBudget(max_rows=5)
        with pytest.raises(BudgetExceeded):
            budget.charge_rows(6, operator="Scan")
        # The rows charged only grow, so every later charge overruns too.
        for method in (budget.charge_rows, budget.probe_rows):
            with pytest.raises(BudgetExceeded) as info:
                method(1, operator="Later")
            assert info.value.kind == "rows"

    def test_probe_rows_trips_shared_budget(self):
        budget = ExecutionBudget(max_rows=100)
        budget.charge_rows(90)
        with pytest.raises(BudgetExceeded) as info:
            budget.probe_rows(20, operator="NestedLoop")
        assert info.value.kind == "rows"
        assert info.value.rows_produced == 110


# ---------------------------------------------------------------------------
# Cache concurrency: single-flight and the locked LRU


class TestSingleFlight:
    def _key(self, cache, tag="q"):
        return ("test", tag, cache.schema_epoch)

    def test_concurrent_misses_compute_once(self):
        cache = QueryCache()
        key = self._key(cache)
        calls = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def compute():
            with lock:
                calls.append(threading.get_ident())
            time.sleep(0.05)
            return "expensive"

        outcomes = []

        def caller():
            barrier.wait()
            outcomes.append(cache.get_or_compute("reformulation", key, compute))

        threads = [threading.Thread(target=caller) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(calls) == 1
        assert all(value == "expensive" for value, _hit in outcomes)
        # Exactly the leader reports a miss; every waiter re-read a hit.
        assert sorted(hit for _value, hit in outcomes) == [False] + [True] * 5

    def test_leader_failure_releases_flight(self):
        cache = QueryCache()
        key = self._key(cache, "failing")

        def explode():
            time.sleep(0.05)
            raise RuntimeError("reformulation failed")

        results = []
        failures = []

        def leader():
            try:
                cache.get_or_compute("reformulation", key, explode)
            except RuntimeError as exc:
                failures.append(exc)

        def waiter():
            results.append(
                cache.get_or_compute("reformulation", key, lambda: "recovered")
            )

        first = threading.Thread(target=leader)
        first.start()
        time.sleep(0.01)  # let the leader claim the flight
        rest = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in rest:
            thread.start()
        first.join()
        for thread in rest:
            thread.join()

        # The leader's error reached the leader alone; a waiter was
        # re-elected and computed the value for everyone else.
        assert len(failures) == 1
        assert [value for value, _hit in results] == ["recovered"] * 3
        assert sum(1 for _value, hit in results if not hit) == 1
        # Nothing poisonous was cached along the way.
        value, hit = cache.get_or_compute(
            "reformulation", key, lambda: "unused"
        )
        assert (value, hit) == ("recovered", True)

    def test_leader_failure_reelection_scripted(self, monkeypatch):
        """The re-election path, deterministically: events script the
        exact interleaving (leader claims → waiter provably parks on
        the flight → leader fails → waiter is re-elected), with zero
        timing-dependent sleeps."""
        import repro.cache.cache as cache_module

        parked = threading.Event()

        class SignalingEvent(threading.Event):
            # A flight waiter entering wait() is *observable*, so the
            # test can order "waiter parked" before "leader fails".
            def wait(self, timeout=None):
                parked.set()
                return super().wait(timeout)

        monkeypatch.setattr(cache_module.threading, "Event", SignalingEvent)
        cache = QueryCache()
        key = self._key(cache, "scripted")
        claimed = threading.Event()
        release = threading.Event()

        def explode():
            claimed.set()
            assert release.wait(timeout=5)
            raise RuntimeError("reformulation failed")

        failures = []

        def leader():
            try:
                cache.get_or_compute("reformulation", key, explode)
            except RuntimeError as exc:
                failures.append(exc)

        results = []
        waiter_thread = threading.Thread(
            target=lambda: results.append(
                cache.get_or_compute("reformulation", key, lambda: "recovered")
            )
        )
        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert claimed.wait(timeout=5)  # 1. leader owns the flight
        waiter_thread.start()
        assert parked.wait(timeout=5)  # 2. waiter is parked on it
        release.set()  # 3. leader now fails
        leader_thread.join(timeout=5)
        waiter_thread.join(timeout=5)
        # 4. the parked waiter was re-elected: it computed (hit=False),
        # the failure stayed with the leader, the value is cached.
        assert len(failures) == 1
        assert results == [("recovered", False)]
        assert cache.get_or_compute("reformulation", key, lambda: "x") == (
            "recovered",
            True,
        )

    def test_distinct_keys_do_not_serialize(self):
        cache = QueryCache()
        started = threading.Barrier(2, timeout=5)

        def compute():
            # Both computations must be in flight at once to pass the
            # barrier: proof that single-flight is per-key.
            started.wait()
            return "v"

        outcomes = []
        threads = [
            threading.Thread(
                target=lambda k=k: outcomes.append(
                    cache.get_or_compute("reformulation", self._key(cache, k), compute)
                )
            )
            for k in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [hit for _value, hit in outcomes] == [False, False]


class TestConcurrentLRU:
    def test_hammer_stays_consistent(self):
        cache = LRUCache(capacity=32)
        errors = []

        def hammer(seed):
            try:
                for step in range(600):
                    key = (seed * 7 + step) % 64
                    if step % 29 == 0:
                        cache.invalidate()
                    elif step % 3 == 0:
                        cache.put(key, (seed, step))
                    else:
                        cache.get(key)
                        key in cache
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert len(cache) <= 32
        # Still a working cache afterwards.
        cache.put("k", "v")
        assert cache.get("k") == "v"


# ---------------------------------------------------------------------------
# Determinism contract: federation fan-out == serial


def shard_endpoints(graph, endpoint=Endpoint, count=3):
    """*graph*'s data triples dealt round-robin over *count* endpoints
    of class *endpoint*."""
    shards = [Graph() for _ in range(count)]
    for index, triple in enumerate(sorted(graph.data_triples())):
        shards[index % count].add(triple)
    return [endpoint("shard%d" % index, shard) for index, shard in enumerate(shards)]


class TestParallelEqualsSerial:
    def _federation(self, graph, parallelism):
        return FederatedAnswerer(
            shard_endpoints(graph), lubm_schema(), parallelism=parallelism
        )

    @pytest.mark.parametrize("name", ["Q2", "Q13"])
    def test_federation_identical(self, lubm_small, name):
        query = lubm_queries()[name]
        serial = self._federation(lubm_small, 1).answer(query)
        parallel = self._federation(lubm_small, 4).answer(query)
        assert parallel.rows == serial.rows
        assert parallel.complete and serial.complete
        # Request accounting is part of the contract: the fan-out must
        # issue exactly the serial sequence of endpoint calls.
        assert parallel.requests == serial.requests


class TestFederationFanOut:
    def test_parallelism_below_one_is_refused(self, lubm_small):
        with pytest.raises(ValueError, match="parallelism"):
            FederatedAnswerer(shard_endpoints(lubm_small), lubm_schema(), parallelism=0)

    def test_endpoint_calls_leave_the_calling_thread(self, lubm_small):
        threads = set()

        class Recording(Endpoint):
            def evaluate(self, query):
                threads.add(threading.get_ident())
                time.sleep(0.02)
                return super().evaluate(query)

        FederatedAnswerer(
            shard_endpoints(lubm_small, Recording), lubm_schema(), parallelism=3
        ).answer(lubm_queries()["Q13"])
        assert threading.get_ident() not in threads
        assert len(threads) > 1

    def test_endpoint_error_propagates_unchanged(self, lubm_small):
        error = KeyError("a bug inside one endpoint call")

        class Broken(Endpoint):
            def evaluate(self, query):
                raise error

        endpoints = shard_endpoints(lubm_small)
        endpoints[1] = Broken("broken", Graph())
        federation = FederatedAnswerer(endpoints, lubm_schema(), parallelism=4)
        with pytest.raises(KeyError) as info:
            federation.answer(lubm_queries()["Q2"])
        assert info.value is error
