"""The worker pool and the thread-safety contracts.

Three layers of coverage:

* the primitives — :class:`~repro.parallel.pool.ExecutorPool` ordering,
  inline degradation, cancel-on-first-failure;
* the shared mutable state threads may touch — one
  :class:`~repro.resilience.budget.ExecutionBudget` charged from many
  threads trips exactly once, the cache's single-flight gate computes
  a missed key exactly once, the LRU survives concurrent hammering;
* the determinism contract — federation produces identical results
  with and without its per-endpoint fan-out.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import BudgetExceeded, ExecutionBudget
from repro.cache import LRUCache, QueryCache
from repro.datasets import lubm_queries, lubm_schema
from repro.federation import Endpoint, FederatedAnswerer
from repro.parallel import ExecutorPool, pool_for, primary_error
from repro.parallel.pool import shared_pool
from repro.rdf import Graph


@pytest.fixture
def pool():
    with ExecutorPool(workers=4) as pool:
        yield pool


# ---------------------------------------------------------------------------
# ExecutorPool


class TestExecutorPool:
    def test_map_preserves_item_order(self, pool):
        # Reverse sleeps so completion order inverts submission order;
        # results must still come back in item order.
        items = list(range(8))
        results = pool.map(
            lambda i: (time.sleep((7 - i) * 0.005), i * i)[1], items
        )
        assert results == [i * i for i in items]

    def test_serial_pool_runs_inline(self):
        pool = ExecutorPool(workers=1)
        assert pool.serial
        assert not pool.usable()
        calling_thread = threading.get_ident()
        idents = pool.map(lambda _: threading.get_ident(), range(4))
        assert set(idents) == {calling_thread}

    def test_workers_actually_fan_out(self, pool):
        idents = set(pool.map(lambda _: (time.sleep(0.02), threading.get_ident())[1], range(4)))
        assert threading.get_ident() not in idents
        assert len(idents) > 1

    def test_scatter_cancels_pending_on_first_failure(self):
        executed = []
        lock = threading.Lock()

        def record(i):
            time.sleep(0.03)
            with lock:
                executed.append(i)
            return i

        def fail():
            raise ValueError("first failure wins")

        with ExecutorPool(workers=2) as pool:
            tasks = [fail] + [lambda i=i: record(i) for i in range(20)]
            with pytest.raises(ValueError, match="first failure wins"):
                pool.scatter(tasks)
        # The failure cancelled the queue: at most the tasks already on
        # a worker (plus a scheduling-race straggler) ever ran.
        assert len(executed) < 10

    def test_nested_fanout_degrades_inline(self, pool):
        outer_thread = threading.get_ident()

        def nested():
            # Inside a worker the pool refuses to fan out again (a
            # bounded pool nesting into itself can deadlock); nested
            # map runs inline on the worker's own thread.
            assert not pool.usable()
            inner = pool.map(lambda _: threading.get_ident(), range(3))
            return threading.get_ident(), inner

        for worker, inner in pool.map(lambda _: nested(), range(2)):
            assert worker != outer_thread
            assert set(inner) == {worker}

    def test_primary_error_prefers_non_sibling(self):
        sibling = ValueError("echo")
        sibling.sibling_abort = True
        primary = ValueError("the real one")
        assert primary_error([sibling, primary]) is primary
        assert primary_error([primary, sibling]) is primary
        # All-sibling fan-outs still surface something.
        assert primary_error([sibling]) is sibling

    def test_pool_for_and_shared_pool(self):
        assert pool_for(None) is None
        assert pool_for(1) is None
        with pytest.raises(ValueError):
            pool_for(0)
        with pytest.raises(ValueError):
            ExecutorPool(workers=0)
        two = pool_for(2)
        assert two is not None and two.workers >= 2
        # The shared pool is process-wide and only ever grows.
        assert shared_pool(2) is pool_for(2)
        assert shared_pool(2).workers >= 2


# ---------------------------------------------------------------------------
# Shared budget under concurrency


class TestConcurrentBudget:
    def test_one_trip_many_sibling_aborts(self):
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

        # Every worker eventually raised; exactly one raise carries the
        # genuine overrun, the rest are marked sibling echoes of it.
        assert len(errors) == 8
        primaries = [e for e in errors if not getattr(e, "sibling_abort", False)]
        assert len(primaries) == 1
        assert primaries[0].kind == "rows"
        assert budget.tripped
        # The shared total respects the serial semantics: the primary
        # tripped at the first charge past the limit.
        assert primaries[0].rows_produced <= 500 + 10

    def test_post_trip_charges_raise_immediately(self):
        budget = ExecutionBudget(max_rows=5)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge_rows(6, operator="Scan")
        assert not getattr(info.value, "sibling_abort", False)
        for method in (budget.charge_rows, budget.probe_rows):
            with pytest.raises(BudgetExceeded) as info:
                method(1, operator="Later")
            assert info.value.sibling_abort is True
            assert info.value.kind == "rows"
        with pytest.raises(BudgetExceeded):
            budget.check_time()

    def test_probe_rows_trips_shared_budget(self):
        budget = ExecutionBudget(max_rows=100)
        budget.charge_rows(90)
        with pytest.raises(BudgetExceeded) as info:
            budget.probe_rows(20, operator="NestedLoop")
        assert info.value.kind == "rows"
        assert budget.tripped


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


class TestParallelEqualsSerial:
    def _federation(self, graph, parallelism):
        shards = [Graph() for _ in range(3)]
        for index, triple in enumerate(sorted(graph.data_triples())):
            shards[index % 3].add(triple)
        return FederatedAnswerer(
            [
                Endpoint("shard%d" % index, shard)
                for index, shard in enumerate(shards)
            ],
            lubm_schema(),
            parallelism=parallelism,
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
