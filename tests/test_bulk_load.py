"""Bulk loads take the store's bulk path, never one patch per triple.

Patching one triple into a sorted run is a memmove of every row after
it, so a load that patched each of its n triples would be quadratic in
n.  These tests count :meth:`SortedRunIndex.patch` calls — a
monkeypatched counter, no timing — through every bulk entry point:
``TripleStore.load``, ``DurableStore.load``, and a reopen whose
recovery replays that load from the WAL alone (its ``C+`` records, then
one run of ``T+`` records).  Each makes zero patch calls and leaves the
same triples as a plain load.
"""

from __future__ import annotations

import pytest

from repro.columnar.indexes import SortedRunIndex
from repro.datasets.lubm import LubmGenerator
from repro.durability import DurableStore
from repro.storage import TripleStore


@pytest.fixture(scope="module")
def graph():
    return LubmGenerator(seed=3).generate(universities=1)


@pytest.fixture(scope="module")
def expected(graph):
    return TripleStore.from_graph(graph).to_graph()


@pytest.fixture
def patch_calls(monkeypatch):
    calls = []
    original = SortedRunIndex.patch

    def counting(self, encoded, insert):
        calls.append(encoded)
        return original(self, encoded, insert)

    monkeypatch.setattr(SortedRunIndex, "patch", counting)
    return calls


def test_store_load_makes_no_patch_call(graph, expected, patch_calls):
    store = TripleStore()
    store.load(graph)
    assert patch_calls == []
    assert len(store) > 1000
    assert store.to_graph() == expected


def test_durable_load_and_wal_replay_make_no_patch_call(
    graph, expected, patch_calls, tmp_path
):
    directory = str(tmp_path / "db")
    durable = DurableStore.open(directory)
    records = durable.load(graph)
    durable.close()
    assert patch_calls == []
    assert records > 1000
    assert durable.store.to_graph() == expected
    reopened = DurableStore.open(directory)  # no checkpoint: WAL replay only
    assert reopened.recovery.checkpoint_sequence is None
    assert reopened.recovery.records_replayed == records
    assert patch_calls == []
    assert reopened.store.to_graph() == expected
    reopened.close()


def test_single_writes_do_patch(patch_calls):
    """The counter sees the per-triple path, so the zeros above mean
    something."""
    store = TripleStore.from_graph(
        LubmGenerator(seed=3).generate(universities=1, include_schema=False)
    )
    triple = next(iter(store.to_graph()))
    assert store.delete(triple) and store.insert(triple)
    assert len(patch_calls) == 2
