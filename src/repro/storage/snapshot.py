"""Epoch-pinned snapshot reads: copy-on-write over the store.

A serving layer answers many queries while bulk loads and saturation
rounds mutate the store underneath them.  :class:`SnapshotManager`
gives readers a stable view without blocking writers:

* :meth:`~SnapshotManager.pin` is O(1) — it records the store's current
  *state epoch* and hands back a :class:`StoreSnapshot`;
* the first write after a pin pays one copy: the pre-write state is
  frozen with :meth:`~repro.storage.store.TripleStore.copy` (array
  slices of the sorted runs plus copies of the dictionary, statistics
  and schema), so the frozen store equals the live one at the pin and
  a pinned query plans exactly as it would have then;
* every pin taken at the same epoch shares that one frozen copy, and
  it is dropped as soon as the last pin releases.

Writers are intercepted through the store's *pre*-mutation listeners
(:meth:`~repro.storage.store.TripleStore.add_pre_listener`): the copy
is taken before the write applies, so a pinned reader can never
observe a concurrent bulk load, update, or saturation round — it reads
either the live store (nothing changed since the pin) or the frozen
pre-write state.

Thread-safe: pin/release and the write hooks run under one lock.  The
hooks fire even for writes that turn out to be no-ops (the pre-hook
cannot know); a no-op write may therefore materialize a copy that
equals the live state — conservative, never incorrect.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from .store import TripleStore


class StoreSnapshot:
    """A pinned, epoch-stamped read handle on one store state.

    Usable as a context manager; :meth:`store` returns the
    :class:`TripleStore` holding exactly the pinned state for as long
    as the pin is held.
    """

    def __init__(self, manager: "SnapshotManager", epoch: int, label=None):
        self._manager = manager
        self.epoch = epoch
        #: An opaque caller-provided stamp (e.g. the durable store's
        #: ``(data_epoch, schema_epoch)`` pair at pin time).
        self.label = label
        self.released = False

    def store(self) -> TripleStore:
        """The store as of the pinned epoch (live or frozen)."""
        return self._manager._resolve(self)

    def release(self) -> None:
        """Unpin; idempotent.  The last release of an epoch frees its
        frozen copy."""
        if not self.released:
            self.released = True
            self._manager._release(self)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return "StoreSnapshot(epoch=%d%s%s)" % (
            self.epoch,
            ", label=%r" % (self.label,) if self.label is not None else "",
            ", released" if self.released else "",
        )


class SnapshotManager:
    """Copy-on-write snapshot bookkeeping for one :class:`TripleStore`.

    >>> from repro.rdf import Namespace, RDF_TYPE, Triple, Graph
    >>> EX = Namespace("http://example.org/")
    >>> store = TripleStore.from_graph(Graph([Triple(EX.a, RDF_TYPE, EX.C)]))
    >>> manager = SnapshotManager(store)
    >>> with manager.pin() as snapshot:
    ...     _ = store.insert(Triple(EX.b, RDF_TYPE, EX.C))
    ...     (snapshot.store().triple_count, store.triple_count)
    (1, 2)
    """

    def __init__(
        self,
        store: TripleStore,
        label_fn: Optional[Callable[[], object]] = None,
    ):
        self.store = store
        self._label_fn = label_fn
        self._lock = threading.RLock()
        #: The state epoch: bumped on every (attempted) write while the
        #: manager watches the store.
        self.epoch = 0
        self._pins: Dict[int, int] = {}
        self._frozen: Dict[int, TripleStore] = {}
        store.add_pre_listener(self._before_write)

    # ------------------------------------------------------------------

    def pin(self) -> StoreSnapshot:
        """Pin the current state; O(1), no copying."""
        with self._lock:
            label = self._label_fn() if self._label_fn is not None else None
            self._pins[self.epoch] = self._pins.get(self.epoch, 0) + 1
            return StoreSnapshot(self, self.epoch, label)

    @property
    def active_pins(self) -> int:
        with self._lock:
            return sum(self._pins.values())

    @property
    def frozen_copies(self) -> int:
        """How many materialized pre-write copies are currently held —
        the copy-on-write cost witness (0 until a write lands under a
        pin)."""
        with self._lock:
            return len(self._frozen)

    def pinned_at(self, epoch: int) -> int:
        """How many pins are held at *epoch* (0 when none)."""
        with self._lock:
            return self._pins.get(epoch, 0)

    def prepare_write(self) -> None:
        """Freeze the current state for active pins *now*, ahead of a
        compound mutation.  The per-triple hooks would freeze at the
        first triple write anyway; callers mutating state the hooks
        cannot see first (schema constraints, whose entailed triples
        land only afterwards) invoke this to pin the genuinely
        pre-write view."""
        self._before_write(None, "prepare")

    # ------------------------------------------------------------------
    # Store hooks and resolution

    def _before_write(self, _triple, _operation) -> None:
        with self._lock:
            if self._pins.get(self.epoch) and self.epoch not in self._frozen:
                self._frozen[self.epoch] = self.store.copy()
            # Every write attempt opens a new epoch: later pins must
            # never share a frozen copy taken before this write.
            self.epoch += 1

    def _resolve(self, snapshot: StoreSnapshot) -> TripleStore:
        if snapshot.released:
            raise ValueError("snapshot %r was released" % (snapshot,))
        with self._lock:
            frozen = self._frozen.get(snapshot.epoch)
            if frozen is not None:
                return frozen
            # No write happened since the pin: the live store *is* the
            # pinned state.
            return self.store

    def _release(self, snapshot: StoreSnapshot) -> None:
        with self._lock:
            remaining = self._pins.get(snapshot.epoch, 0) - 1
            if remaining > 0:
                self._pins[snapshot.epoch] = remaining
            else:
                self._pins.pop(snapshot.epoch, None)
                self._frozen.pop(snapshot.epoch, None)

    def __repr__(self) -> str:
        return "SnapshotManager(epoch=%d, pins=%d, frozen=%d)" % (
            self.epoch,
            self.active_pins,
            self.frozen_copies,
        )
