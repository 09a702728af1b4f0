"""Sorted integer-run indexes: the columnar engine's access paths.

An RDF-over-RDBMS engine keeps a triple table ``t(s, p, o)`` with
clustered/secondary indexes; the columnar engine keeps the same table
as three **sorted runs of dense integer IDs** — one per permutation the
query shapes need:

======  ==============  =========================================
order   key sequence    serves
======  ==============  =========================================
``spo`` (s, p, o)       subject-bound scans, full sorted scans
``pos`` (p, o, s)       property scans, (p, o) probes (type atoms)
``osp`` (o, s, p)       object-bound scans, (s, o) probes
======  ==============  =========================================

Each run stores its three key columns as stdlib ``array('q')`` —
contiguous 64-bit integers, no per-row Python objects — so a range
probe is two :func:`bisect.bisect` calls per bound prefix column and a
scan is an ``array`` slice (a C-level copy).  A run for a fixed prefix
is itself sorted on the remaining columns, which is what the engine's
merge joins and k-way sorted unions consume.

**Maintenance.**  A run is built lazily: the first probe of an order
sorts the store's triple set once.  After that it is kept current in
one of two ways, decided by ``TripleStore.mutation_epoch`` (bumped by
every successful encoded-level insert/delete, whatever path made it):

* *Patch.*  :meth:`TripleStore.insert`/``delete`` notify the store's
  listeners; the set's listener patches every built run in place — one
  :meth:`SortedRunIndex.range` bisect to the row, then one
  ``array.insert`` / ``del`` per column, a memmove rather than a
  re-sort — and advances the epoch the runs are current at.  It does so
  only when that write is the only one since the runs were current
  (``mutation_epoch == built_epoch + 1``); any other gap drops the runs.
* *Rebuild.*  Checkpoint restore and :meth:`TripleStore.from_encoded`
  write through ``_insert_encoded``, which bumps the epoch without
  notifying anyone, so the next probe finds the runs behind and sorts
  afresh.  WAL replay does go through ``insert``/``delete``, but
  recovery replays into a restored store whose runs were never built,
  so the first probe after recovery pays the sort.
  :meth:`TripleStore.load` invalidates up front: a bulk load pays one
  sort, not one patch per triple.

**Reader rule.**  A patch shifts rows, so a scan that read part of a
run range and is about to read the rest must not see a write in
between.  Every run scan of the engine records ``mutation_epoch`` when
it probes and raises :class:`StaleRunError` if the epoch has moved
before it emits its next chunk — a wrong answer becomes an error.  The
check cannot fire today, because no write can land inside a scan:

* ``run_columnar`` drains its whole plan within one call, and nothing
  it calls writes;
* ``QueryService.step`` is serial: it executes each ticket to the end
  before the next one, and writes are separate calls;
* a pinned ``StoreSnapshot`` that saw a write reads a separate frozen
  store (rebuilt through ``from_encoded``), not the live runs;
* federation's fan-out threads only read their endpoints' stores.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, Iterator, Optional, Tuple

#: Key sequence of each ordering, as physical positions (0=s, 1=p, 2=o).
ORDER_PERMUTATIONS: Dict[str, Tuple[int, int, int]] = {
    "spo": (0, 1, 2),
    "pos": (1, 2, 0),
    "osp": (2, 0, 1),
}


class StaleRunError(RuntimeError):
    """A run scan saw the store change between two of its chunks (a
    breach of the reader rule in the module docstring)."""


class SortedRunIndex:
    """One ordering of the triple table as three sorted ID columns."""

    __slots__ = ("name", "permutation", "columns")

    def __init__(self, name: str, triples) -> None:
        if name not in ORDER_PERMUTATIONS:
            raise ValueError("unknown triple order %r" % (name,))
        self.name = name
        self.permutation = ORDER_PERMUTATIONS[name]
        if name == "spo":
            rows = sorted(triples)  # triples already are (s, p, o)
        else:
            rows = sorted(triples, key=itemgetter(*self.permutation))
        self.columns: Tuple[array, array, array] = tuple(
            array("q", map(itemgetter(position), rows))
            for position in self.permutation
        )

    def __len__(self) -> int:
        return len(self.columns[0])

    def column_for_position(self, position: int) -> array:
        """The key column holding physical position *position*
        (0 = subject, 1 = property, 2 = object)."""
        return self.columns[self.permutation.index(position)]

    def range(self, *prefix: int) -> Tuple[int, int]:
        """The half-open row range whose key columns equal *prefix*
        (up to three values, in this ordering's key sequence).

        Two binary searches per bound column; an empty prefix is the
        whole run.  Each returned range is sorted on the remaining key
        columns — the sorted-run property every consumer relies on.
        """
        lo, hi = 0, len(self)
        for depth, value in enumerate(prefix):
            column = self.columns[depth]
            lo = bisect_left(column, value, lo, hi)
            hi = bisect_right(column, value, lo, hi)
            if lo >= hi:
                return lo, lo
        return lo, hi

    def patch(self, encoded: Tuple[int, int, int], insert: bool) -> None:
        """Insert (or delete) the ``(s, p, o)`` triple *encoded* in
        place, keeping the run sorted: one bisect to its row, then one
        ``array.insert`` / ``del`` per column."""
        key = tuple(encoded[position] for position in self.permutation)
        lo, hi = self.range(*key)
        if insert:
            if lo == hi:
                for column, value in zip(self.columns, key):
                    column.insert(lo, value)
        elif lo < hi:
            for column in self.columns:
                del column[lo]

    def iter_triples(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(s, p, o)`` tuples of rows [lo, hi) in run order."""
        if hi is None:
            hi = len(self)
        return zip(
            self.column_for_position(0)[lo:hi],
            self.column_for_position(1)[lo:hi],
            self.column_for_position(2)[lo:hi],
        )

    def __repr__(self) -> str:
        return "SortedRunIndex(%s, %d rows)" % (self.name, len(self))


class ColumnarIndexSet:
    """The index family of one store: built lazily, patched on single
    writes, rebuilt when the epoch says it fell behind."""

    def __init__(self, store) -> None:
        self._store = store
        self._orders: Dict[str, SortedRunIndex] = {}
        self._built_epoch: Optional[int] = None
        #: Total index builds performed — observable by tests asserting
        #: that single writes patch and only bulk/restore paths rebuild.
        self.build_count = 0
        store.add_listener(self._on_mutation)

    # ------------------------------------------------------------------

    def _on_mutation(self, triple, operation) -> None:
        """The patch path (see the module docstring)."""
        if (
            self._built_epoch is None
            or self._store.mutation_epoch != self._built_epoch + 1
        ):
            self.invalidate()
            return
        if self._orders:
            lookup = self._store.dictionary.lookup
            encoded = tuple(lookup(term) for term in triple.as_tuple())
            insert = operation == "insert"
            for run in self._orders.values():
                run.patch(encoded, insert)
        self._built_epoch += 1

    def _current(self) -> bool:
        return (
            self._built_epoch is not None
            and self._built_epoch == self._store.mutation_epoch
        )

    def has_current(self, name: str) -> bool:
        """True when order *name* is built and not stale — the cheap
        probe ``scan_all`` uses to reuse the SPO run without forcing a
        build."""
        return self._current() and name in self._orders

    def invalidate(self) -> None:
        """Drop every built run (next probe rebuilds)."""
        self._orders.clear()
        self._built_epoch = None

    def order(self, name: str) -> SortedRunIndex:
        """The (built-on-demand) sorted run for ordering *name*.

        Staleness is decided by the store's mutation epoch, which every
        encoded-level write path bumps — so runs survive read-only use
        indefinitely, follow listener-notified writes by patching, and
        are rebuilt after any write that bypassed the listeners.
        """
        if not self._current():
            self._orders.clear()
            self._built_epoch = self._store.mutation_epoch
        run = self._orders.get(name)
        if run is None:
            run = SortedRunIndex(name, self._store._triples)
            self._orders[name] = run
            self.build_count += 1
        return run

    # ------------------------------------------------------------------

    def probe(
        self,
        subject_id: Optional[int] = None,
        property_id: Optional[int] = None,
        object_id: Optional[int] = None,
    ) -> Tuple[SortedRunIndex, int, int, int]:
        """Resolve bound ids to ``(run, lo, hi, bound_count)``: the
        best-matching sorted run, the half-open row range covering the
        matches, and how many leading key columns the bound ids pin.

        Every combination of bound positions maps to an index whose
        key *prefix* is exactly the bound set — so rows [lo, hi) are
        sorted on the remaining (variable) key columns, in the run's
        key order.  That residual sortedness is the engine's scan
        metadata: it is what merge joins and sorted unions consume.
        """
        if subject_id is not None:
            if property_id is not None:
                run = self.order("spo")
                prefix = (
                    (subject_id, property_id)
                    if object_id is None
                    else (subject_id, property_id, object_id)
                )
            elif object_id is not None:
                run = self.order("osp")
                prefix = (object_id, subject_id)
            else:
                run = self.order("spo")
                prefix = (subject_id,)
        elif property_id is not None:
            run = self.order("pos")
            prefix = (
                (property_id,)
                if object_id is None
                else (property_id, object_id)
            )
        elif object_id is not None:
            run = self.order("osp")
            prefix = (object_id,)
        else:
            run = self.order("spo")
            prefix = ()
        lo, hi = run.range(*prefix)
        return run, lo, hi, len(prefix)

    def match(
        self,
        subject_id: Optional[int] = None,
        property_id: Optional[int] = None,
        object_id: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Enumerate triples matching the bound ids, in the probing
        run's deterministic order (see :meth:`TripleStore.match`)."""
        run, lo, hi, _ = self.probe(subject_id, property_id, object_id)
        return run.iter_triples(lo, hi)

    def __repr__(self) -> str:
        return "ColumnarIndexSet(built=%s, epoch=%s)" % (
            sorted(self._orders),
            self._built_epoch,
        )
