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

**The runs are the table.**  :class:`ColumnarIndexSet` is the store's
only copy of its triples.  SPO always exists and answers membership
with one bisect; POS and OSP are built from it on their first probe.
A single insert/delete *patches* SPO first, whose bisect decides
whether anything changes, then every other built run: a bisect to the
row and one ``array.insert`` / ``del`` per column, a memmove.  A batch
(``TripleStore.insert_many`` / ``insert_encoded``: loads, checkpoint
restore, WAL replay) is sorted, stripped of duplicates and stored
triples, and *merged* into every built run
(:meth:`SortedRunIndex.merge`), so n triples cost one sort, not n
memmoves.

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
  store (a ``TripleStore.copy`` taken before the write), not the live
  runs;
* federation's fan-out threads only read their endpoints' stores.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

#: Key sequence of each ordering, as physical positions (0=s, 1=p, 2=o).
ORDER_PERMUTATIONS: Dict[str, Tuple[int, int, int]] = {
    "spo": (0, 1, 2),
    "pos": (1, 2, 0),
    "osp": (2, 0, 1),
}


class StaleRunError(RuntimeError):
    """A run scan saw the store change between two of its chunks (a
    breach of the reader rule in the module docstring)."""


#: A batch under 1/_SPLICE_RATIO of a run is handled row by row, a
#: bisect each (~3 µs a row); a larger one in one pass over the whole
#: run (~0.5 µs a row).  The measured crossover is near 1/5.
_SPLICE_RATIO = 8


def _columns(rows) -> Tuple[array, array, array]:
    """The three ``array('q')`` key columns of sorted key tuples."""
    return tuple(array("q", map(itemgetter(depth), rows)) for depth in range(3))


class SortedRunIndex:
    """One ordering of the triple table as three sorted ID columns."""

    __slots__ = ("name", "permutation", "columns")

    def __init__(self, name: str, triples=()) -> None:
        if name not in ORDER_PERMUTATIONS:
            raise ValueError("unknown triple order %r" % (name,))
        self.name = name
        self.permutation = ORDER_PERMUTATIONS[name]
        self.columns: Tuple[array, array, array] = _columns(())
        self.merge(triples)

    def merge(self, triples) -> None:
        """Add *triples* — distinct ``(s, p, o)`` tuples, none stored
        yet — keeping the run sorted.  A small batch is spliced in (a
        bisect per row, then each column rebuilt from C-level slice
        copies); a larger one is sorted in with the run's rows, two
        sorted runs that the sort merges in linear time."""
        if self.name == "spo":
            rows = sorted(triples)  # triples already are (s, p, o)
        else:
            rows = sorted(map(itemgetter(*self.permutation), triples))
        if len(rows) * _SPLICE_RATIO >= len(self):
            if len(self):
                rows = sorted(chain(zip(*self.columns), rows))
            self.columns = _columns(rows)
            return
        places = [self.range(*row)[0] for row in rows]
        columns = []
        for depth, old in enumerate(self.columns):
            new = array("q")
            start = 0
            for place, row in zip(places, rows):
                new += old[start:place]
                new.append(row[depth])
                start = place
            new += old[start:]
            columns.append(new)
        self.columns = tuple(columns)

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

    def patch(self, encoded: Tuple[int, int, int], insert: bool) -> bool:
        """Insert (or delete) the ``(s, p, o)`` triple *encoded* in
        place, keeping the run sorted: one bisect to its row, then one
        ``array.insert`` / ``del`` per column.  Returns False, leaving
        the run alone, when the triple is already present (insert) or
        absent (delete)."""
        key = tuple(encoded[position] for position in self.permutation)
        lo, hi = self.range(*key)
        if insert:
            if lo < hi:
                return False
            for column, value in zip(self.columns, key):
                column.insert(lo, value)
        else:
            if lo == hi:
                return False
            for column in self.columns:
                del column[lo]
        return True

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
    """The triple table of one store: the SPO run, always present, and
    the POS and OSP runs, each built from SPO on its first probe."""

    def __init__(self) -> None:
        self._orders: Dict[str, SortedRunIndex] = {"spo": SortedRunIndex("spo")}

    def order(self, name: str) -> SortedRunIndex:
        """The sorted run for ordering *name*, built from the SPO
        columns on first use."""
        run = self._orders.get(name)
        if run is None:
            run = SortedRunIndex(name, self._orders["spo"].iter_triples())
            self._orders[name] = run
        return run

    def copy(self) -> "ColumnarIndexSet":
        """An independent table with the same runs built: three array
        slices a run."""
        clone = ColumnarIndexSet()
        for name, run in self._orders.items():
            clone._orders[name] = copied = SortedRunIndex(name)
            copied.columns = tuple(column[:] for column in run.columns)
        return clone

    def __len__(self) -> int:
        return len(self._orders["spo"])

    def contains(self, encoded: Tuple[int, int, int]) -> bool:
        """Whether the ``(s, p, o)`` triple *encoded* is stored: one
        SPO bisect."""
        lo, hi = self._orders["spo"].range(*encoded)
        return lo < hi

    def patch(self, encoded: Tuple[int, int, int], insert: bool) -> bool:
        """Insert or delete one ``(s, p, o)`` triple in every built run.
        SPO goes first and decides: False (nothing changed) when the
        triple is already present (insert) or absent (delete)."""
        runs = iter(self._orders.values())  # "spo" is always first
        if not next(runs).patch(encoded, insert):
            return False
        for run in runs:
            run.patch(encoded, insert)
        return True

    def missing(self, triples: List[Tuple[int, int, int]]) -> List:
        """Those of the sorted, distinct ``(s, p, o)`` *triples* that
        the table does not hold, in order: a bisect each for a small
        batch, one set of the stored triples for a large one."""
        spo = self._orders["spo"]
        if not len(spo):
            return triples
        if len(triples) * _SPLICE_RATIO < len(spo):
            return [triple for triple in triples if not self.contains(triple)]
        stored = set(zip(*spo.columns))
        return [triple for triple in triples if triple not in stored]

    def extend(self, triples) -> None:
        """Add *triples* — the output of :meth:`missing` — to every
        built run with :meth:`SortedRunIndex.merge`."""
        for run in self._orders.values():
            run.merge(triples)

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
        return "ColumnarIndexSet(%d triples, built=%s)" % (
            len(self),
            sorted(self._orders),
        )
