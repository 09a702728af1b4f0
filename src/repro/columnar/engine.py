"""The columnar executor: vectorized operators over the shared plan IR.

The in-process engine behind :class:`repro.storage.executor.Executor`.
It streams :class:`~repro.columnar.chunks.ColumnChunk` batches of id
columns from scan to answer, and no operator builds a row tuple:

* **Index-range scans** — a triple pattern resolves through
  :meth:`~repro.columnar.indexes.ColumnarIndexSet.probe` to a row
  range of one SPO/POS/OSP sorted run; a chunk is a slice of its
  ``array('q')`` columns, and the residual key order of the range is
  the stream's sortedness metadata.  Writes patch runs in place, so a
  run scan checks the store's epoch between chunks (the reader rule of
  :mod:`repro.columnar.indexes`).
* **K-way sorted union** — inputs that share a total order are merged
  as packed row keys with duplicates dropped, so the union's set
  semantics fall out *before* any join multiplies rows: the grouping
  effect the paper measures, applied physically.  Other unions
  concatenate through a seen-set of packed keys.
* **Joins emit index vectors** — per input chunk, the parallel lists
  of matching row positions on both sides; the output columns are
  gathers along them, cut into ``batch_size`` chunks.  A join merges
  when both inputs are provably sorted on its key (the side that is
  behind gallops with one C-level bisect, so Python-level work grows
  with the equal-key groups, not the rows), and otherwise hashes the
  smaller *estimated* side into a table from key to build position.
* **Selections / distinct** — filters gather keep-index lists;
  distinct over a fully sorted stream compares adjacent packed keys
  with zero buffered state, and uses a seen-set otherwise.

Keys: a multi-column key is the row's ids packed into one int
(:func:`~repro.columnar.chunks.pack`) at one width per execution, so
keys agree across both sides of a join and every chunk of a stream.
A constant the dictionary never stored (a ``("term", Term)``
projection) gets a query-local id past the dictionary's end, never
stored, which the collected answer maps back to its term when it
decodes, once per column.

Every operator's output is metered into a shared
:class:`~repro.engine.metrics.PipelineMetrics` (rows *represented*,
not Python objects), charged against the caller's
:class:`~repro.resilience.budget.ExecutionBudget` per chunk, and a
budget abort carries the partial metrics and rows.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, repeat
from operator import eq, is_not, ne, not_, or_, sub
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..engine.ir import (
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from ..engine.metrics import OperatorMetrics, PipelineMetrics
from .chunks import ColumnChunk, ColumnStream, gather, pack, unpack
from .indexes import ORDER_PERMUTATIONS, StaleRunError

Row = Tuple
#: Rows as their output columns (lazy iterables), with the row count.
Piece = Tuple[int, List[Iterable[int]]]

#: Rows per chunk.  Per-chunk bookkeeping is the engine's only
#: per-row-free overhead, so a large chunk amortizes it; still small
#: enough that a budget fires within one chunk of the limit.
DEFAULT_COLUMNAR_BATCH_SIZE = 1024


class _ColumnarPipeline:
    """One columnar execution: operators wired to shared accounting."""

    def __init__(self, store, metrics: PipelineMetrics, budget, batch_size: int):
        self.store = store
        self.indexes = store.columnar()
        self.metrics = metrics
        self.budget = budget
        self.batch_size = batch_size
        #: Ids below ``base`` are the dictionary's; ``local_ids`` gives
        #: each constant it never stored an id from ``base`` on.
        self.base = len(store.dictionary)
        self.local_ids: Dict[object, int] = {}

    @property
    def width(self) -> int:
        """Bits per id in a packed key.  Read once operators pull, when
        :meth:`stream` has built the whole tree and so allocated every
        query-local id."""
        return max(1, (self.base + len(self.local_ids) - 1).bit_length())

    # -- plumbing ------------------------------------------------------

    def stream(
        self, node: PlanNode, consumer: Optional[OperatorMetrics] = None
    ) -> ColumnStream:
        """The metered output stream of *node*, its rows also counted
        into the ``rows_in`` of *consumer*, the operator that pulls it.

        Meters rows/batches/wall-time per operator, mirrors the row
        count into ``node.actual_rows`` for EXPLAIN, and charges the
        budget per chunk.  Sortedness metadata passes through
        untouched — metering never reorders.  The operator's one
        :class:`ColumnStream` carries its chunk source, metered.
        """
        entry = self.metrics.operator(node)
        stream = self._operator(node, entry)
        node.actual_rows = 0
        stream.chunks = self._metered(stream.chunks, node, entry, consumer)
        return stream

    def _metered(
        self, chunks: Iterator[ColumnChunk], node: PlanNode,
        entry: OperatorMetrics, consumer: Optional[OperatorMetrics],
    ) -> Iterator[ColumnChunk]:
        """*chunks*, each metered into *entry* and *consumer* and charged
        to the budget; closing it closes *chunks* and releases *entry*'s
        buffered rows, as when a consumer stops early."""
        budget = self.budget
        try:
            while True:
                chunk = entry.pull(chunks)
                if chunk is None:
                    return
                length = chunk.length
                entry.rows_out += length
                entry.batches += 1
                node.actual_rows += length
                if consumer is not None:
                    consumer.rows_in += length
                if budget is not None:
                    budget.charge_rows(length, operator=entry)
                yield chunk
        finally:
            close = getattr(chunks, "close", None)
            if close is not None:
                close()
            self.metrics.release(entry)

    def _batches(self, arity: int, pieces: Iterable[Piece]) -> Iterator[ColumnChunk]:
        """Cut the rows of *pieces* into chunks of ``batch_size`` rows
        (the last may be shorter), filling the columns straight from
        each piece's gathers."""
        step = self.batch_size
        columns: List[list] = [[] for _ in range(arity)]
        length = 0
        for count, values in pieces:
            for column, new in zip(columns, values):
                column.extend(new)
            length += count
            if length >= step:
                start = 0
                while length - start >= step:
                    yield ColumnChunk(_sliced(columns, start, start + step), step)
                    start += step
                columns = _sliced(columns, start, None)
                length -= start
        if length:
            yield ColumnChunk(tuple(columns), length)

    def _unpacked(
        self, batches: Iterable[List[int]], key: Tuple[int, ...]
    ) -> Iterator[Piece]:
        """The rows packed in *batches*, whose ints hold the columns in
        *key* order, as pieces for :meth:`_batches`."""
        width = self.width
        position = tuple(map(key.index, range(len(key))))
        for batch in batches:
            parts = unpack(batch, len(key), width)
            yield len(batch), gather(parts, position)

    # -- operators -----------------------------------------------------

    def _operator(self, node: PlanNode, entry: OperatorMetrics) -> ColumnStream:
        if isinstance(node, EmptyNode):
            return ColumnStream(iter(()))
        if isinstance(node, ScanNode):
            return self._scan(node)
        if isinstance(node, UnionNode):
            return self._union(node, entry)
        if isinstance(node, ProjectNode):
            return self._project(node, entry)
        if isinstance(node, NonLiteralFilterNode):
            return self._filter(node, entry)
        if isinstance(node, DistinctNode):
            return self._distinct(node, entry)
        if isinstance(node, JoinNode):
            return self._join(node, entry)
        raise TypeError("cannot execute %r" % (node,))

    # -- scans ---------------------------------------------------------

    def _scan(self, node: ScanNode) -> ColumnStream:
        """A triple pattern as slices of one run range.

        A hierarchy-interval range position that is the key column right
        after a run's bound prefix narrows that run's range (see
        :meth:`_narrowed`).  Any other pattern probes on its bound
        constants, and masks each chunk when a variable repeats or a
        range position is left to check.
        """
        bounds = node.bound_positions()
        positions_of: Dict[object, List[int]] = {}
        for position, (kind, value) in enumerate(node.positions):
            if kind == "var":
                positions_of.setdefault(value, []).append(position)
        repeated = [
            (group[0], other)
            for group in positions_of.values()
            for other in group[1:]
        ]
        range_info = node.range_spec()
        narrowed = None
        if range_info is not None and not repeated:
            narrowed = self._narrowed(bounds, *range_info)
        run, lo, hi, depth = narrowed or self.indexes.probe(*bounds)
        # Residual key order of the range, as output columns.
        out_index = {var: i for i, var in enumerate(node.columns)}
        order: List[int] = []
        for position in run.permutation[depth:]:
            kind, value = node.positions[position]
            if kind != "var":
                break  # the range position: sortedness ends here
            if out_index[value] not in order:
                order.append(out_index[value])
        key = tuple(order)
        column = run.column_for_position
        sources = tuple([column(positions_of[var][0]) for var in node.columns])
        epoch = self.store.mutation_epoch
        if narrowed is not None:
            ids = run.columns[depth - 1]
            if lo < hi and ids[lo] != ids[hi - 1]:
                return ColumnStream(self._resorted(sources, lo, hi, key), key)
            return ColumnStream(self._run_chunks(lo, hi, sources, epoch), key)
        pairs = tuple([(column(first), column(other)) for first, other in repeated])
        if range_info is None:
            chunks = self._run_chunks(lo, hi, sources, epoch, pairs)
        else:
            position, interval = range_info
            chunks = self._run_chunks(
                lo, hi, sources, epoch, pairs, column(position), range(*interval)
            )
        return ColumnStream(chunks, key)

    def _narrowed(self, bounds, position: int, interval: Tuple[int, int]):
        """A probe's ``(run, lo, hi, depth)`` for a pattern whose
        *position* must lie in *interval*: the run keyed on the bound
        positions and then *position*, its range narrowed by two
        bisects on that key column.  None when no run has that key."""
        bound = {i for i, value in enumerate(bounds) if value is not None}
        depth = len(bound)
        for name, permutation in ORDER_PERMUTATIONS.items():
            if set(permutation[:depth]) == bound and permutation[depth] == position:
                run = self.indexes.order(name)
                lo, hi = run.range(*(bounds[p] for p in permutation[:depth]))
                ids = run.columns[depth]
                lo = bisect_left(ids, interval[0], lo, hi)
                return run, lo, bisect_left(ids, interval[1], lo, hi), depth + 1
        return None

    def _resorted(
        self, sources: Sequence[Sequence[int]], lo: int, hi: int, key: Tuple[int, ...]
    ) -> Iterator[ColumnChunk]:
        """Run rows [lo, hi) of a narrowed range that holds several ids,
        deduped and sorted by *key*, the columns after the range
        position.  Each id's group is sorted on its own, and one row can
        match several ids (an instance typed with two subclasses), so the
        range is packed, set-deduped and sorted in C-level passes — its
        size is bounded by the subtree's instance count."""
        keys = pack(_sliced(gather(sources, key), lo, hi), self.width, hi - lo)
        batches = [list(dict.fromkeys(sorted(keys)))]
        yield from self._batches(len(key), self._unpacked(batches, key))

    def _run_chunks(
        self, lo: int, hi: int, sources: Sequence[Sequence[int]], epoch: int,
        pairs: Sequence[Tuple[Sequence[int], Sequence[int]]] = (),
        column: Optional[Sequence[int]] = None, interval: range = None,
    ) -> Iterator[ColumnChunk]:
        """The chunks of run rows [lo, hi), one batch at a time: column
        slices of *sources* — or, given *pairs* of columns that must
        agree or a *column* whose id must lie in *interval*, the rows
        of each batch that do, gathered.

        Serves every scan that reads a live run range.  *epoch* is the
        store's mutation epoch at probe time, and a write before any
        chunk raises :class:`~repro.columnar.indexes.StaleRunError`:
        the reader rule of :mod:`repro.columnar.indexes`, since a patch
        shifts rows.
        """
        store = self.store
        step = self.batch_size
        for start in range(lo, hi, step):
            if store.mutation_epoch != epoch:
                raise StaleRunError(
                    "the store was written (epoch %d -> %d) while a "
                    "scan of its sorted runs was in flight"
                    % (epoch, store.mutation_epoch)
                )
            end = min(start + step, hi)
            if not pairs and column is None:
                yield ColumnChunk(_sliced(sources, start, end), end - start)
                continue
            keep = _selected(start, end, pairs, column, interval)
            if keep:
                yield ColumnChunk(tuple(map(gather, sources, repeat(keep))), len(keep))

    # -- union ---------------------------------------------------------

    def _union(self, node: UnionNode, entry: OperatorMetrics) -> ColumnStream:
        streams = [self.stream(child, entry) for child in node.children()]
        if len(streams) == 1:
            return streams[0]
        key = _total_order(streams, node.arity)
        inputs = [stream.chunks for stream in streams]
        if key is not None:
            pieces = self._unpacked(self._merged(inputs, key), key)
            return ColumnStream(self._batches(node.arity, pieces), key)
        # No common order: set semantics through a seen-set instead.
        return ColumnStream(self._hashed_distinct(inputs, entry))

    def _merged(
        self, inputs: Sequence[Iterator[ColumnChunk]], key: Tuple[int, ...]
    ) -> Iterator[List[int]]:
        """The rows of the chunk streams *inputs*, all sorted by the
        total order *key*, as sorted batches of distinct packed keys.

        Packed in *key* order, every input is a sorted run of ints.  A
        round takes, from each input's current chunk, the keys up to the
        smallest last key among them — nothing any input yields later is
        below it — and sorts and dedups them in C.  A round holds only
        the inputs' current chunks, so the union's set semantics need no
        dedup buffer, and come early enough that a downstream join
        multiplies the grouped extent, not the raw one.
        """
        width = self.width
        pending = []
        for chunks in inputs:
            source = _packed(chunks, key, width)
            keys = next(source, None)
            if keys is not None:
                pending.append((keys, source))
        previous = None
        while pending:
            bound = min(keys[-1] for keys, _ in pending)
            batch: List[int] = []
            rest = []
            for keys, source in pending:
                if keys[-1] == bound:
                    batch.extend(keys)
                    keys = next(source, None)
                else:
                    cut = bisect_right(keys, bound)
                    batch.extend(keys[:cut])
                    keys = keys[cut:]
                if keys is not None:
                    rest.append((keys, source))
            pending = rest
            batch = list(dict.fromkeys(sorted(batch)))
            if batch[0] == previous:
                del batch[0]
            if batch:
                previous = batch[-1]
                yield batch

    # -- projection / selection ----------------------------------------

    def _project(self, node: ProjectNode, entry: OperatorMetrics) -> ColumnStream:
        child = self.stream(node.child, entry)
        positions = node.child.variable_positions()
        local_ids = self.local_ids
        # Per output column, the child column it copies, or ~id for a
        # constant id: one tuple of ints.
        picks = []
        for kind, value in node.specs:
            if kind == "var":
                picks.append(positions[value])
            elif kind == "term":
                # Never stored: the same fresh id wherever it is projected.
                picks.append(~local_ids.setdefault(value, self.base + len(local_ids)))
            else:
                picks.append(~value)
        # Metadata: constants are injected constants plus surviving
        # constant child columns; the order claim follows the child's
        # order until a non-constant order column is dropped.
        constants = set()
        first_output: dict = {}
        for output, pick in enumerate(picks):
            if pick < 0:
                constants.add(output)
            else:
                first_output.setdefault(pick, output)
                if pick in child.constants:
                    constants.add(output)
        order: List[int] = []
        for column in child.order:
            if column in first_output:
                mapped = first_output[column]
                if mapped not in order:
                    order.append(mapped)
            elif column not in child.constants:
                break
        chunks = _projected(child.chunks, tuple(picks))
        return ColumnStream(chunks, tuple(order), frozenset(constants))

    def _filter(
        self, node: NonLiteralFilterNode, entry: OperatorMetrics
    ) -> ColumnStream:
        child = self.stream(node.child, entry)
        positions = node.child.variable_positions()
        guarded = tuple([positions[variable] for variable in node.variables])
        chunks = self._non_literal(child.chunks, guarded)
        return ColumnStream(chunks, child.order, child.constants)

    def _non_literal(
        self, chunks: Iterator[ColumnChunk], guarded: Tuple[int, ...]
    ) -> Iterator[ColumnChunk]:
        """The rows of *chunks* that bind no *guarded* column to a
        literal."""
        literal_ids = self.store.dictionary.literal_ids
        is_literal = literal_ids.__contains__
        for chunk in chunks:
            columns = gather(chunk.columns, guarded)
            if all(map(literal_ids.isdisjoint, columns)):
                yield chunk
                continue
            literal = map(is_literal, columns[0])
            for column in columns[1:]:
                literal = map(or_, literal, map(is_literal, column))
            keep = list(compress(range(chunk.length), map(not_, literal)))
            if keep:
                yield chunk.take(keep)

    def _distinct(self, node: DistinctNode, entry: OperatorMetrics) -> ColumnStream:
        child = self.stream(node.child, entry)
        if _total_order([child], node.arity) is None:
            chunks = self._hashed_distinct((child.chunks,), entry)
        else:
            chunks = self._sorted_distinct(child.chunks)
        return ColumnStream(chunks, child.order, child.constants)

    def _sorted_distinct(self, chunks: Iterator[ColumnChunk]) -> Iterator[ColumnChunk]:
        """Distinct over a fully sorted stream: adjacent comparison,
        zero buffered state."""
        width = self.width
        previous = None
        for chunk in chunks:
            if not chunk.length:
                continue
            keys = pack(chunk.columns, width, chunk.length)
            fresh = map(ne, keys, [previous, *keys])
            keep = list(compress(range(chunk.length), fresh))
            previous = keys[-1]
            if len(keep) == chunk.length:
                yield chunk
            elif keep:
                yield chunk.take(keep)

    def _hashed_distinct(
        self, inputs: Iterable[Iterator[ColumnChunk]], entry: OperatorMetrics
    ) -> Iterator[ColumnChunk]:
        """Drop the rows of the chunk streams *inputs*, read one after
        the other, already seen, through a seen-set of packed keys whose
        rows are charged to *entry* as buffered state.  Kept rows stay
        in stream order."""
        width = self.width
        seen: set = set()
        for chunks in inputs:
            for chunk in chunks:
                keep = _unseen(seen, pack(chunk.columns, width, chunk.length))
                if keep is None:
                    self.metrics.buffer(entry, chunk.length)
                    yield chunk
                elif keep:
                    self.metrics.buffer(entry, len(keep))
                    yield chunk.take(keep)

    # -- joins ---------------------------------------------------------

    def _join(self, node: JoinNode, entry: OperatorMetrics) -> ColumnStream:
        left = self.stream(node.left, entry)
        right = self.stream(node.right, entry)
        variables = node.join_variables
        left_key = tuple(map(node.left.variable_positions().__getitem__, variables))
        right_key = tuple(map(node.right.variable_positions().__getitem__, variables))
        keep = node.keep_right_indexes
        constants = left.constants | frozenset(
            node.left.arity + i
            for i, index in enumerate(keep)
            if index in right.constants
        )
        if variables and left.sorted_by(left_key) and right.sorted_by(right_key):
            join, order = self._merge_join, left_key
        else:
            join, order = self._hash_join, ()
        pieces = join(node, left.chunks, right.chunks, left_key, right_key, entry)
        return ColumnStream(self._batches(node.arity, pieces), order, constants)

    def _merge_join(
        self, node: JoinNode, left: Iterator[ColumnChunk], right: Iterator[ColumnChunk],
        left_key: Sequence[int], right_key: Sequence[int], entry: OperatorMetrics,
    ) -> Iterator[Piece]:
        """Galloping merge join of two key-sorted streams.

        Each side is a :class:`_MergeCursor` into its current chunk's
        keys.  The side that is behind jumps to the other's key with one
        C-level ``bisect_left``, and an equal-key group ends at
        ``bisect_right`` (continuing into the next chunk when it reaches
        the end of this one), so Python-level work grows with the
        equal-key groups and bisects, not with the rows of the larger
        input.  Matching groups add their row positions to index vectors
        into the current chunks, gathered when a side moves on or
        ``batch_size`` pairs are held; both groups are charged to the
        metrics while held.
        """
        buffer = self.metrics.buffer
        step = self.batch_size
        width = self.width
        lside = _MergeCursor(left, left_key, range(node.left.arity), width)
        rside = _MergeCursor(right, right_key, node.keep_right_indexes, width)
        lcolumns = rcolumns = None
        li: List[int] = []
        ri: List[int] = []
        while lside.keys is not None and rside.keys is not None:
            lkey = lside.keys[lside.pos]
            rkey = rside.keys[rside.pos]
            if lkey < rkey:
                lside.seek(rkey)
                continue
            if rkey < lkey:
                rside.seek(lkey)
                continue
            lgroup = lside.group(lkey)
            rgroup = rside.group(rkey)
            held = sum(end - start for _, start, end in lgroup + rgroup)
            buffer(entry, held)
            for lcols, lstart, lend in lgroup:
                for rcols, rstart, rend in rgroup:
                    for i in range(lstart, lend):
                        moved = lcols is not lcolumns or rcols is not rcolumns
                        if moved or len(li) >= step:
                            if li:
                                yield _piece(lcolumns, li, rcolumns, ri)
                            lcolumns, rcolumns, li, ri = lcols, rcols, [], []
                        li.extend(repeat(i, rend - rstart))
                        ri.extend(range(rstart, rend))
            buffer(entry, -held)
        if li:
            yield _piece(lcolumns, li, rcolumns, ri)

    def _hash_join(
        self, node: JoinNode, left: Iterator[ColumnChunk], right: Iterator[ColumnChunk],
        left_key: Sequence[int], right_key: Sequence[int], entry: OperatorMetrics,
    ) -> Iterator[Piece]:
        """Hash join on the smaller *estimated* side: the build side's
        kept columns are concatenated and its keys indexed
        (:func:`_build_index`); each probe chunk's keys look up index
        vectors of matching positions, and the output columns are
        gathers along them."""
        keep = node.keep_right_indexes
        left_all = range(node.left.arity)
        if node.left.estimated_rows <= node.right.estimated_rows:
            build, build_key, build_take = left, left_key, left_all
            probe, probe_key, probe_take = right, right_key, keep
        else:
            build, build_key, build_take = right, right_key, keep
            probe, probe_key, probe_take = left, left_key, left_all
        width = self.width
        columns: List[list] = [[] for _ in build_take]
        keys: List[int] = []
        for chunk in build:
            for column, index in zip(columns, build_take):
                column.extend(chunk.columns[index])
            keys.extend(pack(gather(chunk.columns, build_key), width, chunk.length))
            self.metrics.buffer(entry, chunk.length)
        match = _build_index(keys, self.batch_size)
        for chunk in probe:
            probe_columns = gather(chunk.columns, probe_take)
            probe_keys = pack(gather(chunk.columns, probe_key), width, chunk.length)
            for bidx, pidx in match(probe_keys):
                if build is left:
                    yield _piece(columns, bidx, probe_columns, pidx)
                else:
                    yield _piece(probe_columns, pidx, columns, bidx)


class _MergeCursor:
    """One side of a merge join: a position in the current chunk of a
    key-sorted chunk stream.

    ``keys`` is the chunk's key column — the column itself for a
    one-column key, its packed keys otherwise (which sort like the key
    columns) — and None once the stream is exhausted.  ``columns`` are
    the chunk's columns a matched row keeps (*take*).
    """

    __slots__ = ("chunks", "key", "take", "width", "columns", "keys", "pos", "end")

    def __init__(self, chunks: Iterator[ColumnChunk], key, take, width: int):
        self.chunks = iter(chunks)
        self.key = tuple(key)
        self.take = take
        self.width = width
        self._load()

    def _load(self) -> None:
        """Move to the first row of the next non-empty chunk."""
        for chunk in self.chunks:
            if chunk.length:
                columns = chunk.columns
                self.columns = [columns[i] for i in self.take]
                self.keys = pack(
                    [columns[i] for i in self.key], self.width, chunk.length
                )
                self.pos, self.end = 0, chunk.length
                return
        self.keys = None

    def seek(self, target) -> None:
        """Skip to the first row whose key is not below *target*."""
        pos = bisect_left(self.keys, target, self.pos + 1, self.end)
        while pos == self.end:
            self._load()
            if self.keys is None:
                return
            pos = bisect_left(self.keys, target, 0, self.end)
        self.pos = pos

    def group(self, key) -> List[Tuple[list, int, int]]:
        """The rows whose key equals *key*, from the cursor on, as
        ``(kept columns, start, end)`` segments of the chunks they span;
        leaves the cursor just past them."""
        segments = []
        while True:
            pos = self.pos
            end = bisect_right(self.keys, key, pos + 1, self.end)
            segments.append((self.columns, pos, end))
            if end < self.end:
                self.pos = end
                return segments
            self._load()
            if self.keys is None or self.keys[0] != key:
                return segments


def _piece(left_columns, left_index, right_columns, right_index) -> Piece:
    """The join rows pairing the *left_index* and *right_index*
    positions, as gathers along both sides' columns."""
    return len(left_index), [
        map(column.__getitem__, left_index) for column in left_columns
    ] + [map(column.__getitem__, right_index) for column in right_columns]


def _build_index(keys: Sequence[int], step: int):
    """``match(probe_keys)`` for a hash join's build side: yields
    ``(build positions, probe positions)`` index vectors of the
    matching pairs, probe row by probe row, at most about *step* pairs
    at a time.

    Unique build keys (the common case) map straight to their position
    and a probe chunk is matched in C-level passes.  Otherwise the
    positions are sorted by key (stably, so each key's positions keep
    build order) and a key maps to its slice of that order.
    """
    n = len(keys)
    position = dict(zip(keys, range(n)))
    if len(position) == n:
        get = position.get

        def match_unique(probe_keys):
            found = list(map(get, probe_keys))
            if None not in found:
                yield found, range(len(found))
                return
            hit = list(map(is_not, found, repeat(None)))
            if any(hit):
                yield list(compress(found, hit)), list(
                    compress(range(len(found)), hit)
                )

        return match_unique
    order = sorted(range(n), key=keys.__getitem__)
    ordered = list(map(keys.__getitem__, order))
    start = dict(zip(reversed(ordered), range(n - 1, -1, -1)))
    end = dict(zip(ordered, range(1, n + 1)))

    def match_groups(probe_keys):
        firsts = list(map(start.get, probe_keys))
        hit = list(map(is_not, firsts, repeat(None)))
        rows = list(compress(range(len(firsts)), hit))
        firsts = list(compress(firsts, hit))
        lasts = list(map(end.__getitem__, compress(probe_keys, hit)))
        counts = list(map(sub, lasts, firsts))
        total = list(accumulate(counts, initial=0))
        lo = 0
        while lo < len(rows):
            # The next probe rows whose pairs fit in *step*, at least one.
            hi = max(lo + 1, bisect_right(total, total[lo] + step, lo + 1) - 1)
            groups = map(order.__getitem__, map(slice, firsts[lo:hi], lasts[lo:hi]))
            yield (
                list(chain.from_iterable(groups)),
                list(chain.from_iterable(map(repeat, rows[lo:hi], counts[lo:hi]))),
            )
            lo = hi

    return match_groups


def _projected(
    chunks: Iterator[ColumnChunk], picks: Tuple[int, ...]
) -> Iterator[ColumnChunk]:
    """The chunks of a projection: output column *i* is the child's
    column ``picks[i]``, or, where that is negative, the constant id
    ``~picks[i]`` repeated."""
    for chunk in chunks:
        yield ColumnChunk(_picked(chunk.columns, chunk.length, picks), chunk.length)


def _packed(
    chunks: Iterator[ColumnChunk], key: Tuple[int, ...], width: int
) -> Iterator[Sequence[int]]:
    """The packed *key* columns of each non-empty chunk of *chunks*."""
    for chunk in chunks:
        if chunk.length:
            yield pack(gather(chunk.columns, key), width, chunk.length)


# Per-chunk helpers: a comprehension in a generator would turn the
# locals it reads into cells, alive as long as the generator.


def _sliced(columns: Sequence[Sequence[int]], start: int, end: Optional[int]) -> list:
    """Rows [start, end) of each of *columns*."""
    return [column[start:end] for column in columns]


def _picked(columns, length: int, picks: Tuple[int, ...]) -> list:
    """A projection's output columns: see :func:`_projected`."""
    return [columns[p] if p >= 0 else [~p] * length for p in picks]


def _selected(start: int, end: int, pairs, column, interval: range) -> List[int]:
    """The run rows in [start, end) whose *pairs* of columns agree and,
    given a *column*, whose id in it lies in *interval*."""
    masks = [map(eq, a[start:end], b[start:end]) for a, b in pairs]
    if column is not None:
        masks.append(map(interval.__contains__, column[start:end]))
    mask = masks[0] if len(masks) == 1 else map(min, *masks)
    return list(compress(range(start, end), mask))


def _unseen(seen: set, keys: Sequence[int]) -> Optional[Sequence[int]]:
    """Add the packed *keys* to *seen*; the positions of the ones it
    lacked, one per new key, in order — or None when every key was new
    and distinct (keep the whole chunk)."""
    n = len(keys)
    positions = None
    if not seen.isdisjoint(keys):
        positions = list(compress(range(n), map(not_, map(seen.__contains__, keys))))
        keys = list(map(keys.__getitem__, positions))
    before = len(seen)
    seen.update(keys)
    if len(seen) - before == len(keys):
        return positions
    if positions is None:
        positions = range(n)
    first = dict(zip(reversed(keys), reversed(positions)))
    return sorted(first.values())


def _total_order(
    streams: Sequence[ColumnStream], arity: int
) -> Optional[Tuple[int, ...]]:
    """A column sequence covering *every* column that all inputs are
    sorted by, or None when no common total order exists.

    Built from the first input's order claim, extended with the
    remaining columns; a total order is required because the merge
    dedups by comparing *adjacent full rows* — a key that ignored a
    column could interleave distinct rows between duplicates.  Each
    input only has to be sorted by the sequence *modulo its own
    constant columns* — disjuncts binding a position to different
    constants still merge.
    """
    if arity == 0:
        return None
    lead = streams[0]
    key = [c for c in lead.order if c < arity]
    key.extend(c for c in range(arity) if c not in key)
    key_tuple = tuple(key)
    if all(stream.sorted_by(key_tuple) for stream in streams):
        return key_tuple
    return None


# ---------------------------------------------------------------------------
# Entry points


class ColumnarAnswer:
    """A collected answer: its distinct rows as id columns, and the
    terms behind the query-local ids ``base``, ``base + 1``, … — the
    only ids the dictionary cannot decode."""

    __slots__ = ("columns", "length", "base", "local_terms")

    def __init__(self, columns, length: int, base: int, local_terms: list):
        self.columns = columns
        self.length = length
        self.base = base
        self.local_terms = local_terms

    def _rows(self, decode) -> Iterable[Tuple]:
        """The rows, each column passed through *decode* (a whole-column
        function) and its query-local ids replaced by their terms."""
        if not self.columns:
            return [()] * self.length
        base, local = self.base, self.local_terms

        def column(values: Sequence[int]) -> Sequence:
            if not local or max(values, default=-1) < base:
                return decode(values)
            stored = iter(decode([v for v in values if v < base]))
            return [local[v - base] if v >= base else next(stored) for v in values]

        return zip(*map(column, self.columns))

    def rows(self) -> List[Row]:
        """The rows as tuples of ids, a query-local id as its term."""
        return list(self._rows(list))

    def decode(self, dictionary) -> FrozenSet[Tuple]:
        """The answer relation in terms: decoded once per column."""
        return frozenset(self._rows(dictionary.decode_all))


def collect_columnar(
    plan: PlanNode,
    store,
    budget=None,
    batch_size: int = DEFAULT_COLUMNAR_BATCH_SIZE,
    metrics: Optional[PipelineMetrics] = None,
) -> Tuple[ColumnarAnswer, PipelineMetrics]:
    """Execute *plan* against *store* columnar-ly; returns the collected
    answer and the metrics.

    The collected answer is distinct (joins and projections may repeat
    rows; a final seen-set of packed keys removes them), metrics report
    rows *represented* (a chunk of 1,024 rows counts 1,024, whatever
    its Python object count), and a
    :class:`~repro.resilience.errors.BudgetExceeded` mid-stream carries
    the metrics snapshot and partial rows (``partial`` /
    ``partial_rows``) — a budget abort reports how far execution got,
    it does not erase it.  The differential harness compares its answers
    with SQLite's and the reference evaluator's.
    """
    if metrics is None:
        metrics = PipelineMetrics()
    pipeline = _ColumnarPipeline(store, metrics, budget, batch_size)
    columns = tuple([] for _ in range(plan.arity))
    answer = ColumnarAnswer(columns, 0, pipeline.base, [])
    started = time.perf_counter()
    if budget is not None:
        budget.start()
    try:
        chunks = pipeline.stream(plan).chunks
        answer.local_terms = list(pipeline.local_ids)
        collect = OperatorMetrics("Collect")
        for chunk in pipeline._hashed_distinct((chunks,), collect):
            for column, values in zip(columns, chunk.columns):
                column.extend(values)
            answer.length += chunk.length
    except Exception as exc:
        metrics.elapsed_seconds = time.perf_counter() - started
        if hasattr(exc, "diagnostics"):
            exc.partial = metrics.as_dict()
            exc.partial_rows = answer.rows()
        raise
    metrics.elapsed_seconds = time.perf_counter() - started
    return answer, metrics


def run_columnar(
    plan: PlanNode,
    store,
    budget=None,
    batch_size: int = DEFAULT_COLUMNAR_BATCH_SIZE,
    metrics: Optional[PipelineMetrics] = None,
) -> Tuple[List[Row], PipelineMetrics]:
    """:func:`collect_columnar`, with the answer as row tuples (ids,
    and a constant the dictionary never stored as its term) — what
    :func:`repro.storage.executor.execute_plan` returns."""
    answer, metrics = collect_columnar(plan, store, budget, batch_size, metrics)
    return answer.rows(), metrics
