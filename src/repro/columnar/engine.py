"""The columnar executor: vectorized operators over the shared plan IR.

The in-process engine behind :class:`repro.storage.executor.Executor`.
Rather than materialize every operator's tuples, it streams
:class:`~repro.columnar.chunks.ColumnChunk` column batches whose cells
never become Python objects until the answer boundary:

* **Index-range scans** — a triple pattern resolves through
  :meth:`~repro.columnar.indexes.ColumnarIndexSet.probe` to a row
  range of one SPO/POS/OSP sorted run; emitting a chunk is slicing
  ``array('q')`` columns (a C-level copy), not building per-row
  dicts and tuples.  The residual key order of the range becomes the
  stream's sortedness metadata.  Runs are patched in place by writes,
  so every run scan checks the store's epoch between chunks (the reader
  rule of :mod:`repro.columnar.indexes`).
* **K-way sorted union** — when every input of a union is fully
  sorted (scans and their projections are), inputs are merged with
  adjacent-duplicate elimination: the union's set semantics fall out
  of the merge for free, *before* any join multiplies rows — the
  grouping effect the paper measures, applied physically.  Inputs
  with no common order degrade to concatenation deduped through a
  seen-set, so a union never emits a row twice either way.
* **Merge joins on sorted runs** — taken only when both inputs are
  provably sorted on the join key; buffers only the current
  equal-key groups.  Otherwise the join hashes, building on the
  smaller *estimated* side (actual sizes are unknowable without
  materializing, which is the point of not doing so) and streaming
  the probe side.
* **Mask selections / distinct** — filters compute keep-index lists
  per chunk and gather; distinct over a fully sorted stream is
  adjacent-row comparison with *zero* buffered state, and falls back
  to a seen-set otherwise.

Accounting and control: every operator's output is metered into a
shared :class:`~repro.engine.metrics.PipelineMetrics` (``rows_out`` counts
rows *represented* by chunks, not Python objects), charged against the
caller's :class:`~repro.resilience.budget.ExecutionBudget` per chunk,
and a budget abort carries the partial metrics and rows.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterator, List, Optional, Sequence, Tuple

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
from ..engine.metrics import OperatorMetrics, PipelineMetrics, _Stopwatch
from bisect import bisect_left
from operator import itemgetter

from .chunks import ColumnChunk, ColumnStream, as_column
from .indexes import ORDER_PERMUTATIONS, StaleRunError

Row = Tuple

#: Rows per chunk.  Per-chunk bookkeeping is the engine's only
#: per-row-free overhead, so a large chunk amortizes it; still small
#: enough that a budget fires within one chunk of the limit.
DEFAULT_COLUMNAR_BATCH_SIZE = 1024


class _ColumnarPipeline:
    """One columnar execution: operators wired to shared accounting."""

    def __init__(
        self,
        store,
        metrics: PipelineMetrics,
        budget,
        batch_size: int,
    ):
        self.store = store
        self.indexes = store.columnar()
        self.metrics = metrics
        self.budget = budget
        self.batch_size = batch_size

    # -- plumbing ------------------------------------------------------

    def stream(self, node: PlanNode) -> ColumnStream:
        """The metered output stream of *node*.

        Meters rows/batches/wall-time per operator, mirrors the row
        count into ``node.actual_rows`` for EXPLAIN, and charges the
        budget per chunk.  Sortedness metadata passes through
        untouched — metering never reorders.
        """
        entry = self.metrics.operator(node)
        source = self._operator(node, entry)
        budget = self.budget
        node.actual_rows = 0
        watch = _Stopwatch(entry)

        def metered() -> Iterator[ColumnChunk]:
            inner = source.chunks
            try:
                iterator = iter(inner)
                while True:
                    with watch:
                        chunk = next(iterator, None)
                    if chunk is None:
                        return
                    entry.rows_out += chunk.length
                    entry.batches += 1
                    node.actual_rows += chunk.length
                    if budget is not None:
                        budget.charge_rows(
                            chunk.length, operator=entry.label
                        )
                    yield chunk
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()
                self.metrics.release(entry)

        return ColumnStream(metered(), source.order, source.constants)

    def _counted(
        self, stream: ColumnStream, entry: OperatorMetrics
    ) -> Iterator[ColumnChunk]:
        """Consume *stream*'s chunks, counting rows into *entry.rows_in*."""
        for chunk in stream.chunks:
            entry.rows_in += chunk.length
            yield chunk

    def _pull(self, child: PlanNode, entry: OperatorMetrics) -> ColumnStream:
        stream = self.stream(child)
        return ColumnStream(
            self._counted(stream, entry), stream.order, stream.constants
        )

    def _chunked_rows(self, rows: Iterator[Row], arity: int) -> Iterator[ColumnChunk]:
        """Re-chunk a row iterator (row-at-a-time operator cores)."""
        batch: List[Row] = []
        for row in rows:
            batch.append(row)
            if len(batch) >= self.batch_size:
                yield ColumnChunk.from_rows(batch, arity)
                batch = []
        if batch:
            yield ColumnChunk.from_rows(batch, arity)

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
        range_info = node.range_spec()
        if range_info is not None:
            return self._range_scan(node, range_info)
        run, lo, hi, bound = self.indexes.probe(*node.bound_positions())
        out_index = {var: i for i, var in enumerate(node.columns)}
        positions_of: dict = {}
        position_var: dict = {}
        for position, (kind, value) in enumerate(node.positions):
            if kind == "var":
                positions_of.setdefault(value, []).append(position)
                position_var[position] = value
        # Residual key order of the probed range, as output columns.
        order: List[int] = []
        for position in run.permutation[bound:]:
            column = out_index[position_var[position]]
            if column not in order:
                order.append(column)
        sources = [
            run.column_for_position(positions_of[var][0])
            for var in node.columns
        ]
        duplicates = [
            [run.column_for_position(p) for p in group]
            for group in positions_of.values()
            if len(group) > 1
        ]

        def select(start: int, end: int) -> List[int]:
            # Repeated-variable pattern: keep rows where every
            # occurrence of the variable carries the same id.
            return [
                i
                for i in range(start, end)
                if all(
                    group[0][i] == other[i]
                    for group in duplicates
                    for other in group[1:]
                )
            ]

        return ColumnStream(
            self._run_chunks(lo, hi, sources, select if duplicates else None),
            tuple(order),
        )

    def _run_chunks(
        self,
        lo: int,
        hi: int,
        sources: Sequence[Sequence[int]],
        select=None,
    ) -> Iterator[ColumnChunk]:
        """The chunks of run rows [lo, hi), one batch at a time: column
        slices of *sources*, or — given ``select(start, end)`` — the
        rows of each batch it keeps, gathered.

        Serves every scan that reads a live run range.  The store's
        mutation epoch is recorded here, at probe time, and a write
        before any later chunk raises
        :class:`~repro.columnar.indexes.StaleRunError`: the reader rule
        of :mod:`repro.columnar.indexes`, since a patch shifts rows.
        """
        store = self.store
        epoch = store.mutation_epoch
        step = self.batch_size

        def chunks() -> Iterator[ColumnChunk]:
            for start in range(lo, hi, step):
                if store.mutation_epoch != epoch:
                    raise StaleRunError(
                        "the store was written (epoch %d -> %d) while a "
                        "scan of its sorted runs was in flight"
                        % (epoch, store.mutation_epoch)
                    )
                end = min(start + step, hi)
                if select is None:
                    yield ColumnChunk(
                        tuple(src[start:end] for src in sources),
                        end - start,
                    )
                    continue
                keep = select(start, end)
                if keep:
                    yield ColumnChunk(
                        tuple(
                            as_column(src[i] for i in keep)
                            for src in sources
                        ),
                        len(keep),
                    )

        return chunks()

    def _range_scan(
        self, node: ScanNode, range_info: Tuple[int, Tuple[int, int]]
    ) -> ColumnStream:
        """Scan a pattern with a hierarchy-interval range position.

        When the bound constants occupy a run's key prefix and the
        range position is the *next* key column, the interval is
        literally one bisect-narrowed row range of that sorted run;
        with several distinct ids inside the interval, the narrowed
        range is set-deduped and re-sorted on the residual key in one
        C-level pass so the output stream stays sorted.  Any other
        shape degrades to a mask filter over the best conventional
        probe.
        """
        range_position, (range_lo, range_hi) = range_info
        bounds = node.bound_positions()
        bound_set = {i for i, v in enumerate(bounds) if v is not None}
        out_index = {var: i for i, var in enumerate(node.columns)}
        positions_of: dict = {}
        position_var: dict = {}
        for position, (kind, value) in enumerate(node.positions):
            if kind == "var":
                positions_of.setdefault(value, []).append(position)
                position_var[position] = value
        has_duplicates = any(
            len(group) > 1 for group in positions_of.values()
        )

        chosen = None
        depth = len(bound_set)
        for name, permutation in ORDER_PERMUTATIONS.items():
            if (
                set(permutation[:depth]) == bound_set
                and permutation[depth] == range_position
            ):
                chosen = name
                break
        if chosen is None or has_duplicates:
            return self._masked_range_scan(
                node, range_info, position_var, positions_of, out_index
            )

        run = self.indexes.order(chosen)
        prefix = tuple(bounds[p] for p in run.permutation[:depth])
        lo, hi = run.range(*prefix)
        range_column = run.columns[depth]
        lo = bisect_left(range_column, range_lo, lo, hi)
        hi = bisect_left(range_column, range_hi, lo, hi)

        order: List[int] = []
        for position in run.permutation[depth + 1:]:
            column = out_index[position_var[position]]
            if column not in order:
                order.append(column)
        sources = [
            run.column_for_position(positions_of[var][0])
            for var in node.columns
        ]
        step = self.batch_size

        if lo >= hi or range_column[lo] == range_column[hi - 1]:
            # Zero or one distinct id in the interval: the narrowed
            # range behaves exactly like a (prefix + id) probe —
            # plain column slices, residual order intact.
            return ColumnStream(
                self._run_chunks(lo, hi, sources), tuple(order)
            )

        # Several distinct ids inside the interval: the groups must be
        # re-sorted on the residual key and deduped (the same row can
        # match several ids — an instance typed with two subclasses).
        # The whole narrowed range is materialized and set-deduped in
        # one pass: its size is bounded by the subtree's instance
        # count, and a C-level set + sort beats a per-row Python heap
        # merge by a wide margin on exactly the big intervals where
        # the encoding matters.
        if len(sources) == 1:
            merged = as_column(sorted(set(sources[0][lo:hi])))

            def merged_chunks() -> Iterator[ColumnChunk]:
                for start in range(0, len(merged), step):
                    end = min(start + step, len(merged))
                    yield ColumnChunk((merged[start:end],), end - start)

            return ColumnStream(merged_chunks(), tuple(order))

        # Rows are assembled, deduped, and sorted as residual-key-order
        # tuples so every pass — zip, set, sort, and the itemgetter
        # column extraction below — runs at C level; only the final
        # array construction touches each row from Python.
        key_columns = tuple(order)
        rows = sorted(set(zip(*(sources[c][lo:hi] for c in key_columns))))
        take = tuple(
            key_columns.index(column) for column in range(len(node.columns))
        )

        def merged_rows() -> Iterator[ColumnChunk]:
            for start in range(0, len(rows), step):
                chunk = rows[start:start + step]
                yield ColumnChunk(
                    tuple(
                        as_column(map(itemgetter(k), chunk)) for k in take
                    ),
                    len(chunk),
                )

        return ColumnStream(merged_rows(), tuple(order))

    def _masked_range_scan(
        self,
        node: ScanNode,
        range_info: Tuple[int, Tuple[int, int]],
        position_var: dict,
        positions_of: dict,
        out_index: dict,
    ) -> ColumnStream:
        """Fallback: probe on the bound constants alone and filter the
        range position per chunk (keep-index gather)."""
        range_position, (range_lo, range_hi) = range_info
        run, lo, hi, bound = self.indexes.probe(*node.bound_positions())
        filter_column = run.column_for_position(range_position)
        order: List[int] = []
        for position in run.permutation[bound:]:
            variable = position_var.get(position)
            if variable is None:
                break  # the range position: sortedness ends here
            column = out_index[variable]
            if column not in order:
                order.append(column)
        sources = [
            run.column_for_position(positions_of[var][0])
            for var in node.columns
        ]
        duplicates = [
            [run.column_for_position(p) for p in group]
            for group in positions_of.values()
            if len(group) > 1
        ]

        def select(start: int, end: int) -> List[int]:
            return [
                i
                for i in range(start, end)
                if range_lo <= filter_column[i] < range_hi
                and all(
                    group[0][i] == other[i]
                    for group in duplicates
                    for other in group[1:]
                )
            ]

        return ColumnStream(
            self._run_chunks(lo, hi, sources, select), tuple(order)
        )

    # -- union ---------------------------------------------------------

    def _union(self, node: UnionNode, entry: OperatorMetrics) -> ColumnStream:
        children = node.children()
        if len(children) == 1:
            return self._pull(children[0], entry)
        arity = node.arity
        streams = [self.stream(child) for child in children]
        key = _total_order(streams, arity)
        if key is not None:
            return self._merge_union(streams, arity, key, entry)

        def concatenated() -> Iterator[ColumnChunk]:
            for stream in streams:
                yield from self._counted(stream, entry)

        # No common order: set semantics through a seen-set instead.
        return ColumnStream(self._hashed_distinct(concatenated(), entry))

    def _merge_union(
        self,
        streams: Sequence[ColumnStream],
        arity: int,
        key: Tuple[int, ...],
        entry: OperatorMetrics,
    ) -> ColumnStream:
        """K-way merge of inputs all sorted by the total order *key*,
        with adjacent duplicate elimination.

        The output is sorted *and distinct* — the union's set semantics
        computed without a dedup buffer, and early enough that a
        downstream join multiplies the grouped extent, not the raw one.
        """
        identity = key == tuple(range(arity))

        def rows() -> Iterator[Row]:
            iters = [
                ColumnStream(
                    self._counted(stream, entry), stream.order
                ).iter_rows()
                for stream in streams
            ]
            if identity:
                merged = heapq.merge(*iters)
            else:
                merged = heapq.merge(
                    *iters, key=lambda row: tuple(row[i] for i in key)
                )
            previous: Optional[Row] = None
            for row in merged:
                if row != previous:
                    previous = row
                    yield row

        return ColumnStream(self._chunked_rows(rows(), arity), key)

    # -- projection / selection ----------------------------------------

    def _project(self, node: ProjectNode, entry: OperatorMetrics) -> ColumnStream:
        child = self._pull(node.child, entry)
        positions = node.child.variable_positions()
        specs = [
            ("col", positions[value]) if kind == "var" else (kind, value)
            for kind, value in node.specs
        ]
        # Metadata: constants are injected id constants plus surviving
        # constant child columns; the order claim follows the child's
        # order until a non-constant order column is dropped.  A
        # ("term", Term) column is constant too, but not an id: treated
        # as order-transparent, it would let a sorted union compare it
        # with the id column another input carries in its place.
        constants = set()
        first_output: dict = {}
        for output, (kind, value) in enumerate(specs):
            if kind == "const":
                constants.add(output)
            elif kind == "col":
                first_output.setdefault(value, output)
                if value in child.constants:
                    constants.add(output)
        order: List[int] = []
        for column in child.order:
            if column in first_output:
                mapped = first_output[column]
                if mapped not in order:
                    order.append(mapped)
            elif column not in child.constants:
                break

        def chunks() -> Iterator[ColumnChunk]:
            for chunk in child.chunks:
                length = chunk.length
                yield ColumnChunk(
                    tuple(
                        chunk.columns[value]
                        if kind == "col"
                        else _constant_column(value, length)
                        for kind, value in specs
                    ),
                    length,
                )

        return ColumnStream(chunks(), tuple(order), frozenset(constants))

    def _filter(
        self, node: NonLiteralFilterNode, entry: OperatorMetrics
    ) -> ColumnStream:
        child = self._pull(node.child, entry)
        positions = node.child.variable_positions()
        guarded = [positions[variable] for variable in node.variables]
        is_literal = self.store.dictionary.is_literal_id

        def chunks() -> Iterator[ColumnChunk]:
            for chunk in child.chunks:
                if len(guarded) == 1:
                    column = chunk.columns[guarded[0]]
                    keep = [
                        i for i, value in enumerate(column)
                        if not is_literal(value)
                    ]
                else:
                    columns = [chunk.columns[g] for g in guarded]
                    keep = [
                        i
                        for i in range(chunk.length)
                        if not any(is_literal(col[i]) for col in columns)
                    ]
                if len(keep) == chunk.length:
                    yield chunk
                elif keep:
                    yield chunk.take(keep)

        return ColumnStream(chunks(), child.order, child.constants)

    def _distinct(self, node: DistinctNode, entry: OperatorMetrics) -> ColumnStream:
        child = self._pull(node.child, entry)
        arity = node.arity
        if _total_order([child], arity) is not None:
            # Sorted distinct: adjacent comparison, zero buffered state.
            def sorted_chunks() -> Iterator[ColumnChunk]:
                previous: Optional[Row] = None
                for chunk in child.chunks:
                    columns = chunk.columns
                    keep: List[int] = []
                    for i in range(chunk.length):
                        row = tuple(col[i] for col in columns)
                        if row != previous:
                            previous = row
                            keep.append(i)
                    if len(keep) == chunk.length:
                        yield chunk
                    elif keep:
                        yield chunk.take(keep)

            return ColumnStream(
                sorted_chunks(), child.order, child.constants
            )

        return ColumnStream(
            self._hashed_distinct(child.chunks, entry),
            child.order,
            child.constants,
        )

    def _hashed_distinct(
        self, chunks: Iterator[ColumnChunk], entry: OperatorMetrics
    ) -> Iterator[ColumnChunk]:
        """Drop the rows of *chunks* already seen, through a seen-set
        whose rows are charged to *entry* as buffered state."""
        seen: set = set()
        for chunk in chunks:
            keep = []
            for i, row in enumerate(chunk.rows()):
                if row not in seen:
                    seen.add(row)
                    keep.append(i)
            if keep:
                self.metrics.buffer(entry, len(keep))
                if len(keep) == chunk.length:
                    yield chunk
                else:
                    yield chunk.take(keep)

    # -- joins ---------------------------------------------------------

    def _join(self, node: JoinNode, entry: OperatorMetrics) -> ColumnStream:
        left = self._pull(node.left, entry)
        right = self._pull(node.right, entry)
        variables = node.join_variables
        left_key = [
            node.left.variable_positions()[v] for v in variables
        ]
        right_key = [
            node.right.variable_positions()[v] for v in variables
        ]
        keep = node.keep_right_indexes
        left_arity = node.left.arity
        constants = frozenset(left.constants) | frozenset(
            left_arity + i
            for i, index in enumerate(keep)
            if index in right.constants
        )
        if variables and left.sorted_by(left_key) and right.sorted_by(right_key):
            return ColumnStream(
                self._merge_join(node, left, right, left_key, right_key, entry),
                tuple(left_key),
                constants,
            )
        # Hash fallback: build on the smaller *estimated* side, stream
        # the other.
        return ColumnStream(
            self._hash_join(node, left, right, left_key, right_key, entry),
            (),
            constants,
        )

    def _merge_join(
        self,
        node: JoinNode,
        left: ColumnStream,
        right: ColumnStream,
        left_key: Sequence[int],
        right_key: Sequence[int],
        entry: OperatorMetrics,
    ) -> Iterator[ColumnChunk]:
        """Streaming merge join of two key-sorted streams.

        Only the current equal-key group of each side is held (and
        charged to the metrics while held) — the sorted-run payoff: a
        join over grouped type-atom unions touches each group once.
        """
        keep = node.keep_right_indexes
        arity = node.arity
        if len(left_key) == 1:
            li, ri = left_key[0], right_key[0]
            lkey_of = lambda row: row[li]  # noqa: E731
            rkey_of = lambda row: row[ri]  # noqa: E731
        else:
            lkey_of = lambda row: tuple(row[i] for i in left_key)  # noqa: E731
            rkey_of = lambda row: tuple(row[i] for i in right_key)  # noqa: E731

        def rows() -> Iterator[Row]:
            left_rows = left.iter_rows()
            right_rows = right.iter_rows()
            lrow = next(left_rows, None)
            rrow = next(right_rows, None)
            while lrow is not None and rrow is not None:
                lkey = lkey_of(lrow)
                rkey = rkey_of(rrow)
                if lkey < rkey:
                    lrow = next(left_rows, None)
                elif lkey > rkey:
                    rrow = next(right_rows, None)
                else:
                    lgroup = [lrow]
                    lrow = next(left_rows, None)
                    while lrow is not None and lkey_of(lrow) == lkey:
                        lgroup.append(lrow)
                        lrow = next(left_rows, None)
                    rgroup = [tuple(rrow[i] for i in keep)]
                    rrow = next(right_rows, None)
                    while rrow is not None and rkey_of(rrow) == rkey:
                        rgroup.append(tuple(rrow[i] for i in keep))
                        rrow = next(right_rows, None)
                    held = len(lgroup) + len(rgroup)
                    self.metrics.buffer(entry, held)
                    for lmatch in lgroup:
                        for rmatch in rgroup:
                            yield lmatch + rmatch
                    self.metrics.buffer(entry, -held)

        return self._chunked_rows(rows(), arity)

    def _hash_join(
        self,
        node: JoinNode,
        left: ColumnStream,
        right: ColumnStream,
        left_key: Sequence[int],
        right_key: Sequence[int],
        entry: OperatorMetrics,
    ) -> Iterator[ColumnChunk]:
        keep = node.keep_right_indexes
        arity = node.arity
        build_left = node.left.estimated_rows <= node.right.estimated_rows

        # Single-variable keys (the common case) read the key column
        # directly and materialize probe-side rows only on a match —
        # the probe never builds tuples for rows that join to nothing.
        single_left = left_key[0] if len(left_key) == 1 else None
        single_right = right_key[0] if len(right_key) == 1 else None

        def build(stream: ColumnStream, key: Sequence[int], single) -> dict:
            table: dict = {}
            setdefault = table.setdefault
            for chunk in stream.chunks:
                if single is not None:
                    keycol = chunk.columns[single]
                    for i, row in enumerate(chunk.rows()):
                        setdefault(keycol[i], []).append(row)
                else:
                    for row in chunk.rows():
                        setdefault(
                            tuple(row[i] for i in key), []
                        ).append(row)
                self.metrics.buffer(entry, chunk.length)
            return table

        def probe(
            stream: ColumnStream, key: Sequence[int], single, table: dict
        ) -> Iterator[Tuple[Row, list]]:
            get = table.get
            for chunk in stream.chunks:
                if single is not None:
                    keycol = chunk.columns[single]
                    columns = chunk.columns
                    for i in range(chunk.length):
                        matches = get(keycol[i])
                        if matches:
                            yield tuple(col[i] for col in columns), matches
                else:
                    for row in chunk.rows():
                        matches = get(tuple(row[i] for i in key))
                        if matches:
                            yield row, matches

        def rows() -> Iterator[Row]:
            if build_left:
                table = build(left, left_key, single_left)
                for rrow, matches in probe(
                    right, right_key, single_right, table
                ):
                    kept = tuple(rrow[i] for i in keep)
                    for lrow in matches:
                        yield lrow + kept
            else:
                table = build(right, right_key, single_right)
                # Project build rows to the kept columns once, up
                # front, instead of per emitted output row.
                for group in table.values():
                    group[:] = [tuple(r[i] for i in keep) for r in group]
                for lrow, matches in probe(
                    left, left_key, single_left, table
                ):
                    for rkept in matches:
                        yield lrow + rkept

        return self._chunked_rows(rows(), arity)


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


def _constant_column(value, length: int):
    if isinstance(value, int):
        return as_column([value]) * length
    return [value] * length


# ---------------------------------------------------------------------------
# Entry point


def run_columnar(
    plan: PlanNode,
    store,
    budget=None,
    batch_size: int = DEFAULT_COLUMNAR_BATCH_SIZE,
    metrics: Optional[PipelineMetrics] = None,
) -> Tuple[List[Row], PipelineMetrics]:
    """Execute *plan* against *store* columnar-ly; returns (rows, metrics).

    The collected answer is distinct (joins and projections may
    repeat rows; the final seen-set removes them), metrics report rows
    *represented* (a chunk of 1,024 rows counts 1,024, whatever its
    Python object count), and a
    :class:`~repro.resilience.errors.BudgetExceeded` mid-stream carries
    the metrics snapshot and partial rows (``partial`` /
    ``partial_rows``) — a budget abort reports how far execution got,
    it does not erase it.  The differential harness compares its answers
    with SQLite's and the reference evaluator's.
    """
    if metrics is None:
        metrics = PipelineMetrics()
    pipeline = _ColumnarPipeline(store, metrics, budget, batch_size)
    collect = OperatorMetrics("Collect")
    started = time.perf_counter()
    if budget is not None:
        budget.start()
    seen: set = set()
    rows: List[Row] = []
    try:
        for chunk in pipeline.stream(plan).chunks:
            fresh = 0
            for row in chunk.rows():
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
                    fresh += 1
            if fresh:
                metrics.buffer(collect, fresh)
    except Exception as exc:
        metrics.elapsed_seconds = time.perf_counter() - started
        if hasattr(exc, "diagnostics"):
            exc.partial = metrics.as_dict()
            exc.partial_rows = list(rows)
        raise
    metrics.elapsed_seconds = time.perf_counter() - started
    return rows, metrics
