"""The columnar engine's merge join, tested directly.

Two leaf inputs with hand-picked key-sorted rows are joined through
:class:`~repro.columnar.engine._ColumnarPipeline`, so the join takes
its real route: ``_join`` sees both order claims, merges, and meters.

* **Semantics** (hypothesis): over duplicate keys, 1- and 2-column
  keys, a right side that keeps no column, empty sides, and batch
  sizes 1–4 (equal-key groups then span chunk boundaries on both
  sides), the rows equal a nested-loop reference and come out sorted
  by the left key.
* **Work bound**: a 1-row side against a 50k-row sorted side reads
  the large side's key column O(log n) times per chunk.  The column
  counts every item read — indexing, slicing and iteration — so a
  join that stepped through the large side row by row fails here
  deterministically, without any timing.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar.chunks import ColumnChunk, ColumnStream
from repro.columnar.engine import _ColumnarPipeline
from repro.engine.ir import JoinNode, PlanNode
from repro.engine.metrics import PipelineMetrics
from repro.query import Variable
from repro.storage import TripleStore

x, y, a, b = Variable("x"), Variable("y"), Variable("a"), Variable("b")


class _Rows(PlanNode):
    """A leaf emitting fixed rows, claiming the order it is given."""

    def __init__(self, labels, rows, order, column_type=list):
        super().__init__(labels)
        self.rows = rows
        self.order = tuple(order)
        self.column_type = column_type


class _Pipeline(_ColumnarPipeline):
    """The real pipeline, taught to stream :class:`_Rows` leaves."""

    def _operator(self, node, entry):
        if not isinstance(node, _Rows):
            return super()._operator(node, entry)
        step = self.batch_size

        def chunks():
            for start in range(0, len(node.rows), step):
                batch = node.rows[start:start + step]
                yield ColumnChunk(
                    [node.column_type(column) for column in zip(*batch)],
                    len(batch),
                )

        return ColumnStream(chunks(), node.order)


def _leaf(labels, rows, key):
    """A leaf over *rows* sorted by the *key* columns, then the rest."""
    order = list(key) + [i for i in range(len(labels)) if i not in key]
    rows = sorted(rows, key=lambda row: [row[i] for i in order])
    return _Rows(labels, rows, order)


def _run(node, batch_size):
    # The leaves' values must be ids of the store's dictionary: its
    # size sets the width multi-column keys are packed at.
    store = TripleStore()
    store.dictionary.reserve(1 + max(
        (v for leaf in node.children() for row in leaf.rows for v in row),
        default=0,
    ))
    pipeline = _Pipeline(store, PipelineMetrics(), None, batch_size)
    stream = pipeline.stream(node)
    rows = [row for chunk in stream.chunks for row in chunk.rows()]
    return rows, stream.order, pipeline.metrics


def _nested_loop(node, left_rows, right_rows):
    left_pos = node.left.variable_positions()
    right_pos = node.right.variable_positions()
    return [
        lrow + tuple(rrow[i] for i in node.keep_right_indexes)
        for lrow in left_rows
        for rrow in right_rows
        if all(
            lrow[left_pos[v]] == rrow[right_pos[v]]
            for v in node.join_variables
        )
    ]


_keys = st.integers(min_value=0, max_value=4)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    key_width=st.sampled_from([1, 2]),
    keep_nothing=st.booleans(),
    left=st.lists(st.tuples(_keys, _keys, _keys), max_size=14),
    right=st.lists(st.tuples(_keys, _keys, _keys), max_size=14),
    batch_size=st.integers(min_value=1, max_value=4),
)
def test_merge_join_matches_nested_loop(
    key_width, keep_nothing, left, right, batch_size
):
    # Left (x, y, a); right (y, x, b) or, keeping nothing, only the
    # join variables.  Join variables follow the right's column order.
    join_vars = [y, x][:key_width]
    left_labels = (x, y, a)
    right_labels = [y, x, b] if key_width == 2 else [y, b]
    if keep_nothing:
        right_labels = right_labels[:key_width]
    right = [row[: len(right_labels)] for row in right]
    left_key = [left_labels.index(v) for v in join_vars]
    right_key = [right_labels.index(v) for v in join_vars]
    node = JoinNode(
        _leaf(left_labels, left, left_key),
        _leaf(right_labels, right, right_key),
    )
    assert node.join_variables == tuple(join_vars)
    if keep_nothing:
        assert node.keep_right_indexes == ()

    rows, order, metrics = _run(node, batch_size)

    assert order == tuple(left_key)  # the merge path was taken
    expected = _nested_loop(node, node.left.rows, node.right.rows)
    assert Counter(rows) == Counter(expected)
    keys = [tuple(row[i] for i in left_key) for row in rows]
    assert keys == sorted(keys)
    entry = metrics.per_operator()[0]
    assert entry.rows_out == len(expected)
    assert entry.buffered_rows == 0  # every group released


class _CountingColumn(list):
    """A column that counts the items read from it, however read."""

    reads = 0

    def __getitem__(self, index):
        value = super().__getitem__(index)
        _CountingColumn.reads += len(value) if isinstance(index, slice) else 1
        return value

    def __iter__(self):
        for value in super().__iter__():
            _CountingColumn.reads += 1
            yield value


def _probe_against_large_side(large_on_left: bool):
    n, batch_size = 50_000, 1024
    large = _Rows(
        (x, a),
        [(i, i % 7) for i in range(n)],
        (0, 1),
        column_type=_CountingColumn,
    )
    small = _Rows((x, b), [(n - 3, -1)], (0, 1))
    node = JoinNode(large, small) if large_on_left else JoinNode(small, large)
    _CountingColumn.reads = 0
    rows, order, _ = _run(node, batch_size)
    return rows, order, _CountingColumn.reads, math.ceil(n / batch_size)


def test_merge_join_gallops_over_the_large_left_side():
    rows, order, reads, chunks = _probe_against_large_side(True)
    assert order == (0,)
    assert rows == [(49_997, 49_997 % 7, -1)]
    assert reads <= 3 * math.log2(1024) * chunks  # row stepping: >= 50k


def test_merge_join_gallops_over_the_large_right_side():
    rows, order, reads, chunks = _probe_against_large_side(False)
    assert order == (0,)
    assert rows == [(49_997, -1, 49_997 % 7)]
    assert reads <= 3 * math.log2(1024) * chunks
