"""The columnar engine's column kernels against row-at-a-time references.

Leaves of drawn rows are streamed through the real
:class:`~repro.columnar.engine._ColumnarPipeline`, so every operator
takes the route its inputs' order claims select, packs its keys at the
execution's width and meters its output.  Hypothesis draws:

* 1-, 2- and 3-column join keys with duplicate keys on both sides, a
  right side that keeps no column, and either side as the hash join's
  build side (the smaller estimate builds);
* batch sizes 1–7, so equal-key groups, duplicate runs and merge rounds
  cross chunk boundaries;
* ids up to ``2**width - 1``: the dictionary holds ``2**width`` ids, so
  the largest id fills every bit a packed key gives it.

The hash join and the merge join must equal a nested-loop reference;
hashed distinct, sorted distinct and the k-way sorted union must equal
``sorted(set(rows))``.
"""

from __future__ import annotations

from array import array
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.columnar.chunks import pack, unpack
from repro.engine.ir import DistinctNode, JoinNode, UnionNode
from repro.engine.metrics import PipelineMetrics
from repro.query import Variable
from repro.storage import TripleStore

from .test_merge_join import _leaf, _nested_loop, _Pipeline, _Rows

KEYS = [Variable("k1"), Variable("k2"), Variable("k3")]
a, b = Variable("a"), Variable("b")


def _array(column):
    return array("q", column)


def _side(labels, rows, key, estimate):
    """A leaf of ``array('q')`` columns: sorted by *key* (then the
    rest) when a key is given, in drawn order claiming no order
    otherwise."""
    leaf = _leaf(labels, rows, key) if key is not None else _Rows(labels, rows, ())
    leaf.column_type = _array
    leaf.estimated_rows = estimate
    return leaf


def _run(node, width, batch_size):
    """*node*'s rows and order claim, over a dictionary of ``2**width``
    ids, with the pipeline's metrics."""
    store = TripleStore()
    store.dictionary.reserve(2 ** width)
    pipeline = _Pipeline(store, PipelineMetrics(), None, batch_size)
    assert pipeline.width == width
    stream = pipeline.stream(node)
    rows = [row for chunk in stream.chunks for row in chunk.rows()]
    return rows, stream.order, pipeline.metrics


def _ids(width):
    top = 2 ** width - 1
    return st.one_of(st.just(top), st.integers(min_value=0, max_value=top))


_settings = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def _join_case(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    arity = draw(st.integers(min_value=1, max_value=3))
    ids = _ids(width)
    # Left (k1.., a); right (b, ..k1): the key sits at different
    # positions on the two sides, in reverse order on the right.
    left = draw(st.lists(st.tuples(*[ids] * (arity + 1)), max_size=12))
    right = draw(st.lists(st.tuples(*[ids] * (arity + 1)), max_size=12))
    return width, arity, left, right


def _join_node(arity, left, right, keep_nothing, merge, build_left):
    left_labels = KEYS[:arity] + [a]
    right_labels = [b] + KEYS[:arity][::-1]
    if keep_nothing:
        right_labels = right_labels[1:]
        right = [row[1:] for row in right]
    # Join variables follow the right side's order: k_arity .. k1.
    join_vars = KEYS[:arity][::-1]
    left_key = [left_labels.index(v) for v in join_vars]
    right_key = [right_labels.index(v) for v in join_vars]
    left_estimate, right_estimate = (1.0, 2.0) if build_left else (2.0, 1.0)
    node = JoinNode(
        _side(left_labels, left, left_key if merge else None, left_estimate),
        _side(right_labels, right, right_key if merge else None, right_estimate),
    )
    assert node.join_variables == tuple(join_vars)
    return node, left_key


@_settings
@given(
    case=_join_case(),
    keep_nothing=st.booleans(),
    merge=st.booleans(),
    build_left=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=7),
)
@example(
    case=(3, 3, [(7, 7, 7, 7), (7, 7, 7, 0), (0, 7, 7, 7)], [(7, 7, 7, 7), (1, 7, 7, 7)]),
    keep_nothing=False, merge=False, build_left=False, batch_size=1,
)
@example(
    case=(3, 2, [(7, 7, 7), (7, 7, 0), (7, 0, 7)], [(7, 7, 7), (0, 7, 7), (7, 0, 7)]),
    keep_nothing=True, merge=True, build_left=True, batch_size=2,
)
def test_joins_match_nested_loop(case, keep_nothing, merge, build_left, batch_size):
    width, arity, left, right = case
    node, left_key = _join_node(arity, left, right, keep_nothing, merge, build_left)

    rows, order, metrics = _run(node, width, batch_size)

    expected = _nested_loop(node, node.left.rows, node.right.rows)
    assert Counter(rows) == Counter(expected)
    assert order == (tuple(left_key) if merge else ())
    if merge:
        keys = [[row[i] for i in left_key] for row in rows]
        assert keys == sorted(keys)
    entry = metrics.per_operator()[0]
    assert entry.rows_out == len(expected)
    assert entry.buffered_rows == 0  # build side and groups released


@st.composite
def _rows_case(draw, inputs):
    width = draw(st.integers(min_value=1, max_value=6))
    arity = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[_ids(width)] * arity)
    # Few distinct rows, drawn often: duplicates within and across inputs.
    pool = draw(st.lists(row, min_size=1, max_size=6))
    lists = draw(st.lists(
        st.lists(st.sampled_from(pool), max_size=10),
        min_size=inputs, max_size=inputs,
    ))
    order = draw(st.permutations(range(arity)))
    return width, arity, lists, tuple(order)


@_settings
@given(
    case=_rows_case(1),
    sorted_input=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=7),
)
@example(
    case=(2, 3, [[(3, 3, 3), (3, 3, 3), (0, 3, 3), (3, 3, 3)]], (2, 0, 1)),
    sorted_input=True, batch_size=1,
)
def test_distinct_is_sorted_set(case, sorted_input, batch_size):
    width, arity, (rows,), order = case
    labels = KEYS[:arity]
    leaf = _side(labels, rows, order if sorted_input else None, 0.0)
    node = DistinctNode(leaf)

    out, claim, metrics = _run(node, width, batch_size)

    assert sorted(out) == sorted(set(rows))
    assert len(out) == len(set(out))
    entry = metrics.per_operator()[0]
    if sorted_input:
        # Adjacent comparison: rows stay in order, nothing is buffered.
        assert claim == leaf.order
        assert out == sorted(out, key=lambda row: [row[c] for c in order])
        assert entry.peak_buffered_rows == 0
    else:
        assert entry.peak_buffered_rows == len(set(rows))


@_settings
@given(
    case=_rows_case(3),
    sorted_input=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=7),
)
@example(
    case=(1, 2, [[(1, 1), (0, 1)], [(1, 1)], [(1, 0), (1, 1), (1, 1)]], (1, 0)),
    sorted_input=True, batch_size=1,
)
def test_union_is_sorted_set(case, sorted_input, batch_size):
    width, arity, inputs, order = case
    labels = KEYS[:arity]
    leaves = [_side(labels, rows, order if sorted_input else None, 0.0) for rows in inputs]
    node = UnionNode(leaves, labels)

    out, claim, _ = _run(node, width, batch_size)

    everything = [row for rows in inputs for row in rows]
    assert sorted(out) == sorted(set(everything))
    assert len(out) == len(set(out))
    if sorted_input:
        # The k-way merge: its output follows the inputs' total order.
        assert claim == order
        assert out == sorted(out, key=lambda row: [row[c] for c in order])
    else:
        assert claim == ()


@given(
    width=st.integers(min_value=1, max_value=20),
    rows=st.lists(st.lists(st.integers(min_value=0), min_size=3, max_size=3)),
)
def test_pack_sorts_like_rows_and_unpacks(width, rows):
    rows = [tuple(v % 2 ** width for v in row) for row in rows]
    columns = [array("q", column) for column in zip(*rows)] or [array("q")] * 3
    keys = pack(columns, width, len(rows))
    assert sorted(range(len(rows)), key=keys.__getitem__) == sorted(
        range(len(rows)), key=rows.__getitem__
    )
    assert list(zip(*unpack(keys, 3, width))) == rows
