"""The column-batch exchange format of the columnar engine.

Operators exchange :class:`ColumnChunk` batches — a row count plus one
integer id column per output position (an ``array('q')`` slice of a
sorted run, or the list a gather produced) — wrapped in a
:class:`ColumnStream` that also carries *sortedness metadata*: which
lexicographic column order the stream's rows are guaranteed to follow,
and which columns are constant across the whole stream.  The metadata
is what lets the engine commit to merge joins and k-way sorted unions
only when they are actually safe, and silently fall back to hashing
otherwise: an order claim must always be *true*, never merely hoped.

Every cell is an id, so rows never exist as Python tuples inside an
operator.  Operators move whole columns: slices, and gathers along
index vectors (:func:`gather`) into lists, whose ints already exist,
so reading them again allocates nothing.  Where a row has to be one value — a
multi-column join key, a distinct or union seen-set entry, an item of
a k-way merge — :func:`pack` folds its ids into one int,
``k << width | id``.  Ids are dense and non-negative, so a packed int
sorts like the row it packs, and the garbage collector never tracks
it.  Rows become tuples only at the answer boundary.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, lshift, or_, rshift
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = ["ColumnChunk", "ColumnStream", "gather", "pack", "unpack"]


def gather(column: Sequence[int], indexes: Iterable[int]) -> List[int]:
    """The values of *column* at *indexes*, in order."""
    return list(map(column.__getitem__, indexes))


def pack(columns: Sequence[Sequence[int]], width: int, length: int) -> Sequence[int]:
    """One int per row of *columns*: the row's ids, each below
    ``2**width``, packed most significant first.  A single column is
    its own key; no column packs every row to 0."""
    if not columns:
        return [0] * length
    keys = columns[0]
    if len(columns) == 1:
        return keys
    shift = repeat(width)
    for column in columns[1:]:
        keys = map(or_, map(lshift, keys, shift), column)
    return list(keys)


def unpack(keys: Sequence[int], arity: int, width: int) -> List[Iterable[int]]:
    """The *arity* id columns of packed *keys* (lazy; the inverse of
    :func:`pack`)."""
    if arity <= 1:
        return [keys][:arity]
    mask = repeat((1 << width) - 1)
    # The first id needs no mask, the last no shift.
    shifted = [map(rshift, keys, repeat(width * t)) for t in range(arity - 1, 0, -1)]
    return shifted[:1] + [map(and_, column, mask) for column in shifted[1:] + [keys]]


class ColumnChunk:
    """A batch of rows stored column-wise.

    ``length`` is explicit because zero-arity chunks are legal: a scan
    with all three positions bound yields the empty row ``()`` once
    when the triple is present, and that row count cannot be recovered
    from an empty column tuple.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[Sequence[int]], length: int = None):
        self.columns: Tuple[Sequence[int], ...] = tuple(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self.length = length

    def __len__(self) -> int:
        return self.length

    @property
    def arity(self) -> int:
        return len(self.columns)

    def rows(self) -> Iterator[Tuple]:
        """The rows as tuples (for inspection; no operator reads them)."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    def row(self, index: int) -> Tuple:
        return tuple(column[index] for column in self.columns)

    def take(self, indexes: Sequence[int]) -> "ColumnChunk":
        """A new chunk holding the selected row positions, in order —
        the materialization of a boolean-mask selection."""
        return ColumnChunk(
            tuple(gather(column, indexes) for column in self.columns),
            len(indexes),
        )

    def __repr__(self) -> str:
        return "ColumnChunk(%d cols × %d rows)" % (self.arity, self.length)


class ColumnStream:
    """A lazy sequence of chunks plus its sortedness metadata.

    ``order`` — column indexes the rows are lexicographically sorted
    by, in significance order (a *guarantee*, possibly empty).
    ``constants`` — column indexes whose value never changes across
    the stream (a reformulation-bound constant column, for instance).
    Constant columns are transparent to sortedness: a stream sorted by
    column 0 with column 1 constant is also sorted by (0, 1) and
    (1, 0).
    """

    __slots__ = ("chunks", "order", "constants")

    def __init__(
        self,
        chunks: Iterator[ColumnChunk],
        order: Tuple[int, ...] = (),
        constants: frozenset = frozenset(),
    ):
        self.chunks = chunks
        self.order = tuple(order)
        self.constants = frozenset(constants)

    def sorted_by(self, key: Sequence[int]) -> bool:
        """True when the stream's rows are lexicographically sorted by
        the *key* column sequence (modulo constant columns)."""
        significant: List[int] = [
            column for column in self.order if column not in self.constants
        ]
        depth = 0
        for column in key:
            if column in self.constants:
                continue
            if depth < len(significant) and significant[depth] == column:
                depth += 1
            else:
                return False
        return True

    def fully_sorted(self, arity: int) -> bool:
        """Sorted by every column — the precondition for merge-dedup
        unions and streaming distinct."""
        return self.sorted_by(range(arity))

    def __repr__(self) -> str:
        return "ColumnStream(order=%s, constants=%s)" % (
            self.order,
            sorted(self.constants),
        )
