"""Logical operations: the WAL's payload vocabulary.

Each WAL record carries exactly **one** logical operation, encoded as
an op tag plus the triple in N-Triples syntax::

    T+ <s> <p> <o> .      data/schema triple inserted
    T- <s> <p> <o> .      triple deleted
    C+ <s> <p> <o> .      schema constraint added (triple form)
    C- <s> <p> <o> .      schema constraint removed

One-op-one-record is what makes recovery *operation-atomic*: the
truncation rule drops suffixes at record granularity, so a recovered
store always equals some operation-prefix replay — a constraint
addition can never be half-applied.  The side effects a constraint
implies (the closure's entailed schema triples in the store, the
saturator's re-saturation) are deliberately *not* logged; replaying
the ``C±`` record re-derives the store's through :func:`apply_op`, the
single code path shared by the live mutation methods and recovery.
Recovery replays without a saturator and saturates the recovered store
once, at the end.
"""

from __future__ import annotations

from typing import Optional

from ..rdf.io import ParseError, parse_line
from ..rdf.triples import Triple
from ..saturation.incremental import IncrementalSaturator
from ..schema.constraints import Constraint
from ..storage.store import TripleStore

#: Op tags (payload prefix, one space, then the triple's n3 line).
OP_INSERT = "T+"
OP_DELETE = "T-"
OP_CONSTRAINT_ADD = "C+"
OP_CONSTRAINT_REMOVE = "C-"

OPS = frozenset((OP_INSERT, OP_DELETE, OP_CONSTRAINT_ADD, OP_CONSTRAINT_REMOVE))


class WALFormatError(ValueError):
    """A structurally valid WAL record carries an undecodable payload.

    Distinct from frame corruption (CRC catches that): this means the
    record was written by something that is not this codec.  Recovery
    treats it like corruption — truncate, don't crash.
    """


def encode_op(op: str, triple: Triple) -> bytes:
    """Serialize one logical operation into a WAL payload."""
    if op not in OPS:
        raise ValueError("unknown WAL op %r" % op)
    return ("%s %s" % (op, triple.n3())).encode("utf-8")


def decode_op(payload: bytes):
    """Parse a WAL payload back into ``(op, triple)``."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        raise WALFormatError("WAL payload is not UTF-8")
    op, _, rest = text.partition(" ")
    if op not in OPS:
        raise WALFormatError("unknown WAL op tag %r" % op[:10])
    try:
        triple = parse_line(rest)
    except ParseError as exc:
        raise WALFormatError("bad WAL triple: %s" % exc)
    return op, triple


# ---------------------------------------------------------------------------
# Application (live path and recovery replay share these)


def apply_constraint_add(
    store: TripleStore,
    saturator: Optional[IncrementalSaturator],
    constraint: Constraint,
) -> bool:
    """Add a constraint and its derived effects; True when new."""
    if not store.schema.add(constraint):
        return False
    # The store mirrors the closure as schema triples (TripleStore.load
    # does the same); inserts are idempotent, so re-deriving the whole
    # entailed set per constraint stays correct.
    store.encode_constraints([constraint])
    store.insert_many(store.schema.entailed_triples())
    if saturator is not None:
        saturator.add_constraint(constraint)
    return True


def apply_constraint_remove(
    store: TripleStore,
    saturator: Optional[IncrementalSaturator],
    constraint: Constraint,
) -> bool:
    """Remove a constraint and retract no-longer-entailed schema
    triples from the store; True when it was present."""
    stale = set(store.schema.entailed_triples())
    if not store.schema.remove(constraint):
        return False
    stale -= set(store.schema.entailed_triples())
    for triple in stale:
        store.delete(triple)
    if saturator is not None:
        saturator.remove_constraint(constraint)
    return True


def apply_op(
    store: TripleStore,
    saturator: Optional[IncrementalSaturator],
    op: str,
    triple: Triple,
) -> str:
    """Apply one decoded operation; returns the epoch class it bumps
    (``"data"`` or ``"schema"``), mirroring the cache's
    :meth:`~repro.cache.cache.QueryCache.note_triple_change` split."""
    if op == OP_INSERT:
        inserted = store.insert(triple)
        if inserted and saturator is not None and triple.is_data_triple():
            saturator.insert(triple)
        return "schema" if triple.is_schema_triple() else "data"
    if op == OP_DELETE:
        deleted = store.delete(triple)
        if deleted and saturator is not None and triple.is_data_triple():
            saturator.delete(triple)
        return "schema" if triple.is_schema_triple() else "data"
    constraint = Constraint.from_triple(triple)
    if op == OP_CONSTRAINT_ADD:
        apply_constraint_add(store, saturator, constraint)
    else:
        apply_constraint_remove(store, saturator, constraint)
    return "schema"
