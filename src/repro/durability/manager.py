"""The durable store facade: a TripleStore whose mutations survive crashes.

:class:`DurableStore` ties the in-memory engine objects (store,
optional incremental saturator, optional query cache) to a WAL and
checkpoint directory.  Logging is *listener-based*: the store's own
mutation notifications drive ``T±`` records, so every effective data
mutation — including ones made directly on ``durable.store`` by other
subsystems — reaches the log.  Constraint changes go through
:meth:`add_constraint` / :meth:`remove_constraint`, which log a single
``C±`` record and suppress the derived triple notifications (the
record re-derives them on replay — one op, one record).

Checkpoint rotation protocol (crash-safe at every byte, see
``tests/test_durability_crash.py``):

1. fsync the current WAL segment *s* (the snapshot must not claim
   state the log could still lose);
2. write the snapshot to a temp file, fsync, atomically rename to
   ``checkpoint-<seq>``, fsync the directory — the checkpoint body
   already points at segment *s+1*, offset 0;
3. only then rotate appends to ``wal-<s+1>`` and prune obsolete files.

A crash before (2) recovers from the previous checkpoint plus all of
segment *s*; a crash after (2) recovers from the new checkpoint, and a
missing ``wal-<s+1>`` reads as an empty log.  Both windows land on the
same logical state.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from ..rdf.graph import Graph
from ..rdf.triples import Triple
from ..schema.constraints import Constraint
from ..schema.schema import Schema
from .checkpoint import build_snapshot, encode_checkpoint
from .io import FileSystem
from .ops import (
    OP_CONSTRAINT_ADD,
    OP_CONSTRAINT_REMOVE,
    OP_DELETE,
    OP_INSERT,
    apply_constraint_add,
    apply_constraint_remove,
    encode_op,
)
from .recovery import (
    RecoveryResult,
    checkpoint_path,
    list_checkpoints,
    list_wal_segments,
    recover,
    wal_path,
)
from .wal import WriteAheadLog

#: The checkpoint temp name (ignored by recovery's name patterns).
_TEMP_NAME = "checkpoint.tmp"

#: How many checkpoints (and their WAL tails) to retain: the newest
#: plus one fallback, so a corrupt latest checkpoint still recovers
#: losslessly.
KEEP_CHECKPOINTS = 2


class DurableStore:
    """A crash-safe :class:`~repro.storage.store.TripleStore`.

    >>> import tempfile
    >>> from repro.rdf import Namespace, RDF_TYPE, Triple
    >>> EX = Namespace("http://example.org/")
    >>> with tempfile.TemporaryDirectory() as directory:
    ...     durable = DurableStore.open(directory)
    ...     _ = durable.insert(Triple(EX.a, RDF_TYPE, EX.C))
    ...     durable.close()
    ...     reopened = DurableStore.open(directory)
    ...     reopened.store.triple_count
    1
    """

    def __init__(
        self,
        directory: str,
        recovery: RecoveryResult,
        io: FileSystem,
        sync: str = "always",
    ):
        self.directory = directory
        self.io = io
        self.sync_policy = sync
        self.recovery = recovery
        self.store = recovery.store
        self.saturator = recovery.saturator
        self.cache = None
        self.data_epoch = recovery.data_epoch
        self.schema_epoch = recovery.schema_epoch
        self.checkpoint_sequence = recovery.checkpoint_sequence or 0
        self.segment = recovery.wal_segment
        self.wal = WriteAheadLog(
            wal_path(directory, self.segment), io=io, sync=sync)
        # Recovery may have truncated a torn tail; resume right after
        # the last valid record.
        self.wal.size = recovery.wal_offset
        self.records_logged = 0
        self._quiet = False
        #: When not None, encoded records accumulate here instead of
        #: being appended individually (see :meth:`batch`).
        self._batch: Optional[List[bytes]] = None
        #: (sequence, wal_segment) of checkpoints known to exist —
        #: drives retention (oldest kept checkpoint pins its segments).
        self._known_checkpoints: List[Tuple[int, int]] = []
        if recovery.checkpoint_sequence is not None:
            self._known_checkpoints.append(
                (recovery.checkpoint_sequence, recovery.wal_segment))
        #: Lazily created snapshot bookkeeping (see :meth:`pin_snapshot`).
        self._snapshots = None
        #: Replication taps: called as ``fn(lsn, payload)`` for every
        #: WAL payload logged, *after* the local epoch bump, in log
        #: order (see :meth:`add_wal_listener`).
        self._wal_listeners: List[Callable[[int, bytes], None]] = []
        #: ``lsn -> state_crc`` fingerprints recorded at checkpoint
        #: time; replication's divergence check compares a follower's
        #: fingerprint against the primary's history at the same LSN.
        self.checkpoint_crcs: Dict[int, int] = {}
        self.store.add_listener(self._on_store_event)

    # ------------------------------------------------------------------
    # Lifecycle

    @classmethod
    def open(
        cls,
        directory: str,
        io: Optional[FileSystem] = None,
        sync: str = "always",
        with_saturator: bool = False,
    ) -> "DurableStore":
        """Recover (or initialize) the durable state under *directory*."""
        io = io if io is not None else FileSystem()
        io.makedirs(directory)
        recovery = recover(
            directory, io=io, with_saturator=with_saturator, truncate=True)
        return cls(directory, recovery, io, sync=sync)

    def close(self) -> None:
        """Flush and release file handles (the store stays usable
        in-memory; reopening the directory recovers this state)."""
        self.wal.sync()
        self.io.close_all()

    # ------------------------------------------------------------------
    # Logging (listener-driven for data, explicit for constraints)

    def _on_store_event(self, triple: Triple, operation: str) -> None:
        if self._quiet:
            return
        self._log(
            OP_INSERT if operation == "insert" else OP_DELETE, triple)

    def _log(self, op: str, triple: Triple) -> None:
        payload = encode_op(op, triple)
        if self._batch is not None:
            self._batch.append(payload)
        else:
            self.wal.append(payload)
        self.records_logged += 1
        if op in (OP_CONSTRAINT_ADD, OP_CONSTRAINT_REMOVE) or (
            triple.is_schema_triple()
        ):
            self.schema_epoch += 1
        else:
            self.data_epoch += 1
        for listener in self._wal_listeners:
            listener(self.lsn, payload)

    # ------------------------------------------------------------------
    # Replication hooks

    @property
    def lsn(self) -> int:
        """The log sequence number: how many operations this state is
        the result of.  Every op bumps exactly one of the two epochs,
        both are checkpointed and replayed by recovery, so the LSN is
        durable for free and two stores with equal op histories agree
        on it."""
        return self.data_epoch + self.schema_epoch

    def add_wal_listener(self, listener: Callable[[int, bytes], None]) -> None:
        """Subscribe to every WAL payload as it is logged.  Called as
        ``listener(lsn, payload)`` where *lsn* is the LSN the store
        reached by applying that record — the replication shipping
        tap.  Listeners fire in log order, including inside
        :meth:`batch` (batching coalesces the I/O, not the stream)."""
        self._wal_listeners.append(listener)

    def remove_wal_listener(self, listener) -> None:
        """Unsubscribe a :meth:`add_wal_listener` tap (fencing an old
        primary detaches its shipping taps)."""
        if listener in self._wal_listeners:
            self._wal_listeners.remove(listener)

    def state_crc(self) -> int:
        """A position-independent fingerprint of the logical state:
        CRC32 of the canonical checkpoint encoding with the sequence /
        segment / offset fields zeroed.  Two stores that applied the
        same op history have equal fingerprints regardless of how
        often either checkpointed; replication uses this for
        divergence detection and the byte-identity invariant."""
        body = build_snapshot(
            self.store, 0, 0, 0, self.data_epoch, self.schema_epoch)
        return zlib.crc32(encode_checkpoint(body))

    # ------------------------------------------------------------------
    # Mutations (the live path shares apply_* with recovery replay)

    def insert(self, triple: Triple) -> bool:
        """Insert one triple durably; True when it was new."""
        inserted = self.store.insert(triple)  # listener logs T+
        if inserted and self.saturator is not None and triple.is_data_triple():
            self.saturator.insert(triple)
        return inserted

    def delete(self, triple: Triple) -> bool:
        """Delete one triple durably; True when it was present."""
        deleted = self.store.delete(triple)  # listener logs T-
        if deleted and self.saturator is not None and triple.is_data_triple():
            self.saturator.delete(triple)
        return deleted

    def add_constraint(self, constraint: Constraint) -> bool:
        """Add a schema constraint durably (single ``C+`` record; the
        derived schema triples are re-derived on replay)."""
        self._prepare_snapshot_write()
        self._quiet = True
        try:
            added = apply_constraint_add(self.store, self.saturator, constraint)
        finally:
            self._quiet = False
        if added:
            self._log(OP_CONSTRAINT_ADD, constraint.to_triple())
            if self.cache is not None:
                self.cache.note_schema_change()
        return added

    def remove_constraint(self, constraint: Constraint) -> bool:
        """Remove a schema constraint durably (single ``C-`` record)."""
        self._prepare_snapshot_write()
        self._quiet = True
        try:
            removed = apply_constraint_remove(
                self.store, self.saturator, constraint)
        finally:
            self._quiet = False
        if removed:
            self._log(OP_CONSTRAINT_REMOVE, constraint.to_triple())
            if self.cache is not None:
                self.cache.note_schema_change()
        return removed

    @contextmanager
    def batch(self):
        """Coalesce WAL appends into a single write.

        Record *contents and order* are identical to the unbatched
        path — only the I/O granularity changes — so replay semantics
        are untouched.  Reentrant: a nested batch joins the outer one.
        """
        if self._batch is not None:
            yield
            return
        self._batch = []
        try:
            yield
        finally:
            records, self._batch = self._batch, None
            self.wal.append_many(records)

    def load(self, graph: Graph, schema: Optional[Schema] = None) -> int:
        """Bulk-load a graph durably: constraints first (each a ``C+``
        record), then data triples (one ``T+`` each).  Returns the
        number of WAL records written — the cost E15 measures.

        The WAL records are exactly what :meth:`add_constraint` /
        :meth:`insert` would have written, but the side effects are
        applied in bulk: one closure derivation for the whole
        constraint batch (instead of one per constraint — replay, which
        works record by record, re-derives the same end state, ids
        included, since both encode the constraints first, in log
        order), one
        sort per triple batch (the store's ``insert_many``) and one
        coalesced WAL write.
        """
        before = self.records_logged
        self._prepare_snapshot_write()
        combined = Schema.from_graph(graph)
        if schema is not None:
            for constraint in schema.direct_constraints():
                combined.add(constraint)
        with self.batch():
            added = []
            self._quiet = True
            try:
                # Sorted (as the data below): ids and log must not follow set order.
                for constraint in sorted(combined.direct_constraints(), key=Constraint.to_triple):
                    if self.store.schema.add(constraint):
                        added.append(constraint)
                if added:
                    # The ids replay of the C+ records assigns.
                    self.store.encode_constraints(added)
                    self.store.insert_many(self.store.schema.entailed_triples())
                    if self.saturator is not None:
                        for constraint in added:
                            self.saturator.add_constraint(constraint)
            finally:
                self._quiet = False
            for constraint in added:
                self._log(OP_CONSTRAINT_ADD, constraint.to_triple())
                if self.cache is not None:
                    self.cache.note_schema_change()
            for triple in self.store.insert_many(sorted(graph.data_triples())):
                if self.saturator is not None:
                    self.saturator.insert(triple)
        return self.records_logged - before

    # ------------------------------------------------------------------
    # Checkpointing

    def checkpoint(self) -> str:
        """Snapshot the current state atomically; returns the published
        checkpoint path.  See the module doc for the crash windows."""
        sequence = self.checkpoint_sequence + 1
        next_segment = self.segment + 1
        body = build_snapshot(self.store, sequence, next_segment, 0,
                              self.data_epoch, self.schema_epoch)
        self.wal.sync()
        temp = os.path.join(self.directory, _TEMP_NAME)
        final = checkpoint_path(self.directory, sequence)
        self.io.write(temp, encode_checkpoint(body))
        self.io.sync(temp)
        self.io.replace(temp, final)
        self.io.sync_dir(self.directory)
        # Published: rotate appends to the next segment.
        self.checkpoint_sequence = sequence
        self.segment = next_segment
        self.wal = WriteAheadLog(
            wal_path(self.directory, next_segment),
            io=self.io,
            sync=self.sync_policy,
        )
        self._known_checkpoints.append((sequence, next_segment))
        self.checkpoint_crcs[self.lsn] = self.state_crc()
        if len(self.checkpoint_crcs) > 8:
            for stale in sorted(self.checkpoint_crcs)[:-8]:
                del self.checkpoint_crcs[stale]
        self._prune()
        return final

    def _prune(self) -> None:
        """Drop checkpoints beyond the retention window and the WAL
        segments only they pinned."""
        if len(self._known_checkpoints) <= KEEP_CHECKPOINTS:
            return
        kept = self._known_checkpoints[-KEEP_CHECKPOINTS:]
        min_sequence = min(sequence for sequence, _ in kept)
        min_segment = min(segment for _, segment in kept)
        for sequence, path in list_checkpoints(self.io, self.directory):
            if sequence < min_sequence:
                self.io.remove(path)
        for segment, path in list_wal_segments(self.io, self.directory):
            if segment < min_segment:
                self.io.remove(path)
        self._known_checkpoints = kept

    # ------------------------------------------------------------------
    # Snapshot reads (epoch-pinned, copy-on-write)

    def pin_snapshot(self):
        """Pin the current state for readers: returns a
        :class:`~repro.storage.snapshot.StoreSnapshot` labelled with
        the durable ``(data_epoch, schema_epoch)`` pair at pin time.

        Pinning is O(1); the first write after a pin freezes the
        pre-write state with :meth:`TripleStore.copy`, so in-flight
        readers never observe a concurrent bulk load or saturation
        round; ``QueryAnswerer(snapshot.store())`` answers over it
        without another copy.  Release the handle (or use it as a
        context manager) to free the frozen copy."""
        if self._snapshots is None:
            from ..storage.snapshot import SnapshotManager

            self._snapshots = SnapshotManager(
                self.store,
                label_fn=lambda: (self.data_epoch, self.schema_epoch),
            )
        return self._snapshots.pin()

    def _prepare_snapshot_write(self) -> None:
        """Freeze pinned readers before a mutation the per-triple hooks
        would see too late (constraint changes mutate the schema before
        any triple lands)."""
        if self._snapshots is not None:
            self._snapshots.prepare_write()

    # ------------------------------------------------------------------
    # Cache wiring

    def attach_cache(self, cache) -> None:
        """Attach a :class:`~repro.cache.cache.QueryCache`: restores the
        persisted epochs (monotonically) and subscribes it to live
        mutations."""
        self.cache = cache
        cache.restore_epochs(self.data_epoch, self.schema_epoch)
        cache.watch_store(self.store)

    def __repr__(self) -> str:
        return "DurableStore(%r, <%d triples, segment %d, %d logged>)" % (
            self.directory,
            self.store.triple_count,
            self.segment,
            self.records_logged,
        )
