"""Replica nodes: the primary's shipping tap and the follower's apply loop.

One :class:`ReplicaNode` wraps one :class:`DurableStore` directory and
plays either role:

* As **primary** it taps the store's WAL stream (every logged payload,
  in log order) and frames each record for shipping: an outer
  CRC32-framed WAL record whose payload is ``(repl_epoch, lsn)`` —
  little-endian u64 pair — followed by the inner op payload verbatim.
  The last ``retain`` frames stay in a bounded catch-up log; a
  follower that falls below its floor is re-seeded from a snapshot
  instead of replaying history the primary no longer holds.

* As **follower** it concatenates delivered chunks into a stream
  buffer, decodes the valid prefix (``decode_records`` — torn tails
  truncate, never corrupt), and applies each op *through its own
  DurableStore mutation methods*, so every applied record is re-logged
  locally and the follower's epochs/LSN advance exactly as the
  primary's did.  LSN sequencing makes delivery faults explicit:
  ``lsn < expected`` is a duplicate (skipped), ``lsn > expected`` is a
  gap (buffer dropped, resync requested), a frame from a different
  replication epoch is a stale primary's write (discarded — fencing at
  the stream level).

The node's replication epoch is persisted in a ``replica.meta``
sidecar so a restarted node can present its lineage at the reconnect
handshake.
"""

from __future__ import annotations

import json
import os
import struct
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..durability.checkpoint import build_snapshot, encode_checkpoint
from ..durability.io import FileSystem
from ..durability.manager import DurableStore
from ..durability.ops import (
    OP_CONSTRAINT_ADD,
    OP_DELETE,
    OP_INSERT,
    WALFormatError,
    decode_op,
)
from ..durability.recovery import checkpoint_path
from ..durability.wal import decode_records, encode_record
from ..rdf.graph import Graph
from ..rdf.triples import Triple
from ..schema.constraints import Constraint
from ..schema.schema import Schema
from .errors import PrimaryFenced

#: Outer frame payload prefix: ``(replication epoch, record LSN)``.
SHIP_HEADER = struct.Struct("<QQ")

#: Node-local sidecar persisting the replication epoch across restarts.
META_NAME = "replica.meta"

ROLE_PRIMARY = "primary"
ROLE_FOLLOWER = "follower"

#: Per-node counter names, fixed for stable ``replstatus`` output.
NODE_COUNTER_NAMES = (
    "applied", "dups_skipped", "gaps", "torn_streams",
    "stale_epoch_frames", "resyncs", "reseeds", "fenced_writes",
)


class ReplicaNode:
    """One durable store directory participating in a cluster."""

    def __init__(
        self,
        name: str,
        directory: str,
        io: Optional[FileSystem] = None,
        sync: str = "never",
        with_saturator: bool = False,
        retain: int = 512,
    ):
        self.name = name
        self.directory = directory
        self.io = io if io is not None else FileSystem()
        self.sync_policy = sync
        self.with_saturator = with_saturator
        self.retain = retain
        self.durable = DurableStore.open(
            directory, io=self.io, sync=sync, with_saturator=with_saturator)
        self.role = ROLE_FOLLOWER
        self.alive = True
        self.partitioned = False
        self.fenced = False
        self.fenced_at_epoch: Optional[int] = None
        self.repl_epoch = self._load_meta()
        #: Follower stream state.
        self._buffer = b""
        self.needs_sync = True
        #: Primary catch-up log: ``(lsn, encoded outer frame)``.
        self._ship_log: Deque[Tuple[int, bytes]] = deque()
        self.counters: Dict[str, int] = {c: 0 for c in NODE_COUNTER_NAMES}

    # ------------------------------------------------------------------
    # Identity

    @property
    def lsn(self) -> int:
        return self.durable.lsn

    def state_crc(self) -> int:
        return self.durable.state_crc()

    @property
    def reachable(self) -> bool:
        return self.alive and not self.partitioned

    def _meta_path(self) -> str:
        return os.path.join(self.directory, META_NAME)

    def _load_meta(self) -> int:
        path = self._meta_path()
        if not self.io.exists(path):
            return 0
        try:
            meta = json.loads(self.io.read(path).decode("utf-8"))
            return int(meta.get("repl_epoch", 0))
        except (ValueError, UnicodeDecodeError):
            return 0

    def _save_meta(self) -> None:
        payload = json.dumps({"repl_epoch": self.repl_epoch}).encode("utf-8")
        self.io.write(self._meta_path(), payload)

    # ------------------------------------------------------------------
    # Lifecycle

    def kill(self) -> None:
        """Process death: the store freezes; the directory survives."""
        self.alive = False
        self.durable.close()

    def restart(self) -> None:
        """Reopen the directory through recovery; the node comes back
        as an unsynced follower presenting its persisted lineage."""
        self.durable = DurableStore.open(
            self.directory, io=self.io, sync=self.sync_policy,
            with_saturator=self.with_saturator)
        self.alive = True
        self.role = ROLE_FOLLOWER
        self.fenced = False
        self.fenced_at_epoch = None
        self.repl_epoch = self._load_meta()
        self._buffer = b""
        self.needs_sync = True
        self._ship_log.clear()

    # ------------------------------------------------------------------
    # Primary role

    def promote(self, epoch: int) -> None:
        """Become the primary for *epoch*: install the WAL shipping
        tap and start a fresh catch-up log (history from before the
        promotion is only reachable via reseed)."""
        self.role = ROLE_PRIMARY
        self.fenced = False
        self.fenced_at_epoch = None
        self.repl_epoch = epoch
        self._save_meta()
        self.needs_sync = False
        self._buffer = b""
        self._ship_log.clear()
        self.durable.remove_wal_listener(self._on_wal)
        self.durable.add_wal_listener(self._on_wal)

    def fence(self, epoch: int) -> None:
        """The fencing invariant: once the coordinator moved to
        *epoch*, this node may never accept another write (its tap is
        detached so nothing it half-wrote ships either)."""
        self.fenced = True
        self.fenced_at_epoch = epoch
        self.durable.remove_wal_listener(self._on_wal)

    def demote(self) -> None:
        """Step down to follower (after fencing + heal, pending
        handshake — which will reseed if it wrote past the promotion
        point)."""
        self.durable.remove_wal_listener(self._on_wal)
        self.role = ROLE_FOLLOWER
        self._ship_log.clear()
        self._buffer = b""
        self.needs_sync = True

    def _on_wal(self, lsn: int, payload: bytes) -> None:
        if self.role != ROLE_PRIMARY or self.fenced:
            return
        frame = encode_record(
            SHIP_HEADER.pack(self.repl_epoch, lsn) + payload)
        self._ship_log.append((lsn, frame))
        while len(self._ship_log) > self.retain:
            self._ship_log.popleft()

    @property
    def ship_floor(self) -> int:
        """The lowest LSN still in the catch-up log (followers behind
        it must reseed)."""
        if self._ship_log:
            return self._ship_log[0][0]
        return self.lsn + 1

    def can_ship_from(self, start_lsn: int) -> bool:
        if start_lsn > self.lsn:
            return True  # already caught up; nothing to ship
        return bool(self._ship_log) and start_lsn >= self.ship_floor

    def frames_from(self, start_lsn: int, limit: int) -> List[Tuple[int, bytes]]:
        """Up to *limit* catch-up frames with LSN >= *start_lsn*."""
        out: List[Tuple[int, bytes]] = []
        for lsn, frame in self._ship_log:
            if lsn >= start_lsn:
                out.append((lsn, frame))
                if len(out) >= limit:
                    break
        return out

    def handshake(
        self,
        follower_epoch: int,
        follower_lsn: int,
        follower_crc: int,
        epoch_starts: Dict[int, int],
    ) -> Tuple[str, Optional[str]]:
        """Decide how a reconnecting follower catches up.

        Returns ``("resume", None)`` when the follower's history is a
        verified prefix of ours and the catch-up log still covers its
        position, else ``("reseed", reason)`` with a reason prefixed
        ``"diverged:"`` (the lineages split) or ``"lagged:"`` (prefix
        fine, but history has been pruned past it).

        Divergence evidence, in order: an epoch outside our lineage; an
        LSN past the point where the follower's epoch ended on our
        timeline (an unfenced primary that kept writing); a state-CRC
        mismatch at an LSN we hold a fingerprint for (equal-LSN live
        compare, else the checkpoint-CRC history).  A same-length
        divergent history with no fingerprint on file is undetectable
        by construction — fingerprints exist exactly where checkpoints
        were cut.
        """
        if follower_epoch == 0 and follower_lsn == 0:
            # A brand-new follower: nothing to diverge from.
            if self.lsn == 0 or self.can_ship_from(1):
                return "resume", None
            return "reseed", "bootstrap: empty follower joins at lsn %d" % self.lsn
        if follower_epoch not in epoch_starts:
            return "reseed", (
                "diverged: epoch %d is not in the primary lineage"
                % follower_epoch)
        later = [e for e in epoch_starts if e > follower_epoch]
        end = epoch_starts[min(later)] if later else self.lsn
        if follower_lsn > end:
            return "reseed", (
                "diverged: epoch %d ended at lsn %d but follower is at %d"
                % (follower_epoch, end, follower_lsn))
        if follower_lsn == self.lsn and follower_crc != self.state_crc():
            return "reseed", (
                "diverged: state fingerprint mismatch at lsn %d"
                % follower_lsn)
        recorded = self.durable.checkpoint_crcs.get(follower_lsn)
        if recorded is not None and follower_crc != recorded:
            return "reseed", (
                "diverged: checkpoint fingerprint mismatch at lsn %d"
                % follower_lsn)
        if not self.can_ship_from(follower_lsn + 1):
            return "reseed", (
                "lagged: catch-up log floor is lsn %d, follower needs %d"
                % (self.ship_floor, follower_lsn + 1))
        return "resume", None

    def seed_snapshot(self) -> bytes:
        """Encode the current state as a checkpoint a wiped follower
        directory recovers from (sequence 1, pointing at an empty
        segment-1 WAL)."""
        body = build_snapshot(
            self.durable.store, 1, 1, 0,
            self.durable.data_epoch, self.durable.schema_epoch)
        return encode_checkpoint(body)

    # ------------------------------------------------------------------
    # Writes (primary only — the fencing invariant lives here)

    def _writable(self) -> None:
        if self.role != ROLE_PRIMARY or self.fenced or not self.alive:
            self.counters["fenced_writes"] += 1
            raise PrimaryFenced(
                "node %r refuses writes (%s)" % (
                    self.name,
                    "fenced at epoch %s" % self.fenced_at_epoch
                    if self.fenced else self.role),
                node=self.name,
                epoch=self.fenced_at_epoch or self.repl_epoch,
            )

    def insert(self, triple: Triple) -> bool:
        self._writable()
        return self.durable.insert(triple)

    def delete(self, triple: Triple) -> bool:
        self._writable()
        return self.durable.delete(triple)

    def add_constraint(self, constraint: Constraint) -> bool:
        self._writable()
        return self.durable.add_constraint(constraint)

    def remove_constraint(self, constraint: Constraint) -> bool:
        self._writable()
        return self.durable.remove_constraint(constraint)

    def load(self, graph: Graph, schema: Optional[Schema] = None) -> int:
        self._writable()
        return self.durable.load(graph, schema)

    def checkpoint(self) -> str:
        return self.durable.checkpoint()

    # ------------------------------------------------------------------
    # Follower role

    def adopt(self, epoch: int) -> None:
        """Accept a resume handshake: join *epoch* with a clean stream.
        A previously fenced node is a legitimate follower again — the
        handshake verified its history is a prefix of the new
        timeline."""
        self.repl_epoch = epoch
        self._save_meta()
        self._buffer = b""
        self.needs_sync = False
        self.fenced = False
        self.fenced_at_epoch = None

    def install_seed(self, snapshot_bytes: bytes, epoch: int) -> None:
        """Re-seed from the primary's snapshot: wipe the directory,
        plant the checkpoint, and reopen through the recovery path —
        the exact code ``recovery.py`` proves correct — then join
        *epoch* with a clean stream."""
        self.durable.close()
        for name in self.io.listdir(self.directory):
            self.io.remove(os.path.join(self.directory, name))
        seed_path = checkpoint_path(self.directory, 1)
        self.io.write(seed_path, snapshot_bytes)
        self.io.sync(seed_path)
        self.io.sync_dir(self.directory)
        self.durable = DurableStore.open(
            self.directory, io=self.io, sync=self.sync_policy,
            with_saturator=self.with_saturator)
        self.repl_epoch = epoch
        self._save_meta()
        self._buffer = b""
        self.needs_sync = False
        self.fenced = False
        self.fenced_at_epoch = None
        self.counters["reseeds"] += 1

    def receive(self, chunks: List[bytes]) -> None:
        """Append delivered wire chunks to the stream buffer."""
        for chunk in chunks:
            self._buffer += chunk

    def apply_available(self) -> int:
        """Decode and apply every applicable buffered frame; returns
        how many ops were applied.  Faults downgrade to resync
        requests, never exceptions — the stream heals by re-shipping."""
        if self.needs_sync or not self._buffer:
            return 0
        decoded = decode_records(self._buffer)
        applied = 0
        for frame_payload in decoded.records:
            if len(frame_payload) < SHIP_HEADER.size:
                self.request_sync()
                return applied
            epoch, lsn = SHIP_HEADER.unpack_from(frame_payload)
            if epoch != self.repl_epoch:
                # A deposed primary's in-flight write: discard — the
                # stream-level half of the fencing invariant.
                self.counters["stale_epoch_frames"] += 1
                continue
            expected = self.lsn + 1
            if lsn < expected:
                self.counters["dups_skipped"] += 1
                continue
            if lsn > expected:
                self.counters["gaps"] += 1
                self.request_sync()
                return applied
            try:
                op, triple = decode_op(frame_payload[SHIP_HEADER.size:])
            except (WALFormatError, ValueError):
                self.request_sync()
                return applied
            self._apply(op, triple)
            applied += 1
            self.counters["applied"] += 1
        if decoded.truncated:
            # A torn frame prefix whose tail was cut on the wire: it
            # will never complete, so drop the buffer and resync.
            self.counters["torn_streams"] += 1
            self.request_sync()
        else:
            self._buffer = self._buffer[decoded.valid_length:]
        return applied

    def request_sync(self) -> None:
        """Drop the stream buffer and ask the control plane for a
        fresh handshake (gap, torn stream, or pruned catch-up log)."""
        self._buffer = b""
        if not self.needs_sync:
            self.counters["resyncs"] += 1
        self.needs_sync = True

    def _apply(self, op: str, triple: Triple) -> None:
        # Through the follower's own DurableStore methods, so the op is
        # re-logged locally and epochs/LSN advance exactly as on the
        # primary (C± stays one record; derived triples stay quiet).
        if op == OP_INSERT:
            self.durable.insert(triple)
        elif op == OP_DELETE:
            self.durable.delete(triple)
        elif op == OP_CONSTRAINT_ADD:
            self.durable.add_constraint(Constraint.from_triple(triple))
        else:
            self.durable.remove_constraint(Constraint.from_triple(triple))

    # ------------------------------------------------------------------

    def status(self, primary_lsn: Optional[int] = None) -> Dict[str, object]:
        """Structured state for ``repro replstatus``."""
        state: Dict[str, object] = {
            "role": "fenced" if self.fenced else self.role,
            "alive": self.alive,
            "partitioned": self.partitioned,
            "repl_epoch": self.repl_epoch,
            "lsn": self.lsn if self.alive else None,
            "needs_sync": self.needs_sync,
            "triples": self.durable.store.triple_count if self.alive else None,
        }
        if primary_lsn is not None and self.alive:
            state["lag"] = max(0, primary_lsn - self.lsn)
        state.update(self.counters)
        return state

    def __repr__(self) -> str:
        return "ReplicaNode(%r, %s, epoch %d, lsn %d)" % (
            self.name, self.role, self.repl_epoch,
            self.lsn if self.alive else -1)
