"""Deterministic recovery: checkpoint + WAL suffix → live store.

The contract tested by the crash harness: after a crash at *any* byte,
``recover`` returns a store equal to replaying some prefix of the
logical operations — the longest prefix whose WAL records survived
intact.  It never raises on bad bytes; torn or corrupt tails are
truncated (and, with ``truncate=True``, physically removed so the next
append continues from the last valid record).

Checkpoint selection is *latest-valid-wins*: checkpoints are tried
newest-first, and a corrupt one (torn temp-file rename, bit rot) falls
back to its predecessor — whose WAL segments are retained exactly for
this — before falling back to an empty store replaying segment 0.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

from ..rdf.graph import Graph
from ..saturation.incremental import IncrementalSaturator
from ..storage.store import EncodedTriple, TripleStore
from .checkpoint import CheckpointCorrupt, decode_checkpoint, restore_snapshot
from .io import FileSystem
from .ops import OP_INSERT, WALFormatError, apply_op, decode_op
from .wal import HEADER_SIZE, WriteAheadLog

#: On-disk names.  Zero-padded so lexicographic == numeric order.
CHECKPOINT_PATTERN = "checkpoint-%08d.ckpt"
WAL_PATTERN = "wal-%08d.log"

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.ckpt$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


def checkpoint_path(directory: str, sequence: int) -> str:
    return os.path.join(directory, CHECKPOINT_PATTERN % sequence)


def wal_path(directory: str, segment: int) -> str:
    return os.path.join(directory, WAL_PATTERN % segment)


def list_checkpoints(io: FileSystem, directory: str) -> List[Tuple[int, str]]:
    """``(sequence, path)`` pairs, newest first."""
    found = []
    for name in io.listdir(directory):
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found, reverse=True)


def list_wal_segments(io: FileSystem, directory: str) -> List[Tuple[int, str]]:
    """``(segment, path)`` pairs, oldest first."""
    found = []
    for name in io.listdir(directory):
        match = _WAL_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


class RecoveryResult:
    """Everything ``recover`` learned, plus the live objects.

    ``wal_segment``/``wal_offset`` point at the end of the last valid
    record — exactly where the reopened log must append next.
    """

    def __init__(self) -> None:
        self.store: TripleStore = TripleStore()
        self.saturator: Optional[IncrementalSaturator] = None
        #: Sequence of the checkpoint restored (None: none usable).
        self.checkpoint_sequence: Optional[int] = None
        #: Checkpoints that failed validation, newest first.
        self.corrupt_checkpoints: List[str] = []
        self.records_replayed = 0
        #: True when any WAL bytes had to be dropped.
        self.truncated = False
        self.truncated_bytes = 0
        self.reason: Optional[str] = None
        self.data_epoch = 0
        self.schema_epoch = 0
        self.wal_segment = 0
        self.wal_offset = 0
        #: True when there was nothing to recover from at all.
        self.empty = True

    def summary(self) -> Dict[str, object]:
        """The structured report ``repro recover`` prints as JSON."""
        return {
            "checkpoint_sequence": self.checkpoint_sequence,
            "corrupt_checkpoints": list(self.corrupt_checkpoints),
            "records_replayed": self.records_replayed,
            "truncated": self.truncated,
            "truncated_bytes": self.truncated_bytes,
            "reason": self.reason,
            "triples": self.store.triple_count,
            "constraints": len(self.store.schema),
            "data_epoch": self.data_epoch,
            "schema_epoch": self.schema_epoch,
            "wal_segment": self.wal_segment,
            "wal_offset": self.wal_offset,
            "empty": self.empty,
        }

    def __repr__(self) -> str:
        return "RecoveryResult(<%d triples, %d replayed%s>)" % (
            self.store.triple_count,
            self.records_replayed,
            ", truncated" if self.truncated else "",
        )


def recover(
    directory: str,
    io: Optional[FileSystem] = None,
    with_saturator: bool = False,
    truncate: bool = True,
) -> RecoveryResult:
    """Recover the durable state under *directory* (see module doc).

    ``with_saturator`` asks for an :class:`IncrementalSaturator` over
    the recovered store, built in one pass once the WAL suffix is
    replayed.  ``truncate=False`` leaves bad WAL tails on disk — the
    read-only inspection mode of ``recover --verify``.
    """
    io = io if io is not None else FileSystem()
    result = RecoveryResult()
    if io.exists(directory):
        _restore(result, directory, io, truncate)
    if with_saturator:
        result.saturator = IncrementalSaturator.over(result.store)
    return result


def _restore(
    result: RecoveryResult, directory: str, io: FileSystem, truncate: bool
) -> None:
    """Fill *result* from the newest valid checkpoint under *directory*
    and the WAL suffix past it."""
    # 1. Newest checkpoint that validates end to end.
    body = None
    for sequence, path in list_checkpoints(io, directory):
        try:
            body = decode_checkpoint(io.read(path))
            result.store = restore_snapshot(body)
            result.checkpoint_sequence = sequence
            break
        except CheckpointCorrupt as exc:
            result.corrupt_checkpoints.append(
                "%s: %s" % (os.path.basename(path), exc))
            body = None
    if body is not None:
        result.empty = False
        epochs = body.get("epochs", {})
        result.data_epoch = int(epochs.get("data", 0))
        result.schema_epoch = int(epochs.get("schema", 0))
        result.wal_segment = int(body["wal_segment"])
        result.wal_offset = int(body["wal_offset"])

    # 2. Replay the WAL suffix: the checkpoint's segment from its
    # offset, then every later segment from 0.  A missing segment reads
    # as empty (the crash window between checkpoint publication and
    # the first append to the rotated log).
    segment = result.wal_segment
    offset = result.wal_offset
    known = dict(list_wal_segments(io, directory))
    last_segment = max(known) if known else segment
    while segment <= last_segment:
        log = WriteAheadLog(wal_path(directory, segment), io=io, sync="never")
        decoded = log.read_from(offset)
        if decoded.records or io.exists(log.path):
            result.empty = False
        consumed = offset
        # Each run of consecutive T+ records goes in as one bulk insert,
        # when another op or the end of the valid records closes it.  A
        # record is encoded as it is read: holding the parsed triples of
        # a long run instead would make a full GC pass likely.
        inserts: List[EncodedTriple] = []
        for payload in decoded.records:
            try:
                op, triple = decode_op(payload)
                if op == OP_INSERT:
                    inserts.append(result.store.encode(triple))
                    epoch_class = (
                        "schema" if triple.is_schema_triple() else "data")
                else:
                    result.store.insert_encoded(inserts)
                    inserts = []
                    epoch_class = apply_op(result.store, None, op, triple)
            except (WALFormatError, ValueError) as exc:
                # A CRC-valid frame with an alien payload: same
                # treatment as corruption — this record and everything
                # after it never happened.
                decoded.truncated = True
                decoded.reason = "undecodable record: %s" % exc
                decoded.valid_length = consumed - offset
                break
            consumed += HEADER_SIZE + len(payload)
            result.records_replayed += 1
            if epoch_class == "schema":
                result.schema_epoch += 1
            else:
                result.data_epoch += 1
        result.store.insert_encoded(inserts)
        valid_end = offset + decoded.valid_length
        if decoded.truncated:
            result.truncated = True
            result.reason = decoded.reason
            if io.exists(log.path):
                result.truncated_bytes += io.size(log.path) - valid_end
                if truncate:
                    log.truncate_to(valid_end)
            # Later segments are unreachable past a bad record: the
            # prefix property must hold across segment boundaries.
            if truncate:
                for later, path in list_wal_segments(io, directory):
                    if later > segment:
                        result.truncated_bytes += io.size(path)
                        io.remove(path)
            else:
                result.truncated_bytes += sum(
                    io.size(path)
                    for later, path in list_wal_segments(io, directory)
                    if later > segment
                )
            result.wal_segment = segment
            result.wal_offset = valid_end
            return
        result.wal_segment = segment
        result.wal_offset = valid_end
        segment += 1
        offset = 0


def verify_recovery(result: RecoveryResult) -> List[str]:
    """Cross-check a recovered store against a fresh rebuild.

    Decodes the recovered store's triples, rebuilds a store from them
    from scratch with :meth:`TripleStore.from_graph`, and
    compares triples, schema and per-property statistics *keyed by
    decoded term* (id assignment differs between the two builds, so
    raw-id comparison would be meaningless).  A recovered saturator's
    store must hold every base triple and exactly as many more as its
    support counts name derived-only triples.  Returns human-readable
    discrepancies; empty means verified.
    """
    problems: List[str] = []
    recovered = result.store
    recovered_triples = set(recovered.triples())
    fresh = TripleStore.from_graph(Graph(recovered_triples), recovered.schema)
    fresh_triples = set(fresh.triples())
    if recovered_triples != fresh_triples:
        missing = len(fresh_triples - recovered_triples)
        extra = len(recovered_triples - fresh_triples)
        problems.append(
            "triple sets differ (%d missing, %d extra)" % (missing, extra))

    # Compare schema *closures*: a fresh rebuild absorbs entailed schema
    # triples as direct constraints, so direct-set fingerprints
    # legitimately differ while the closures must not.
    if set(recovered.schema.entailed_triples()) != set(
            fresh.schema.entailed_triples()):
        problems.append("schema closure differs from a fresh rebuild")

    # Global distinct-subject/object counts are upper bounds under
    # deletion (see StoreStatistics.unrecord), so only the exactly-
    # maintained summary fields must match a fresh rebuild.
    recovered_summary = recovered.statistics.summary()
    fresh_summary = fresh.statistics.summary()
    for field in ("triples", "properties", "classes"):
        if recovered_summary[field] != fresh_summary[field]:
            problems.append(
                "statistics %s: recovered %r != fresh %r"
                % (field, recovered_summary[field], fresh_summary[field]))

    def per_property(store: TripleStore) -> Dict:
        return {
            store.dictionary.decode(property_id): (
                stats.triples,
                stats.distinct_subjects,
                stats.distinct_objects,
            )
            for property_id, stats in store.statistics.per_property.items()
        }

    if per_property(recovered) != per_property(fresh):
        problems.append("per-property statistics differ from a fresh rebuild")

    saturator = result.saturator
    if saturator is not None:
        saturated = saturator.store
        if not all(map(saturated.contains, recovered.scan_all())):
            problems.append("saturation lost base triples")
        if saturator.derived_count != len(saturated) - len(recovered):
            problems.append(
                "saturated store holds %d triples beyond the base, its "
                "support counts %d"
                % (len(saturated) - len(recovered), saturator.derived_count))
    return problems
