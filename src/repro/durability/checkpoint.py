"""Atomic checkpoints: a consistent snapshot of the whole store state.

A checkpoint file is a one-line header plus a JSON body::

    REPRO-CHECKPOINT v1 crc32=<8 hex> length=<bytes>\\n
    {...body...}

The header's CRC and length make torn or bit-rotted checkpoints
detectable without trusting any of the body; publication is
write-temp → fsync → atomic rename → fsync(dir), so a crash at any
byte leaves either the previous checkpoint or the new one — never a
half-written file that recovery would have to guess about.

The body snapshots everything a restarted process needs:

* the dictionary's term table in id order (ids are dense and
  first-seen, so re-encoding in order reproduces them exactly);
* the encoded triple table (statistics are re-derived from it on
  load, which makes them equal a fresh ``from_graph`` build by
  construction — the cost model's guard);
* the closed schema's direct constraints (triple form);
* the cache's data/schema epochs;
* the WAL position (segment, offset) the snapshot corresponds to —
  recovery replays only the WAL suffix past it.

It holds no saturation: a saturator is rebuilt over the restored
store in one pass (see :mod:`repro.saturation.incremental`), which is
cheaper than parsing its triples back.  A body with any other key —
an older body's saturation section among them — restores as if the
key were absent.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict

from ..rdf.io import ParseError, parse_line, parse_term
from ..schema.constraints import Constraint
from ..schema.schema import Schema
from ..storage.store import TripleStore

HEADER_PREFIX = "REPRO-CHECKPOINT v1"

#: Current body format version (bumped on incompatible layout changes).
FORMAT_VERSION = 1


class CheckpointCorrupt(ValueError):
    """A checkpoint file failed validation (torn, bit-rot, or not a
    checkpoint at all).  Recovery falls back to the previous one."""


def encode_checkpoint(body: Dict) -> bytes:
    """Serialize a checkpoint body with its self-validating header."""
    payload = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = "%s crc32=%08x length=%d\n" % (
        HEADER_PREFIX, zlib.crc32(payload), len(payload))
    return header.encode("ascii") + payload


def decode_checkpoint(data: bytes) -> Dict:
    """Validate and parse a checkpoint file; raises
    :class:`CheckpointCorrupt` on any mismatch."""
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointCorrupt("missing checkpoint header")
    try:
        header = data[:newline].decode("ascii")
    except UnicodeDecodeError:
        raise CheckpointCorrupt("undecodable checkpoint header")
    parts = header.split()
    if (
        len(parts) != 4
        or " ".join(parts[:2]) != HEADER_PREFIX
        or not parts[2].startswith("crc32=")
        or not parts[3].startswith("length=")
    ):
        raise CheckpointCorrupt("malformed checkpoint header %r" % header[:60])
    try:
        checksum = int(parts[2][len("crc32="):], 16)
        length = int(parts[3][len("length="):])
    except ValueError:
        raise CheckpointCorrupt("malformed checkpoint header %r" % header[:60])
    payload = data[newline + 1:]
    if len(payload) != length:
        raise CheckpointCorrupt(
            "checkpoint body is %d bytes, header promises %d"
            % (len(payload), length))
    if zlib.crc32(payload) != checksum:
        raise CheckpointCorrupt("checkpoint body CRC mismatch")
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorrupt("checkpoint body is not JSON: %s" % exc)
    if body.get("format") != FORMAT_VERSION:
        raise CheckpointCorrupt(
            "unsupported checkpoint format %r" % body.get("format"))
    return body


# ---------------------------------------------------------------------------
# Snapshot ↔ objects


def build_snapshot(
    store: TripleStore,
    sequence: int,
    wal_segment: int,
    wal_offset: int,
    data_epoch: int,
    schema_epoch: int,
) -> Dict:
    """Capture the full state as a JSON-serializable body."""
    terms, triples = store.encoded_state()
    return {
        "format": FORMAT_VERSION,
        "sequence": sequence,
        "wal_segment": wal_segment,
        "wal_offset": wal_offset,
        # Hole ids (reserved by the hierarchy encoder, not yet
        # assigned a term) serialize as the empty string — no term
        # renders as "" so the marker is unambiguous.
        "terms": ["" if term is None else term.n3() for term in terms],
        "triples": [list(encoded) for encoded in triples],
        "schema": sorted(
            constraint.to_triple().n3()
            for constraint in store.schema.direct_constraints()
        ),
        "epochs": {"data": data_epoch, "schema": schema_epoch},
        "statistics": store.statistics.summary(),
    }


def restore_snapshot(body: Dict) -> TripleStore:
    """Rebuild the store from a validated checkpoint body.

    Structural surprises inside a CRC-valid body (a term that does not
    parse, a triple id out of range) are promoted to
    :class:`CheckpointCorrupt` so recovery falls back instead of
    crashing half-initialized.
    """
    try:
        terms = [
            None if token == "" else parse_term(token)
            for token in body["terms"]
        ]
        triples = [tuple(row) for row in body["triples"]]
        schema = Schema(
            Constraint.from_triple(parse_line(line)) for line in body["schema"]
        )
        store = TripleStore.from_encoded(terms, triples, schema)
        summary = body.get("statistics")
        if summary:
            # Only the exactly-maintained fields: the global distinct
            # subject/object sets are documented upper bounds under
            # deletion, so a live snapshot may legitimately exceed the
            # rebuilt store there.
            rebuilt = store.statistics.summary()
            for field in ("triples", "properties", "classes"):
                if field in summary and rebuilt[field] != summary[field]:
                    raise CheckpointCorrupt(
                        "restored statistics disagree with snapshot on "
                        "%s: %r != %r" % (field, rebuilt[field], summary[field]))
        return store
    except CheckpointCorrupt:
        raise
    except (KeyError, TypeError, ValueError, IndexError, ParseError) as exc:
        raise CheckpointCorrupt("checkpoint body is inconsistent: %s" % exc)
