"""Crash-safe storage: write-ahead log, checkpoints, recovery.

The durability subsystem (DESIGN.md §10) makes the in-memory engine of
:mod:`repro.storage` survive process crashes: every logical mutation
is a CRC32-framed WAL record, checkpoints snapshot the full state
atomically, and :func:`recover` deterministically rebuilds the store
from the latest valid checkpoint plus the intact WAL suffix —
truncating torn or corrupt tails instead of crashing.
"""

from .checkpoint import CheckpointCorrupt, decode_checkpoint, encode_checkpoint
from .io import FileSystem
from .manager import DurableStore
from .ops import (
    OP_CONSTRAINT_ADD,
    OP_CONSTRAINT_REMOVE,
    OP_DELETE,
    OP_INSERT,
    WALFormatError,
    apply_op,
    decode_op,
    encode_op,
)
from .recovery import recover, verify_recovery, wal_path
from .wal import HEADER_SIZE, MAGIC, MAX_PAYLOAD, WriteAheadLog, decode_records, encode_record

__all__ = [
    "CheckpointCorrupt",
    "DurableStore",
    "FileSystem",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD",
    "OP_CONSTRAINT_ADD",
    "OP_CONSTRAINT_REMOVE",
    "OP_DELETE",
    "OP_INSERT",
    "WALFormatError",
    "WriteAheadLog",
    "apply_op",
    "decode_checkpoint",
    "decode_op",
    "decode_records",
    "encode_checkpoint",
    "encode_op",
    "encode_record",
    "recover",
    "verify_recovery",
    "wal_path",
]
