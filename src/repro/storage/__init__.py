"""The relational substrate: dictionary-encoded triple store,
physical plans, planner, executor, backend profiles (S6)."""

from ..engine.ir import ScanNode
from .backends import (
    BackendProfile,
    DEFAULT_BACKENDS,
    HASH_BACKEND,
    LOOP_BACKEND,
    MERGE_BACKEND,
    QueryTooLargeError,
)
from .dictionary import Dictionary
from .store import TripleStore
from .snapshot import SnapshotManager
from .planner import Planner, query_atom_total
from .executor import Executor, execute_plan
from .explain import explain
from .sql import SQLITE_COMPOUND_SELECT_LIMIT, SqliteBackend

__all__ = [
    "BackendProfile",
    "DEFAULT_BACKENDS",
    "Dictionary",
    "Executor",
    "HASH_BACKEND",
    "LOOP_BACKEND",
    "MERGE_BACKEND",
    "Planner",
    "SQLITE_COMPOUND_SELECT_LIMIT",
    "SqliteBackend",
    "QueryTooLargeError",
    "ScanNode",
    "SnapshotManager",
    "TripleStore",
    "execute_plan",
    "explain",
    "query_atom_total",
]
