"""The relational substrate: dictionary-encoded triple store,
physical plans, planner, executor, backend profiles (S6)."""

from ..engine.ir import (
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from .backends import (
    BackendProfile,
    DEFAULT_BACKENDS,
    HASH_BACKEND,
    LOOP_BACKEND,
    MERGE_BACKEND,
    QueryTooLargeError,
)
from .charsets import CharacteristicSets
from .dictionary import Dictionary
from .store import TripleStore
from .snapshot import SnapshotManager, StoreSnapshot
from .planner import Planner, query_atom_total
from .executor import ENGINES, ExecutionResult, Executor, execute_plan
from .explain import explain, plan_summary
from .sql import SQLITE_COMPOUND_SELECT_LIMIT, SqlGenerationError, SqliteBackend, jucq_to_sql, ucq_to_sql
from .statistics import PropertyStatistics, StoreStatistics

__all__ = [
    "BackendProfile",
    "CharacteristicSets",
    "DEFAULT_BACKENDS",
    "Dictionary",
    "DistinctNode",
    "ENGINES",
    "EmptyNode",
    "ExecutionResult",
    "Executor",
    "HASH_BACKEND",
    "JoinNode",
    "LOOP_BACKEND",
    "MERGE_BACKEND",
    "NonLiteralFilterNode",
    "PlanNode",
    "Planner",
    "ProjectNode",
    "PropertyStatistics",
    "SQLITE_COMPOUND_SELECT_LIMIT",
    "SqlGenerationError",
    "SqliteBackend",
    "QueryTooLargeError",
    "ScanNode",
    "SnapshotManager",
    "StoreSnapshot",
    "StoreStatistics",
    "TripleStore",
    "UnionNode",
    "execute_plan",
    "explain",
    "plan_summary",
    "jucq_to_sql",
    "query_atom_total",
    "ucq_to_sql",
]
