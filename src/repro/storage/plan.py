"""Physical plan nodes — compatibility facade.

The plan node classes moved to :mod:`repro.engine.ir`: one
backend-neutral IR that the planner, the cost model, EXPLAIN and every
consumer (columnar executor, SQL lowering) share.  This module
re-exports them so existing imports keep working.
"""

from __future__ import annotations

from ..engine.ir import (
    ColumnLabel,
    DistinctNode,
    EmptyNode,
    JoinNode,
    NonLiteralFilterNode,
    PlanNode,
    PositionSpec,
    ProjectNode,
    ProjectionSpec,
    ScanNode,
    UnionNode,
)

__all__ = [
    "ColumnLabel",
    "DistinctNode",
    "EmptyNode",
    "JoinNode",
    "NonLiteralFilterNode",
    "PlanNode",
    "PositionSpec",
    "ProjectNode",
    "ProjectionSpec",
    "ScanNode",
    "UnionNode",
]
