"""The execution engine's shared parts: plan IR, metrics, SQL lowering.

One backend-neutral operator algebra (:mod:`repro.engine.ir`) shared
by the planner, the cost model, EXPLAIN, the columnar executor and
the SQL lowering; the per-operator metrics the streaming executor
reports (:mod:`repro.engine.metrics`); and an IR→SQL lowering
(:mod:`repro.engine.lowering`) for real RDBMSs.
"""

from .ir import (
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
from .lowering import LoweringError, lower
from .metrics import OperatorMetrics, PipelineMetrics

__all__ = [
    "ColumnLabel",
    "DistinctNode",
    "EmptyNode",
    "JoinNode",
    "LoweringError",
    "NonLiteralFilterNode",
    "OperatorMetrics",
    "PipelineMetrics",
    "PlanNode",
    "PositionSpec",
    "ProjectNode",
    "ProjectionSpec",
    "ScanNode",
    "UnionNode",
    "lower",
]
