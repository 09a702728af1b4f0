"""Cost model: cardinality estimation and plan costing (S7)."""

from . import cardinality
from .model import annotate_node, annotate_plan

__all__ = [
    "annotate_node",
    "annotate_plan",
    "cardinality",
]
