"""Saturation-based query answering: Sat (S3)."""

from .engine import (
    instance_consequences,
    is_saturated,
    saturate,
    saturate_naive,
)
from .incremental import IncrementalSaturator
from .provenance import Derivation, explain_triple, format_derivation
from .rules import (
    RESERVED_VOCABULARY,
    all_immediate_consequences,
    immediate_consequences,
    is_admissible_constraint,
)

__all__ = [
    "Derivation",
    "IncrementalSaturator",
    "RESERVED_VOCABULARY",
    "all_immediate_consequences",
    "explain_triple",
    "format_derivation",
    "immediate_consequences",
    "instance_consequences",
    "is_admissible_constraint",
    "is_saturated",
    "saturate",
    "saturate_naive",
]
