"""Saturation-based query answering: Sat (S3)."""

from .engine import is_saturated, saturate, saturate_naive
from .incremental import IncrementalSaturator
from .provenance import explain_triple, format_derivation

__all__ = [
    "IncrementalSaturator",
    "explain_triple",
    "format_derivation",
    "is_saturated",
    "saturate",
    "saturate_naive",
]
