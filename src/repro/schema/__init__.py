"""RDFS schema constraints and their closure (S2)."""

from .constraints import (
    Constraint,
    ConstraintKind,
    constraints_from_triples,
    is_admissible_constraint,
)
from .schema import Schema

__all__ = [
    "Constraint",
    "ConstraintKind",
    "Schema",
    "constraints_from_triples",
    "is_admissible_constraint",
]
