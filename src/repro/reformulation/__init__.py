"""Reformulation-based query answering: Ref (S5)."""

from .atoms import Alternative, atom_reformulation_size, reformulate_atom
from .engine import (
    ReformulationTooLarge,
    atom_alternatives,
    iterate_reformulations,
    reformulate,
    ucq_size,
)
from .jucq import jucq_for_cover, jucq_fragment_sizes, scq_reformulation
from .pruning import find_homomorphism, is_contained, minimize, prune_subsumed
from .pruning import minimize_under_schema
from .policy import ALLEGROGRAPH_STYLE, COMPLETE, VIRTUOSO_STYLE, ReformulationPolicy

__all__ = [
    "ALLEGROGRAPH_STYLE",
    "Alternative",
    "COMPLETE",
    "ReformulationPolicy",
    "ReformulationTooLarge",
    "VIRTUOSO_STYLE",
    "atom_alternatives",
    "atom_reformulation_size",
    "find_homomorphism",
    "is_contained",
    "minimize",
    "minimize_under_schema",
    "prune_subsumed",
    "iterate_reformulations",
    "jucq_for_cover",
    "jucq_fragment_sizes",
    "reformulate",
    "scq_reformulation",
    "ucq_size",
]
