"""Reformulation-based query answering: Ref (S5)."""

from .atoms import atom_reformulation_size, reformulate_atom
from .engine import ReformulationTooLarge, iterate_reformulations, reformulate, ucq_size
from .jucq import jucq_for_cover, jucq_fragment_sizes, scq_reformulation
from .pruning import find_homomorphism, is_contained, prune_subsumed
from .pruning import minimize_under_schema
from .policy import ALLEGROGRAPH_STYLE, COMPLETE, VIRTUOSO_STYLE, ReformulationPolicy

__all__ = [
    "ALLEGROGRAPH_STYLE",
    "COMPLETE",
    "ReformulationPolicy",
    "ReformulationTooLarge",
    "VIRTUOSO_STYLE",
    "atom_reformulation_size",
    "find_homomorphism",
    "is_contained",
    "minimize_under_schema",
    "prune_subsumed",
    "iterate_reformulations",
    "jucq_for_cover",
    "jucq_fragment_sizes",
    "reformulate",
    "scq_reformulation",
    "ucq_size",
]
