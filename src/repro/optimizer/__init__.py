"""Cost-based cover optimization: GCov and the exhaustive oracle (S8)."""

from .beam import beam_search
from .estimator import CoverCostEstimator, INFINITE_COST
from .exhaustive import exhaustive_cover_search
from .gcov import gcov

__all__ = [
    "CoverCostEstimator",
    "INFINITE_COST",
    "beam_search",
    "exhaustive_cover_search",
    "gcov",
]
