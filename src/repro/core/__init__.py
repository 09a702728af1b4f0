"""Public facade: strategies and the query answerer (S11)."""

from .answerer import (
    ANSWERER_ENGINES,
    COMPLETE_STRATEGIES,
    DEFAULT_ENGINE,
    OptionError,
    QueryAnswerer,
    Strategy,
)

__all__ = [
    "ANSWERER_ENGINES",
    "COMPLETE_STRATEGIES",
    "DEFAULT_ENGINE",
    "OptionError",
    "QueryAnswerer",
    "Strategy",
]
