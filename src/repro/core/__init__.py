"""Public facade: strategies and the query answerer (S11)."""

from .answerer import (
    Answer,
    AnswerReport,
    COMPLETE_STRATEGIES,
    DEFAULT_ENGINE,
    OptionError,
    QueryAnswerer,
    Strategy,
)

__all__ = [
    "Answer",
    "AnswerReport",
    "COMPLETE_STRATEGIES",
    "DEFAULT_ENGINE",
    "OptionError",
    "QueryAnswerer",
    "Strategy",
]
