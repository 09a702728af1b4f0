"""Public facade: strategies and the query answerer (S11)."""

from .answerer import (
    ANSWERER_ENGINES,
    Answer,
    AnswerReport,
    COMPLETE_STRATEGIES,
    CompiledQuery,
    DEFAULT_ENGINE,
    OptionError,
    QueryAnswerer,
    Strategy,
)

__all__ = [
    "ANSWERER_ENGINES",
    "Answer",
    "AnswerReport",
    "COMPLETE_STRATEGIES",
    "CompiledQuery",
    "DEFAULT_ENGINE",
    "OptionError",
    "QueryAnswerer",
    "Strategy",
]
