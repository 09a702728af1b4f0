"""Query model: BGP/CQ algebra, SPARQL-lite parsing, covers (S4)."""

from .algebra import (
    ConjunctiveQuery,
    JoinOfUnions,
    TriplePattern,
    UnionQuery,
    Variable,
    fresh_variable,
)
from .cover import (
    Cover,
    CoverError,
    enumerate_partition_covers,
    partition_cover_count,
)
from .evaluation import evaluate, evaluate_cq, evaluate_jucq, evaluate_ucq
from .parser import QueryParseError, parse_query
from .visualize import join_graph, render_cover, render_query, render_strategy

__all__ = [
    "ConjunctiveQuery",
    "Cover",
    "CoverError",
    "JoinOfUnions",
    "QueryParseError",
    "TriplePattern",
    "UnionQuery",
    "Variable",
    "enumerate_partition_covers",
    "evaluate",
    "evaluate_cq",
    "evaluate_jucq",
    "evaluate_ucq",
    "fresh_variable",
    "join_graph",
    "parse_query",
    "render_cover",
    "render_query",
    "render_strategy",
    "partition_cover_count",
]
