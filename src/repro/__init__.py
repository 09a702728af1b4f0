"""repro — Reformulation-based query answering in RDF.

A full reproduction of Bursztyn, Goasdoué & Manolescu,
"Reformulation-based query answering in RDF: alternatives and
performance" (VLDB 2015): the RDF/RDFS data model and entailment of
the DB fragment, saturation- and reformulation-based query answering
(UCQ, SCQ, cover-based JUCQ), the cost model and the greedy cover
search GCov, a relational triple-store substrate with three backend
profiles, a Datalog alternative, and LUBM-style/INSEE-like/DBLP-like
workloads.

Quickstart::

    from repro import QueryAnswerer, Strategy
    from repro.datasets import books_dataset

    graph, schema, query = books_dataset()
    answerer = QueryAnswerer(graph, schema)
    report = answerer.answer(query, Strategy.REF_GCOV)
    print(report.answer)
"""

from .cache import QueryCache
from .core import QueryAnswerer, Strategy
from .resilience import BudgetExceeded, ExecutionBudget
from .service import QueryRequest, QueryService, TenantConfig

__version__ = "1.0.0"

__all__ = [
    "BudgetExceeded",
    "ExecutionBudget",
    "QueryAnswerer",
    "QueryCache",
    "QueryRequest",
    "QueryService",
    "Strategy",
    "TenantConfig",
    "__version__",
]
