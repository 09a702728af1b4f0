"""Caching & invalidation: the amortization layer for repeated-query
workloads (S13).

See :mod:`repro.cache.cache` for the tier/epoch design and DESIGN.md
§"Caching & invalidation" for how answerers thread it through.
"""

from .cache import QueryCache, dataset_token
from .keys import cover_key, policy_key, query_key
from .lru import LRUCache

__all__ = [
    "LRUCache",
    "QueryCache",
    "cover_key",
    "dataset_token",
    "policy_key",
    "query_key",
]
