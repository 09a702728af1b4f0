"""Intra-query parallelism: the shared worker pool.

See :mod:`repro.parallel.pool` for the concurrency contract every
parallel code path in the repository follows.
"""

from .pool import ExecutorPool, pool_for, primary_error, shared_pool

__all__ = [
    "ExecutorPool",
    "pool_for",
    "primary_error",
    "shared_pool",
]
