"""The shared worker pool behind federation's per-endpoint fan-out.

Query evaluation and saturation are single-threaded; see
:mod:`repro.parallel.pool` for the concurrency contract the federation
client follows.
"""

from .pool import ExecutorPool, pool_for, primary_error

__all__ = [
    "ExecutorPool",
    "pool_for",
    "primary_error",
]
