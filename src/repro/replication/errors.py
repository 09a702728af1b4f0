"""Typed failures of the replication layer.

Same philosophy as :mod:`repro.resilience.errors`: policy code
(failover, the CLI) dispatches on types, never on message
strings.  Dependency-free so every replication module can import it
without cycles.
"""

from __future__ import annotations

from typing import Optional


class ReplicationError(RuntimeError):
    """Base class for replication faults."""


class PrimaryFenced(ReplicationError):
    """A write reached a node that is not the current primary.

    Raised both by a deposed primary after fencing (the fencing
    invariant: once the coordinator promotes epoch *e*, no node with a
    lower epoch may accept another write) and by plain followers, which
    never accept writes.  ``node`` and ``epoch`` identify who refused
    and the highest epoch that node has seen.
    """

    def __init__(self, message: str, node: Optional[str] = None,
                 epoch: Optional[int] = None):
        super().__init__(message)
        self.node = node
        self.epoch = epoch

