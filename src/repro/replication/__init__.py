"""WAL-shipping replication: primary/follower clusters with failover.

The subsystem ships the durable store's CRC32-framed WAL records over
lossy in-process links, replays them on followers through the same op
codec recovery uses, detects divergence at reconnect (epochs +
checkpoint CRCs), re-seeds through the proven recovery path, elects a
new primary on lease expiry and fences the old one.  See ``DESIGN.md``
§15.
"""

from .cluster import ReplicationCluster
from .errors import PrimaryFenced
from .link import ReplicationLink
from .node import ReplicaNode

__all__ = [
    "PrimaryFenced",
    "ReplicaNode",
    "ReplicationCluster",
    "ReplicationLink",
]
