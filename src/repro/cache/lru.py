"""A size-bounded LRU map with hit/miss/eviction accounting.

The cache subsystem (see :mod:`repro.cache.cache`) is two of these —
one per tier — plus the keying and invalidation logic around them.
Kept deliberately dependency-free: keys are opaque hashables, values
are opaque objects, and the counters are plain integers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional


class TierStats:
    """Counters for one cache tier (monotonic, never reset by eviction)."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the tier was never consulted)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return "TierStats(hits=%d, misses=%d, evictions=%d, invalidations=%d)" % (
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
        )


class LRUCache:
    """An ordered dict bounded to ``capacity`` entries, LRU-evicted.

    ``get`` counts a hit or a miss and refreshes recency; ``put``
    inserts (or refreshes) and evicts the least recently used entry
    when over capacity; ``invalidate`` empties the tier, counting the
    dropped entries as invalidations (distinct from evictions, which
    are capacity pressure).

    >>> cache = LRUCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> "a" in cache  # evicted as least recently used
    False
    >>> cache.stats.evictions
    1

    Thread-safe: a ``get`` *mutates* (``move_to_end`` refreshes
    recency), so concurrent readers — threads sharing one cache —
    would corrupt the order without the lock.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be positive, got %r" % (capacity,))
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = TierStats()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership probe; does not affect recency or counters."""
        with self._lock:
            return key in self._entries

    def get(
        self, key: Hashable, accept: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Any]:
        """The cached value, refreshed as most recent; None on a miss.
        A value ``accept`` rejects stays in place and counts as a miss.

        (Values are never None by construction: every tier stores
        tuples or objects.)
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None or (accept is not None and not accept(value)):
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value or None; affects neither recency nor counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evict the LRU entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def keys(self):
        with self._lock:
            return list(self._entries.keys())

    def __repr__(self) -> str:
        return "LRUCache(<%d/%d entries>)" % (len(self._entries), self.capacity)
