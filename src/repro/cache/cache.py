"""The query cache: reformulations, answers, and their invalidation.

Reformulation cost dominates repeated query answering — the UCQ
blow-up, the SCQ intermediate results and the GCov cover search are
all recomputed per call in a cache-less answerer, even for identical
queries.  Ontop's ``QuestQueryProcessor`` makes a query cache a
first-class collaborator of the reformulator for this reason; this
module is that layer for every strategy in the repository.

Three tiers:

1. **Reformulation tier** — UCQ/SCQ/JUCQ reformulations and UCQ size
   estimates, keyed on ``(query canonical form, schema fingerprint,
   policy switches, kind)``.  Valid as long as the schema is
   unchanged: reformulation is a function of query and schema only.
   The GCov entry is keyed by the query's *shape* instead
   (:func:`~repro.cache.keys.shape_of`: instance constants lifted) and
   holds GCov's ranked covers over the shape's atom positions; each
   query of the shape maps them onto its atoms and binds its constants
   into the entry's plan (or builds its own JUCQ when they may not
   bind).  Sound because any cover answers completely; only the cost,
   priced on the shape's first query, can be stale, and it is not
   re-priced (that would be the search the entry saves).  The entry
   carries the dataset token: cover choice is data-dependent.
2. **Answer tier** — computed answers, keyed on the reformulation key
   *plus* a dataset token, the evaluation engine/backend, and the
   **data epoch**: a counter bumped on every data mutation, so any
   update retires all previously cached answers without scanning them.
3. **Invalidation hooks** — ``watch_store`` / ``watch_saturator``
   subscribe the cache to live updates: data-triple changes bump the
   data epoch (answers stale, reformulations kept); schema-triple/
   constraint changes additionally purge the reformulation tier
   (reformulations are schema-derived).

Epoch semantics: invalidation by epoch is *lazy* — stale answer
entries are not eagerly removed, they simply become unreachable (their
key embeds an old epoch) and age out of the LRU.  Schema changes, by
contrast, purge eagerly, because a schema change is rare and frees the
whole reformulation tier at once.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..rdf.triples import Triple
from ..schema.schema import Schema
from .keys import cover_key, policy_key, query_key
from .lru import LRUCache

#: Distinguishes datasets sharing one cache (keys embed it so answers
#: computed over one graph are never served for another).
_dataset_counter = itertools.count(1)


def dataset_token() -> int:
    """A fresh token identifying one dataset/answerer within a process."""
    return next(_dataset_counter)


class QueryCache:
    """A keyed, size-bounded reformulation + answer cache (see module doc).

    One instance may back several answerers (each contributes its own
    dataset token to answer keys); pass it to
    :class:`~repro.core.answerer.QueryAnswerer` and
    :class:`~repro.federation.client.FederatedAnswerer` as ``cache=``.

    >>> cache = QueryCache()
    >>> cache.data_epoch
    0
    >>> cache.note_data_change()
    >>> cache.data_epoch
    1
    """

    def __init__(
        self,
        reformulation_capacity: int = 256,
        answer_capacity: int = 2048,
    ):
        self.reformulations = LRUCache(reformulation_capacity)
        self.answers = LRUCache(answer_capacity)
        # Single-flight bookkeeping: key -> Event of the in-progress
        # computation (see :meth:`get_or_compute`).
        self._flights: Dict[Tuple[str, Tuple], threading.Event] = {}
        self._flights_lock = threading.Lock()
        #: Bumped on every data mutation; embedded in answer keys.
        self.data_epoch = 0
        #: Bumped on every schema mutation; embedded in every key.
        self.schema_epoch = 0
        #: How often each invalidation class fired.
        self.data_invalidations = 0
        self.schema_invalidations = 0

    # ------------------------------------------------------------------
    # Tier 3: invalidation

    def note_data_change(self) -> None:
        """A data triple changed: retire cached answers (lazily)."""
        self.data_epoch += 1
        self.data_invalidations += 1

    def note_schema_change(self) -> None:
        """A constraint changed: retire reformulations and answers."""
        self.schema_epoch += 1
        self.schema_invalidations += 1
        self.reformulations.invalidate()
        self.answers.invalidate()

    def note_triple_change(self, triple: Triple, operation: str = "change") -> None:
        """Classify one mutated triple: schema triples invalidate
        reformulations too, data triples only answers."""
        if triple.is_schema_triple():
            self.note_schema_change()
        else:
            self.note_data_change()

    def restore_epochs(self, data_epoch: int, schema_epoch: int) -> None:
        """Fast-forward the epoch counters to persisted values (never
        backwards).  A process recovering a durable store calls this so
        epoch monotonicity survives the restart: any key minted before
        the crash embeds an epoch ≤ the restored one, so a recovered
        cache either revalidates warm entries correctly or leaves them
        unreachable — it can never serve a pre-crash answer for
        post-crash data."""
        self.data_epoch = max(self.data_epoch, data_epoch)
        self.schema_epoch = max(self.schema_epoch, schema_epoch)

    # ------------------------------------------------------------------
    # Watch hooks (wired into the mutable containers' listener lists)

    def watch_store(self, store) -> None:
        """Subscribe to a :class:`~repro.storage.store.TripleStore`."""
        store.add_listener(self.note_triple_change)

    def watch_saturator(self, saturator) -> None:
        """Subscribe to an
        :class:`~repro.saturation.incremental.IncrementalSaturator`:
        data deltas bump the epoch, constraint changes purge."""
        saturator.add_listener(self._on_saturator_event)

    def _on_saturator_event(self, subject, operation: str) -> None:
        if operation.startswith("constraint"):
            self.note_schema_change()
        else:
            self.note_data_change()

    # ------------------------------------------------------------------
    # Tier 1: reformulations

    def reformulation_key(
        self,
        kind: str,
        query,
        schema: Schema,
        policy,
        extra: Hashable = None,
    ) -> Tuple:
        """The canonical reformulation-tier key (see module doc)."""
        return (
            kind,
            query_key(query),
            schema.fingerprint(),
            policy_key(policy),
            self.schema_epoch,
            extra,
        )

    def store_reformulation(self, key: Tuple, value: Any) -> None:
        self.reformulations.put(key, value)

    # ------------------------------------------------------------------
    # Tier 2: answers

    def answer_key(
        self,
        token: int,
        query,
        schema: Schema,
        policy,
        strategy: str,
        cover=None,
        extra: Hashable = None,
        data_epoch: Optional[int] = None,
    ) -> Tuple:
        """The answer-tier key: reformulation identity plus dataset
        token and the current epochs.  ``data_epoch`` overrides the
        cache's current data epoch — epoch invalidation is *lazy*
        (superseded entries linger in the LRU until aged out), so a
        caller may deliberately probe an older epoch's key to find a
        stale-but-servable answer (the stale-while-revalidate path)."""
        return (
            "answer",
            token,
            strategy,
            query_key(query),
            None if cover is None else cover_key(cover),
            schema.fingerprint(),
            policy_key(policy),
            self.data_epoch if data_epoch is None else data_epoch,
            self.schema_epoch,
            extra,
        )

    def endpoint_key(
        self,
        token: int,
        endpoint_name: str,
        query,
        schema: Schema,
        policy,
    ) -> Tuple:
        """An answer-tier key for one endpoint's sub-answer in a
        federation (per-endpoint caching: each source's contribution is
        reusable independently of the others)."""
        return (
            "endpoint",
            token,
            endpoint_name,
            query_key(query),
            schema.fingerprint(),
            policy_key(policy),
            self.data_epoch,
            self.schema_epoch,
        )

    def lookup_answer(self, key: Tuple) -> Optional[Any]:
        return self.answers.get(key)

    def store_answer(self, key: Tuple, value: Any) -> None:
        self.answers.put(key, value)

    # ------------------------------------------------------------------
    # Single-flight computation

    def get_or_compute(
        self, tier: str, key: Tuple, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """The cached value for *key*, computing (and storing) it at
        most once across concurrent callers; returns ``(value, hit)``.

        Without this, N threads missing on the same key would all
        run *compute* — for a reformulation that can be the entire UCQ
        blow-up, N times.  The first caller to miss becomes the
        *leader*: it computes, stores, and wakes the others, who then
        re-read the tier.  A leader that raises releases the flight
        (nothing is cached), and each waiter falls back to its own
        compute — correctness never depends on another thread's
        success.

        ``tier`` is ``"reformulation"`` or ``"answer"``.
        """
        store = {"reformulation": self.reformulations, "answer": self.answers}[tier]
        flight_key = (tier, key)
        while True:
            value = store.get(key)
            if value is not None:
                return value, True
            with self._flights_lock:
                event = self._flights.get(flight_key)
                if event is None:
                    event = threading.Event()
                    self._flights[flight_key] = event
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    value = compute()
                    store.put(key, value)
                    return value, False
                finally:
                    with self._flights_lock:
                        self._flights.pop(flight_key, None)
                    event.set()
            event.wait()
            # Re-read; on a leader failure (or an eviction racing the
            # wake-up) loop around — one waiter becomes the new leader.

    # ------------------------------------------------------------------
    # Introspection

    def stats(self) -> Dict[str, Any]:
        """A nested counter snapshot, built on demand (``repro
        cache-stats`` prints it, ``QueryService.cache_stats`` returns
        one per tenant); no answer report carries one."""
        return {
            "reformulation": dict(
                self.reformulations.stats.as_dict(),
                entries=len(self.reformulations),
                capacity=self.reformulations.capacity,
            ),
            "answer": dict(
                self.answers.stats.as_dict(),
                entries=len(self.answers),
                capacity=self.answers.capacity,
            ),
            "data_epoch": self.data_epoch,
            "schema_epoch": self.schema_epoch,
            "data_invalidations": self.data_invalidations,
            "schema_invalidations": self.schema_invalidations,
        }

    def __repr__(self) -> str:
        return "QueryCache(<%d reformulations, %d answers, epoch %d>)" % (
            len(self.reformulations),
            len(self.answers),
            self.data_epoch,
        )
