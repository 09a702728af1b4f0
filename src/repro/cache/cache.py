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
   *plus* a dataset token and the evaluation engine/backend.  Each
   entry keeps the data epoch read before it was computed and its
   *footprint*: the scan patterns of the Ref query that computed it,
   ``(s, p, o)`` terms with None for a variable (or an interval).
   ``Ref(q)`` reads only triples matching those patterns, so a data
   write that matches none cannot change the answer (the paper's E7
   argument for Ref under updates).  ``SAT``, ``DATALOG``, federation
   and any entry stored without a footprint match every write.
3. **Invalidation hooks** — ``watch_store`` / ``watch_saturator``
   subscribe the cache to live updates: a data triple change retires
   the answers whose footprint it matches (reformulations kept);
   schema-triple/constraint changes purge both tiers (reformulations
   are schema-derived).

Epoch semantics: a data write bumps the data epoch and records it
under the write's 8 generalisations ``{s,*}×{p,*}×{o,*}``, O(1) per
write whatever the number of entries.  Retirement is *lazy*: an entry
is valid while each of its footprint patterns was last written at or
before the entry's epoch, and its epoch is at or above a floor.  A
data change with no triple (:meth:`QueryCache.note_data_change`),
:meth:`QueryCache.restore_epochs` and a full write map raise the floor,
retiring every entry.  Retired entries stay in the LRU, where
stale-while-revalidate can still serve one within its epoch window,
and age out.  Schema changes, by contrast, purge eagerly, because a
schema change is rare and frees the whole reformulation tier at once.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..query.algebra import JoinOfUnions, UnionQuery
from ..rdf.terms import BlankNode, Literal, URI
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


#: The footprint of an entry that any data write retires.
_ANY_WRITE = ((None, None, None),)

#: Footprint keys the write map holds before it is cleared (and the
#: floor raised): each write adds at most 8.
_WRITE_KEYS = 1 << 16


def footprint_of(relational, slots=None) -> Tuple[Tuple, ...]:
    """The scan patterns of *relational* (a CQ, UCQ or JUCQ), each once,
    in first-seen order: an atom's ``(s, p, o)`` with None for a
    variable or an interval, and with *slots* (constant → k) ``k`` for
    a slot's constant (:func:`bind_footprint` fills it)."""
    unions = relational.fragments if isinstance(relational, JoinOfUnions) else [relational]
    slots = slots or {}
    return tuple(dict.fromkeys(
        tuple(
            slots.get(term, term) if isinstance(term, (URI, BlankNode, Literal)) else None
            for term in atom.as_tuple()
        )
        for union in unions
        for cq in (union.disjuncts if isinstance(union, UnionQuery) else [union])
        for atom in cq.atoms
    ))


def bind_footprint(patterns: Tuple[Tuple, ...], constants: Tuple) -> Tuple[Tuple, ...]:
    """*patterns* of :func:`footprint_of` with each slot ``k`` bound to
    ``constants[k]``."""
    return tuple(
        tuple(constants[term] if term.__class__ is int else term for term in pattern)
        for pattern in patterns
    )


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
        #: Bumped on every data mutation; stamped on answer entries.
        self.data_epoch = 0
        #: Bumped on every schema mutation; embedded in every key.
        self.schema_epoch = 0
        #: How often each invalidation class fired.
        self.data_invalidations = 0
        self.schema_invalidations = 0
        #: Answer lookups that found an entry a data write had retired.
        self.retired_lookups = 0
        # Footprint key -> epoch of the last data write it matched, and
        # the epoch below which every entry is retired.
        self._written: Dict[Tuple, int] = {}
        self._floor = 0

    # ------------------------------------------------------------------
    # Tier 3: invalidation

    def note_data_change(self, triple: Optional[Triple] = None) -> None:
        """Data changed: retire (lazily) the answers whose footprint
        *triple* matches, or every answer when *triple* is None."""
        self.data_epoch += 1
        self.data_invalidations += 1
        if triple is None or len(self._written) >= _WRITE_KEYS:
            self._written.clear()
            self._floor = self.data_epoch
            return
        subject, property_, object_ = triple
        for key in itertools.product((subject, None), (property_, None), (object_, None)):
            self._written[key] = self.data_epoch

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
            self.note_data_change(triple)

    def restore_epochs(self, data_epoch: int, schema_epoch: int) -> None:
        """Fast-forward the epoch counters to persisted values (never
        backwards).  A process recovering a durable store calls this so
        epoch monotonicity survives the restart: any answer stored
        before the crash carries a data epoch ≤ the restored one, and
        the floor rises to the restored data epoch, so a recovered cache
        can never serve a pre-crash answer for post-crash data."""
        self.data_epoch = max(self.data_epoch, data_epoch)
        self.schema_epoch = max(self.schema_epoch, schema_epoch)
        self._floor = self.data_epoch

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
    ) -> Tuple:
        """The answer-tier key: reformulation identity plus dataset
        token and the schema epoch.  It holds no data epoch: the entry
        carries its own, and its footprint decides which writes retire
        it (see module doc)."""
        return (
            "answer",
            token,
            strategy,
            query_key(query),
            None if cover is None else cover_key(cover),
            schema.fingerprint(),
            policy_key(policy),
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
        """The answer stored under *key* while it is valid, else None."""
        entry = self.answers.get(key, self._within)
        return None if entry is None else entry[0]

    def lookup_stale(self, key: Tuple, max_age: int) -> Optional[Tuple[Any, int]]:
        """``(answer, age)`` for the entry under *key* if it is valid
        (age 0) or was retired at most *max_age* data epochs after it
        was computed (the age is the data epochs since then); else None.
        Counts as a hit or a miss like :meth:`lookup_answer`."""
        entry = self.answers.get(key, lambda found: self._within(found, max_age))
        return None if entry is None else (entry[0], self._age(entry))

    def holds_answer(self, key: Tuple) -> bool:
        """Whether *key* has a valid entry; counts nothing."""
        entry = self.answers.peek(key)
        return entry is not None and self._age(entry) == 0

    def store_answer(
        self,
        key: Tuple,
        value: Any,
        data_epoch: Optional[int] = None,
        footprint: Optional[Tuple[Tuple, ...]] = None,
    ) -> None:
        """Store *value*, computed over the data of *data_epoch* — read
        before computing; default: the current one — by a query whose
        scan patterns are *footprint* (default: every write retires it)."""
        epoch = self.data_epoch if data_epoch is None else data_epoch
        self.answers.put(key, (value, epoch, _ANY_WRITE if footprint is None else footprint))

    def _age(self, entry) -> int:
        """0 while *entry* is valid, else the data epochs since its own."""
        _, epoch, footprint = entry
        written = self._written.get
        if epoch >= self._floor and all(written(key, 0) <= epoch for key in footprint):
            return 0
        return self.data_epoch - epoch

    def _within(self, entry, max_age: int = 0) -> bool:
        """Whether *entry*'s age is at most *max_age*; counts a retired one."""
        age = self._age(entry)
        if age:
            self.retired_lookups += 1
        return age <= max_age

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

        ``tier`` is ``"reformulation"``: answers are stored with their
        epoch and footprint (:meth:`store_answer`).
        """
        store = {"reformulation": self.reformulations}[tier]
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
            "retired_lookups": self.retired_lookups,
            "schema_invalidations": self.schema_invalidations,
        }

    def __repr__(self) -> str:
        return "QueryCache(<%d reformulations, %d answers, epoch %d>)" % (
            len(self.reformulations),
            len(self.answers),
            self.data_epoch,
        )
