"""The dictionary-encoded triple store.

The paper evaluates Ref strategies "through performant relational
database management systems" holding a triple table ``t(s, p, o)``.
:class:`TripleStore` is this repository's stand-in (see DESIGN.md's
substitution table): one triple table of integer codes, stored once
as the SPO/POS/OSP sorted runs of :meth:`TripleStore.columnar` — the
clustered indexes such an RDBMS would keep *are* the table.  Single
writes patch the runs in place; loads, checkpoint restore and WAL
replay go through :meth:`TripleStore.insert_many` (or
:meth:`TripleStore.insert_encoded`), one sort a batch.

Loading a graph always stores the *closed* schema alongside the data
(the database contract of :mod:`repro.reformulation.atoms`), and keeps
the statistics of :mod:`repro.storage.statistics` current.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterable, Iterator, List, Optional, Tuple

from ..columnar.indexes import ColumnarIndexSet
from ..rdf.graph import Graph
from ..rdf.namespaces import RDF_TYPE, SCHEMA_PROPERTIES
from ..rdf.terms import Term
from ..rdf.triples import Triple
from ..schema.constraints import Constraint, ConstraintKind
from ..schema.schema import Schema
from .dictionary import Dictionary
from .statistics import StoreStatistics

#: An encoded triple.
EncodedTriple = Tuple[int, int, int]


class TripleStore:
    """An in-memory relational triple table, held as sorted runs, with
    statistics.

    >>> from repro.rdf import Namespace, RDF_TYPE, Triple, Graph
    >>> EX = Namespace("http://example.org/")
    >>> store = TripleStore.from_graph(Graph([Triple(EX.a, RDF_TYPE, EX.C)]))
    >>> store.triple_count
    1
    """

    def __init__(self):
        self.dictionary = Dictionary()
        self._type_id: Optional[int] = None
        self.statistics = StoreStatistics(lambda: self._type_id)
        self.schema = Schema()
        self._listeners = []
        self._pre_listeners = []
        # Bumped by every triple a write adds or removes: the clock of
        # the reader rule in repro.columnar.indexes.
        self._mutation_epoch = 0
        self._runs = ColumnarIndexSet()

    def add_listener(self, callback) -> None:
        """Register ``callback(triple, operation)`` invoked after every
        successful :meth:`insert`/:meth:`delete` and for each new triple
        of a bulk insert (operation ``"insert"`` or ``"delete"``) — the
        cache subsystem's invalidation hook."""
        self._listeners.append(callback)

    def add_pre_listener(self, callback) -> None:
        """Register ``callback(triple, operation)`` invoked *before* a
        mutation is applied (it may turn out to be a no-op) — the
        snapshot subsystem's copy-on-write hook: a pinned reader
        materializes the pre-write state here, so it never observes the
        write itself."""
        self._pre_listeners.append(callback)

    def _notify(self, triple: Triple, operation: str) -> None:
        for callback in self._listeners:
            callback(triple, operation)

    def _notify_pre(self, triple: Triple, operation: str) -> None:
        for callback in self._pre_listeners:
            callback(triple, operation)

    # ------------------------------------------------------------------
    # Loading

    @classmethod
    def from_graph(
        cls, graph: Graph, schema: Optional[Schema] = None
    ) -> "TripleStore":
        """Build a store from *graph*; constraints found in the graph
        and in *schema* are merged, closed, and stored."""
        store = cls()
        store.load(graph, schema)
        return store

    def load(self, graph: Graph, schema: Optional[Schema] = None) -> None:
        """Load a graph (and optional extra constraints) into the store:
        its data triples, then the closed schema's, in one
        :meth:`insert_many`."""
        combined = Schema.from_graph(graph)
        if schema is not None:
            for constraint in schema.direct_constraints():
                combined.add(constraint)
        for constraint in combined.direct_constraints():
            self.schema.add(constraint)
        self.insert_many(
            chain(graph.data_triples(), self.schema.entailed_triples())
        )
        if self._type_id is None:  # the closure's terms have ids already
            self.encode_constraints(self.schema.direct_constraints())

    @classmethod
    def from_encoded(
        cls,
        terms: Iterable[Term],
        triples: Iterable[EncodedTriple],
        schema: Optional[Schema] = None,
    ) -> "TripleStore":
        """Rebuild a store from a checkpoint snapshot: the dictionary's
        term table in id order plus the encoded triple table.

        Re-encoding *terms* in order reproduces the exact id
        assignment (ids are dense, first-seen), so the encoded triples
        go straight into the runs.  The triple list is input from
        outside the program, so it goes through the bulk path: sorted
        (linear when it already is) and stripped of duplicates.
        Statistics are re-derived triple by triple, which makes them
        equal a fresh :meth:`from_graph` build by construction.
        """
        store = cls()
        for term in terms:
            if term is None:
                store.dictionary.reserve(1)
            else:
                store.dictionary.encode(term)
        type_id = store.dictionary.lookup(RDF_TYPE)
        if type_id is not None:
            store._type_id = type_id
        store.insert_encoded(map(tuple, triples))
        if schema is not None:
            for constraint in schema.direct_constraints():
                store.schema.add(constraint)
        if store._type_id is None:  # the closure's terms have ids already
            store.encode_constraints(store.schema.direct_constraints())
        return store

    def copy(self) -> "TripleStore":
        """An independent store equal to this one — same ids, runs,
        statistics and schema, so a query plans and answers over the
        copy exactly as over the original — with no listeners.  The
        snapshot freeze: array slices and container copies, no
        re-encoding and no sort."""
        clone = TripleStore()
        clone.dictionary = self.dictionary.copy()
        clone._type_id = self._type_id
        clone.statistics = self.statistics.copy(lambda: clone._type_id)
        clone.schema = self.schema.copy()
        clone._mutation_epoch = self._mutation_epoch
        clone._runs = self._runs.copy()
        return clone

    def fork(self) -> "TripleStore":
        """A copy of this store (runs, statistics, schema; no listeners)
        that shares its dictionary, so the ids of the two stores agree
        for good: Sat's saturated store starts as a fork."""
        clone = self.copy()
        clone.dictionary = self.dictionary
        clone._type_id = self.dictionary.lookup(RDF_TYPE)
        return clone

    def encoded_state(self) -> Tuple[List[Term], List[EncodedTriple]]:
        """The checkpoint payload: (terms in id order, sorted encoded
        triples) — everything :meth:`from_encoded` needs.

        The triple list is **sorted by (s, p, o)** — a contract, not an
        accident: checkpoint bytes must not depend on ``PYTHONHASHSEED``.
        It is the SPO run, read out."""
        return self.dictionary.terms(), list(self.scan_all())

    def encode(self, triple: Triple) -> EncodedTriple:
        """The ids of *triple*'s terms, assigning new ones in the order
        :meth:`insert` does."""
        subject, property_, object_ = triple
        if self._type_id is None and property_ == RDF_TYPE:
            self._type_id = self.dictionary.encode(RDF_TYPE)
        encode = self.dictionary.encode
        return encode(subject), encode(property_), encode(object_)

    def encode_constraints(self, constraints: Iterable[Constraint]) -> None:
        """Give each constraint's terms ids, in order, and ``rdf:type``
        one after the first domain or range (Sat may type data with it).
        Every path that takes constraints calls this, so a store's ids
        follow from its operations alone: not from the closure's set
        order, nor from whether a saturator read the store."""
        for constraint in constraints:
            self.encode(constraint.to_triple())
            typing = constraint.kind in (ConstraintKind.DOMAIN, ConstraintKind.RANGE)
            if typing and self._type_id is None:
                self._type_id = self.dictionary.encode(RDF_TYPE)

    def insert(self, triple: Triple) -> bool:
        """Insert one triple; return True when it was new."""
        if self._pre_listeners:
            self._notify_pre(triple, "insert")
        encoded = self.encode(triple)
        if not self._runs.patch(encoded, True):
            return False
        self.statistics.record(*encoded)
        self._mutation_epoch += 1
        if self._listeners:
            self._notify(triple, "insert")
        return True

    def insert_many(self, triples: Iterable[Triple]) -> List[Triple]:
        """Insert a batch; return the triples that were new, in input
        order.

        The bulk path of loads: ids are assigned as a loop of
        :meth:`insert` would assign them, then the batch is sorted once,
        stripped of duplicates and of triples already stored, and merged
        into the runs.  Pre-listeners and listeners fire once per new
        triple.  (A loop of :meth:`insert` would patch the runs once per
        triple: quadratic in the batch.)"""
        triples = list(triples)
        keys = list(map(self.encode, triples))
        fresh = self._fresh(keys)
        new = triples
        if len(fresh) < len(triples):  # keep each new triple's first place
            kept = set(fresh)
            new = list({k: t for k, t in zip(keys, triples) if k in kept}.values())
        self._extend(fresh, new)
        return new

    def insert_encoded(self, keys: Iterable[EncodedTriple]) -> List[EncodedTriple]:
        """:meth:`insert_many` for triples already encoded (by
        :meth:`encode`, or in a checkpoint); returns the new ones,
        sorted.  Listeners get them decoded.  WAL replay encodes each
        record as it reads it and keeps only the ids, not the parsed
        triples, until the run of inserts ends."""
        fresh = self._fresh(keys)
        listened = self._listeners or self._pre_listeners
        self._extend(fresh, map(self.decode_triple, fresh) if listened else ())
        return fresh

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        """The triple an encoded ``(s, p, o)`` stands for."""
        return Triple(*map(self.dictionary.decode, encoded))

    def _fresh(self, keys: Iterable[EncodedTriple]) -> List[EncodedTriple]:
        """*keys* sorted, without duplicates or triples already stored."""
        return self._runs.missing([key for key, _ in groupby(sorted(keys))])

    def _extend(self, fresh: List[EncodedTriple], new: Iterable[Triple]) -> None:
        """Add the output of :meth:`_fresh` to the runs and statistics,
        firing the listeners for *new*, the same triples decoded."""
        if not fresh:
            return
        new = list(new)
        if self._pre_listeners:
            for triple in new:
                self._notify_pre(triple, "insert")
        self._runs.extend(fresh)
        self.statistics.record_many(fresh)
        self._mutation_epoch += len(fresh)
        if self._listeners:
            for triple in new:
                self._notify(triple, "insert")

    def delete(self, triple: Triple) -> bool:
        """Remove one triple (if present); keeps the runs and statistics
        consistent.  Dictionary entries are never reclaimed (ids are
        stable by design)."""
        if self._pre_listeners:
            self._notify_pre(triple, "delete")
        encoded = tuple(
            self.dictionary.lookup(term) for term in triple.as_tuple()
        )
        if None in encoded or not self._runs.patch(encoded, False):
            return False
        self.statistics.unrecord(*encoded)
        self._mutation_epoch += 1
        if self._listeners:
            self._notify(triple, "delete")
        return True

    # ------------------------------------------------------------------
    # Identifier helpers

    def term_id(self, term: Term) -> Optional[int]:
        """The id of *term*, or None when absent from the store."""
        return self.dictionary.lookup(term)

    def decode_row(self, row: Tuple) -> Tuple[Term, ...]:
        # Projection rows may carry a ready Term (a constant the query
        # names but the data never stored — see ``("term", …)`` specs):
        # those pass through undecoded.
        return tuple(
            value if isinstance(value, Term) else self.dictionary.decode(value)
            for value in row
        )

    @property
    def type_property_id(self) -> Optional[int]:
        return self._type_id

    # ------------------------------------------------------------------
    # Access paths

    @property
    def triple_count(self) -> int:
        return len(self._runs)

    def contains(self, encoded: EncodedTriple) -> bool:
        return self._runs.contains(encoded)

    def scan_all(self) -> Iterator[EncodedTriple]:
        """Full triple-table scan (patterns with unbound property): the
        SPO run, so deterministically **sorted by (s, p, o)** whatever
        ``PYTHONHASHSEED`` is."""
        return self._runs.order("spo").iter_triples()

    def __iter__(self) -> Iterator[EncodedTriple]:
        """Iterate the encoded triple table in sorted (s, p, o) order —
        the same deterministic contract as :meth:`scan_all`."""
        return self.scan_all()

    def match(
        self,
        subject_id: Optional[int] = None,
        property_id: Optional[int] = None,
        object_id: Optional[int] = None,
    ) -> Iterator[EncodedTriple]:
        """Yield encoded triples matching the bound ids (None = wildcard)
        in a deterministic sorted order.

        The order is the probing index's run order — (s, p, o) for
        subject-bound or unconstrained matches, (p, o, s) when the
        property is bound, (o, s, p) for object-only matches — never
        hash order, so repeated runs under different ``PYTHONHASHSEED``
        values enumerate identically.
        """
        return self._runs.match(subject_id, property_id, object_id)

    @property
    def mutation_epoch(self) -> int:
        """Monotone count of the triples writes have added or removed."""
        return self._mutation_epoch

    def columnar(self) -> ColumnarIndexSet:
        """The store's :class:`~repro.columnar.indexes.ColumnarIndexSet`:
        the SPO/POS/OSP sorted runs that hold its triples."""
        return self._runs

    def triples(self) -> Iterator[Triple]:
        """Every stored triple, decoded, in (s, p, o) order."""
        return map(self.decode_triple, self.scan_all())

    def data_triples(self) -> Iterator[Triple]:
        """The stored data triples, decoded, in (s, p, o) order: the
        SPO run without the rows of the four schema properties (the
        closed schema's triples)."""
        lookup = self.dictionary.lookup
        schema_ids = {lookup(prop) for prop in SCHEMA_PROPERTIES}
        decode = self.dictionary.decode
        for s, p, o in self.scan_all():
            if p not in schema_ids:
                yield Triple(decode(s), decode(p), decode(o))

    def to_graph(self) -> Graph:
        """Decode the full store back into a logical graph."""
        return Graph(self.triples())

    def __len__(self) -> int:
        return len(self._runs)

    def __repr__(self) -> str:
        return "TripleStore(<%d triples, %d terms>)" % (
            len(self._runs),
            len(self.dictionary),
        )
