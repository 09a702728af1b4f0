"""The dictionary-encoded triple store.

The paper evaluates Ref strategies "through performant relational
database management systems" holding a triple table ``t(s, p, o)``.
:class:`TripleStore` is this repository's stand-in (see DESIGN.md's
substitution table): a single logical triple table of integer codes
whose secondary access paths — the indexes such an RDBMS would use —
are the SPO/POS/OSP sorted runs of :meth:`TripleStore.columnar`,
built on first probe and patched in place on every write.

Loading a graph always stores the *closed* schema alongside the data
(the database contract of :mod:`repro.reformulation.atoms`), and keeps
the statistics of :mod:`repro.storage.statistics` current.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import Term
from ..rdf.triples import Triple
from ..schema.schema import Schema
from .dictionary import Dictionary
from .statistics import StoreStatistics

#: An encoded triple.
EncodedTriple = Tuple[int, int, int]


class TripleStore:
    """An in-memory relational triple table with indexes and statistics.

    >>> from repro.rdf import Namespace, RDF_TYPE, Triple, Graph
    >>> EX = Namespace("http://example.org/")
    >>> store = TripleStore.from_graph(Graph([Triple(EX.a, RDF_TYPE, EX.C)]))
    >>> store.triple_count
    1
    """

    def __init__(self):
        self.dictionary = Dictionary()
        self._triples: Set[EncodedTriple] = set()
        self._type_id: Optional[int] = None
        self.statistics = StoreStatistics(lambda: self._type_id)
        self.schema = Schema()
        self._listeners = []
        self._pre_listeners = []
        # Bumped on every successful encoded-level mutation — including
        # paths that bypass the Triple-level listeners (checkpoint
        # restore).  The columnar index set compares this against the
        # epoch its runs are current at to patch or rebuild them.
        self._mutation_epoch = 0
        self._columnar = None

    def add_listener(self, callback) -> None:
        """Register ``callback(triple, operation)`` invoked after every
        successful :meth:`insert`/:meth:`delete` (operation ``"insert"``
        or ``"delete"``) — the cache subsystem's invalidation hook."""
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
        """Load a graph (and optional extra constraints) into the store.

        Built columnar runs are dropped first: the next probe pays one
        sort instead of the load paying one patch per triple."""
        if self._columnar is not None:
            self._columnar.invalidate()
        combined = Schema.from_graph(graph)
        if schema is not None:
            for constraint in schema.direct_constraints():
                combined.add(constraint)
        for constraint in combined.direct_constraints():
            self.schema.add(constraint)
        for triple in graph.data_triples():
            self.insert(triple)
        for triple in self.schema.entailed_triples():
            self.insert(triple)

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
        drop straight into the indexes; statistics are re-derived
        triple by triple, which makes them equal a fresh
        :meth:`from_graph` build by construction.
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
        for encoded in triples:
            store._insert_encoded(tuple(encoded))
        if schema is not None:
            for constraint in schema.direct_constraints():
                store.schema.add(constraint)
        return store

    def encoded_state(self) -> Tuple[List[Term], List[EncodedTriple]]:
        """The checkpoint payload: (terms in id order, sorted encoded
        triples) — everything :meth:`from_encoded` needs.

        The triple list is **sorted by (s, p, o)** — a contract, not an
        accident: checkpoint bytes must not depend on set iteration
        order (``PYTHONHASHSEED``), and the columnar SPO index can be
        rebuilt from a restored checkpoint without re-sorting."""
        return self.dictionary.terms(), sorted(self._triples)

    def insert(self, triple: Triple) -> bool:
        """Insert one triple; return True when it was new."""
        if self._pre_listeners:
            self._notify_pre(triple, "insert")
        if triple.property == RDF_TYPE and self._type_id is None:
            self._type_id = self.dictionary.encode(RDF_TYPE)
        encoded = (
            self.dictionary.encode(triple.subject),
            self.dictionary.encode(triple.property),
            self.dictionary.encode(triple.object),
        )
        inserted = self._insert_encoded(encoded)
        if inserted and self._listeners:
            self._notify(triple, "insert")
        return inserted

    def _insert_encoded(self, encoded: EncodedTriple) -> bool:
        if encoded in self._triples:
            return False
        self._triples.add(encoded)
        self.statistics.record(*encoded)
        self._mutation_epoch += 1
        return True

    def delete(self, triple: Triple) -> bool:
        """Remove one triple (if present); keeps indexes and statistics
        consistent.  Dictionary entries are never reclaimed (ids are
        stable by design)."""
        if self._pre_listeners:
            self._notify_pre(triple, "delete")
        encoded = tuple(
            self.dictionary.lookup(term) for term in triple.as_tuple()
        )
        if None in encoded or encoded not in self._triples:
            return False
        self._triples.discard(encoded)  # type: ignore[arg-type]
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
        return len(self._triples)

    def contains(self, encoded: EncodedTriple) -> bool:
        return encoded in self._triples

    def scan_all(self) -> Iterator[EncodedTriple]:
        """Full triple-table scan (patterns with unbound property).

        Deterministically **sorted by (s, p, o)**: the columnar engine's
        sorted-run indexes assume a stable base order, and every engine's
        scan output must not vary with ``PYTHONHASHSEED`` (set iteration
        order).  Served from the columnar SPO run when one is already
        built and current, so the sort is not paid twice.
        """
        columnar = self._columnar
        if columnar is not None and columnar.has_current("spo"):
            return columnar.order("spo").iter_triples()
        return iter(sorted(self._triples))

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
        return self.columnar().match(subject_id, property_id, object_id)

    # ------------------------------------------------------------------
    # Columnar sorted-run indexes (the vectorized engine's access paths)

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of successful encoded-level mutations."""
        return self._mutation_epoch

    def columnar(self):
        """The store's :class:`~repro.columnar.indexes.ColumnarIndexSet`
        — SPO/POS/OSP sorted integer-run indexes, built lazily on first
        probe, patched by the mutation listener and rebuilt when the
        epoch shows a write that bypassed it."""
        if self._columnar is None:
            from ..columnar.indexes import ColumnarIndexSet

            self._columnar = ColumnarIndexSet(self)
        return self._columnar

    # ------------------------------------------------------------------

    def to_graph(self) -> Graph:
        """Decode the full store back into a logical graph."""
        graph = Graph()
        for subject_id, property_id, object_id in self._triples:
            graph.add(
                Triple(
                    self.dictionary.decode(subject_id),
                    self.dictionary.decode(property_id),
                    self.dictionary.decode(object_id),
                )
            )
        return graph

    def __len__(self) -> int:
        return len(self._triples)

    def __repr__(self) -> str:
        return "TripleStore(<%d triples, %d terms>)" % (
            len(self._triples),
            len(self.dictionary),
        )
