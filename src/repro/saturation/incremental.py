"""Incremental maintenance of a saturated graph, over store ids.

Section 1 of the paper: *"the saturation needs to be maintained after
changes in the data and/or constraints, which may incur a performance
penalty"* — the penalty Ref avoids, which experiment E7 measures.

**Support counting over ids.**  Under the closed schema every instance
derivation bottoms out in exactly one explicit triple (each instance
rule has one instance premise), so exact deletion reduces to counting,
per entailed triple, the explicit triples that derive it.  The counts
are a dict keyed by ``(s, p, o)`` ids of the base store; a triple is
explicit when the base store holds it (``base.contains(key)``).

**One pass, plus one chase.**  The consequence tables are read off the
closed schema once: per property id its superproperties, domains and
ranges; per class id its superclasses.  The closure already composes
the rules, so one lookup yields an explicit triple's consequences —
except under ``p rdfs:subPropertyOf rdf:type``, where ``(s p o)`` also
types ``s`` with ``o`` and with every superclass of ``o``, which the
table chases.  Consequences are deduplicated per explicit triple.  The
build is one pass over the base runs of the properties and classes
the tables name.

**One copy.**  The saturated store is the only copy of ``G∞``: a
:meth:`~repro.storage.store.TripleStore.fork` of the base store (same
dictionary, so the ids agree) plus the derived ids.  Sat adds no term
to a dictionary it does not own: a store holds its closed schema's
triples, and gives ``rdf:type`` an id once a domain or range enters
that schema (:meth:`~repro.storage.store.TripleStore.encode_constraints`),
so the ids a store assigns follow from its writes alone.

**Constraint changes resaturate.**  A schema change invalidates the
tables and every count at once, so it rebuilds the whole saturation —
the cost the paper attributes to Sat under schema updates.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.namespaces import RDF_TYPE
from ..rdf.triples import Triple
from ..schema.constraints import RESERVED_VOCABULARY, Constraint
from ..schema.schema import Schema
from ..storage.store import EncodedTriple, TripleStore


class IncrementalSaturator:
    """A saturated graph maintained under data insertions and deletions.

    ``IncrementalSaturator(schema, data)`` saturates *data* in a base
    store of its own; :meth:`over` saturates a store its owner writes.

    >>> from repro.rdf import Namespace, RDF_TYPE, Triple
    >>> from repro.schema import Constraint, Schema
    >>> EX = Namespace("http://example.org/")
    >>> schema = Schema([Constraint.subclass(EX.Manager, EX.Employee)])
    >>> sat = IncrementalSaturator(schema)
    >>> delta = sat.insert(Triple(EX.ann, RDF_TYPE, EX.Manager))
    >>> Triple(EX.ann, RDF_TYPE, EX.Employee) in sat.saturated()
    True
    >>> removed = sat.delete(Triple(EX.ann, RDF_TYPE, EX.Manager))
    >>> len(sat.saturated())  # only the schema constraint remains
    1
    """

    def __init__(
        self,
        schema: Optional[Schema] = None,
        data: Optional[Iterable[Triple]] = None,
    ):
        triples = list(data) if data is not None else []
        for triple in triples:
            _check_data_triple(triple)
        base = TripleStore()
        base.insert_many(triples)
        self._setup(schema.copy() if schema is not None else Schema(), base, True)

    @classmethod
    def over(cls, store: TripleStore) -> "IncrementalSaturator":
        """Saturate *store* under its closed schema, without copying it
        or listening to it.  Its owner writes *store* first, then
        reports each effective data write to :meth:`insert` /
        :meth:`delete` (which leave *store* alone) and each constraint
        change to :meth:`add_constraint` / :meth:`remove_constraint`."""
        saturator = cls.__new__(cls)
        saturator._setup(store.schema.copy(), store, False)
        return saturator

    def _setup(self, schema: Schema, base: TripleStore, owns_base: bool) -> None:
        self._schema = schema
        self._base = base
        self._owns_base = owns_base
        self._listeners = []
        self._build()

    def add_listener(self, callback) -> None:
        """Register ``callback(subject, operation)`` invoked after every
        successful mutation: ``(triple, "insert"|"delete")`` for data,
        ``(constraint, "constraint-add"|"constraint-remove")`` for
        schema changes — the cache subsystem distinguishes the two."""
        self._listeners.append(callback)

    def _notify(self, subject, operation: str) -> None:
        for callback in self._listeners:
            callback(subject, operation)

    # ------------------------------------------------------------------
    # The tables and the one pass

    def _build(self) -> None:
        """(Re)build the tables, the support counts and the saturated
        store from the schema and the base store."""
        base, schema = self._base, self._schema
        encode = base.dictionary.encode

        def ids(terms) -> Tuple[int, ...]:
            return tuple(sorted(map(encode, terms)))

        # Sorted, so a term only the schema names gets the same id
        # whatever PYTHONHASHSEED is.
        schema_keys = [tuple(map(encode, triple.as_tuple()))
                       for triple in sorted(schema.entailed_triples())]
        self._properties = {}
        for prop in schema.properties() - RESERVED_VOCABULARY:
            entry = (ids(schema.superproperties(prop)), ids(schema.domains(prop)),
                     ids(schema.ranges(prop)))
            if any(entry):
                self._properties[encode(prop)] = entry
        if any(entry[1] or entry[2] for entry in self._properties.values()):
            # A lookup, but in a base store of the saturator's own.
            encode(RDF_TYPE)
        self._classes = {
            encode(klass): ids(schema.superclasses(klass))
            for klass in schema.classes()
            if schema.superclasses(klass)
        }
        self._type_id = base.dictionary.lookup(RDF_TYPE)
        explicit = [base.match(property_id=prop) for prop in self._properties]
        if self._type_id is not None:
            explicit += [base.match(property_id=self._type_id, object_id=klass)
                         for klass in self._classes]
        self._support = support = Counter()
        for keys in explicit:
            for key in keys:
                support.update(self._consequences(key))
        self.store = base.fork()
        self.store.schema = schema.copy()
        self.store.insert_encoded(schema_keys + list(support))

    def _consequences(self, key: EncodedTriple) -> Set[EncodedTriple]:
        """The instance triples *key* entails under the closed schema,
        without *key* itself."""
        s, p, o = key
        type_id, classes = self._type_id, self._classes
        if p == type_id:
            derived = {(s, p, klass) for klass in classes.get(o, ())}
        else:
            entry = self._properties.get(p)
            if entry is None:
                return set()
            supers, domains, ranges = entry
            derived = {(s, sup, o) for sup in supers}
            derived.update((s, type_id, klass) for klass in domains)
            if ranges and not self._base.dictionary.is_literal_id(o):
                derived.update((o, type_id, klass) for klass in ranges)
            if type_id in supers:  # p ⊑ rdf:type: o is a class of s
                derived.update((s, type_id, klass) for klass in classes.get(o, ()))
        derived.discard(key)
        return derived

    # ------------------------------------------------------------------
    # Views

    def saturated(self) -> Graph:
        """The maintained saturation, decoded into a new graph."""
        return Graph(self.store.triples())

    def explicit_triples(self) -> Set[Triple]:
        return set(self._base.data_triples())

    def schema(self) -> Schema:
        return self._schema.copy()

    @property
    def derived_count(self) -> int:
        """How many triples in the saturation are entailed-only."""
        return sum(1 for key in self._support if not self._base.contains(key))

    # ------------------------------------------------------------------
    # Data updates

    def insert(self, triple: Triple) -> List[Triple]:
        """Add one explicit data triple and its consequences.  Returns
        the triples that became part of the saturation (the delta)."""
        _check_data_triple(triple)
        if self._owns_base and not self._base.insert(triple):
            return []
        key = self._base.encode(triple)
        if self._type_id is None:  # the first type triple encoded rdf:type
            self._type_id = self._base.dictionary.lookup(RDF_TYPE)
        fresh = [key]
        for consequence in self._consequences(key):
            self._support[consequence] += 1
            if self._support[consequence] == 1:
                fresh.append(consequence)
        return self._write(triple, "insert", fresh, self.store.insert)

    def insert_all(self, triples: Iterable[Triple]) -> None:
        for triple in triples:
            self.insert(triple)

    def delete(self, triple: Triple) -> List[Triple]:
        """Remove one explicit data triple; evict unsupported
        entailments.  Returns the triples that left the saturation."""
        if self._owns_base and not self._base.delete(triple):
            return []
        key = self._base.encode(triple)
        support = self._support
        stale = []
        for consequence in self._consequences(key):
            support[consequence] -= 1
            if not support[consequence]:
                del support[consequence]
                if not self._base.contains(consequence):
                    stale.append(consequence)
        if key not in support:
            stale.append(key)
        return self._write(triple, "delete", stale, self.store.delete)

    def delete_all(self, triples: Iterable[Triple]) -> None:
        for triple in triples:
            self.delete(triple)

    def _write(self, triple: Triple, operation: str, keys, write) -> List[Triple]:
        """Apply *write* to the saturated store for each of *keys*,
        decoded, then notify the *operation* on *triple*; returns the
        triples the write changed."""
        changed = [item for item in map(self.store.decode_triple, keys) if write(item)]
        self._notify(triple, operation)
        return changed

    # ------------------------------------------------------------------
    # Schema updates (full recomputation — the Sat maintenance penalty)

    def add_constraint(self, constraint: Constraint) -> None:
        if self._schema.add(constraint):
            self._build()
            self._notify(constraint, "constraint-add")

    def remove_constraint(self, constraint: Constraint) -> None:
        if self._schema.remove(constraint):
            self._build()
            self._notify(constraint, "constraint-remove")

    def __len__(self) -> int:
        return len(self.store)


def _check_data_triple(triple: Triple) -> None:
    if triple.is_schema_triple():
        raise ValueError("schema triples must go through add_constraint, got %r" % (triple,))
