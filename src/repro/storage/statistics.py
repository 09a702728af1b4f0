"""Database statistics: the raw material of the cost model.

The demo's first screen shows, per dataset, "value distributions for
subject, property and object, for attribute pairs etc." (Section 5,
step 1); the cost model of [5] estimates (sub)query cardinalities from
the same statistics an RDBMS keeps on a triple table:

* total triple count;
* per-property triple counts and distinct subject/object counts;
* per-class instance counts (cardinality of ``rdf:type`` per class);
* global distinct counts per column.

All statistics are maintained incrementally on insertion, so loading a
graph leaves the store ready for cost-based planning with no separate
ANALYZE pass.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import itemgetter
from typing import Dict, List, Sequence, Set, Tuple


class PropertyStatistics:
    """Counts for one property's (s, o) pairs."""

    __slots__ = ("triples", "_subjects", "_objects")

    def __init__(self):
        self.triples = 0
        self._subjects: Counter = Counter()
        self._objects: Counter = Counter()

    def record(self, subject_id: int, object_id: int) -> None:
        self.triples += 1
        self._subjects[subject_id] += 1
        self._objects[object_id] += 1

    def copy(self) -> "PropertyStatistics":
        clone = PropertyStatistics()
        clone.triples = self.triples
        clone._subjects = self._subjects.copy()
        clone._objects = self._objects.copy()
        return clone

    def unrecord(self, subject_id: int, object_id: int) -> None:
        self.triples -= 1
        for counter, key in ((self._subjects, subject_id), (self._objects, object_id)):
            counter[key] -= 1
            if counter[key] <= 0:
                del counter[key]

    @property
    def distinct_subjects(self) -> int:
        return len(self._subjects)

    @property
    def distinct_objects(self) -> int:
        return len(self._objects)

    def subject_count(self, subject_id: int) -> int:
        return self._subjects.get(subject_id, 0)

    def object_count(self, object_id: int) -> int:
        return self._objects.get(object_id, 0)

    def top_subjects(self, limit: int = 10) -> List[Tuple[int, int]]:
        return self._subjects.most_common(limit)


class StoreStatistics:
    """Statistics over an entire triple store."""

    def __init__(self, type_property_id_getter):
        # Callable returning the id of rdf:type once encoded (or None);
        # passed lazily because the dictionary assigns ids on first use.
        self._type_property_id = type_property_id_getter
        self.total_triples = 0
        self.per_property: Dict[int, PropertyStatistics] = defaultdict(
            PropertyStatistics
        )
        self.class_cardinality: Counter = Counter()
        self._all_subjects: Set[int] = set()
        self._all_objects: Set[int] = set()

    def copy(self, type_property_id_getter) -> "StoreStatistics":
        """Independent statistics equal to these, reading the type
        id through *type_property_id_getter* (the copy's store's)."""
        clone = StoreStatistics(type_property_id_getter)
        clone.total_triples = self.total_triples
        for property_id, stats in self.per_property.items():
            clone.per_property[property_id] = stats.copy()
        clone.class_cardinality = self.class_cardinality.copy()
        clone._all_subjects = set(self._all_subjects)
        clone._all_objects = set(self._all_objects)
        return clone

    def record(self, subject_id: int, property_id: int, object_id: int) -> None:
        self.total_triples += 1
        self.per_property[property_id].record(subject_id, object_id)
        self._all_subjects.add(subject_id)
        self._all_objects.add(object_id)
        if property_id == self._type_property_id():
            self.class_cardinality[object_id] += 1

    def record_many(self, triples: Sequence[Tuple[int, int, int]]) -> None:
        """:meth:`record` every triple of a bulk load, counting each
        property's columns with one C-level ``Counter.update`` apiece
        instead of a Python call per triple (~3x faster)."""
        by_property: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
        for triple in triples:
            by_property[triple[1]].append(triple)
        type_id = self._type_property_id()
        for property_id, rows in by_property.items():
            subjects = list(map(itemgetter(0), rows))
            objects = list(map(itemgetter(2), rows))
            stats = self.per_property[property_id]
            stats.triples += len(rows)
            stats._subjects.update(subjects)
            stats._objects.update(objects)
            self._all_subjects.update(subjects)
            self._all_objects.update(objects)
            if property_id == type_id:
                self.class_cardinality.update(objects)
        self.total_triples += len(triples)

    def unrecord(self, subject_id: int, property_id: int, object_id: int) -> None:
        """Reverse one :meth:`record` (triple deletion support).

        Global distinct-subject/object sets are kept as upper bounds —
        recomputing them per deletion would cost a full scan; the cost
        model only uses them for the rare unbound-property scans.
        """
        self.total_triples -= 1
        stats = self.per_property.get(property_id)
        if stats is not None:
            stats.unrecord(subject_id, object_id)
            if stats.triples <= 0:
                del self.per_property[property_id]
        if property_id == self._type_property_id():
            self.class_cardinality[object_id] -= 1
            if self.class_cardinality[object_id] <= 0:
                del self.class_cardinality[object_id]

    # ------------------------------------------------------------------
    # Accessors used by the cost model

    def property_count(self, property_id: int) -> int:
        stats = self.per_property.get(property_id)
        return stats.triples if stats else 0

    def property_distinct_subjects(self, property_id: int) -> int:
        stats = self.per_property.get(property_id)
        return stats.distinct_subjects if stats else 0

    def property_distinct_objects(self, property_id: int) -> int:
        stats = self.per_property.get(property_id)
        return stats.distinct_objects if stats else 0

    def class_count(self, class_id: int) -> int:
        return self.class_cardinality.get(class_id, 0)

    def property_subject_count(self, property_id: int, subject_id: int) -> int:
        """Exact number of triples (subject_id, property_id, *) —
        the per-constant frequency an RDBMS would keep as an MCV list
        (here complete, since the store is in memory anyway)."""
        stats = self.per_property.get(property_id)
        return stats.subject_count(subject_id) if stats else 0

    def property_object_count(self, property_id: int, object_id: int) -> int:
        """Exact number of triples (*, property_id, object_id)."""
        stats = self.per_property.get(property_id)
        return stats.object_count(object_id) if stats else 0

    @property
    def distinct_subjects(self) -> int:
        return len(self._all_subjects)

    @property
    def distinct_objects(self) -> int:
        return len(self._all_objects)

    @property
    def distinct_properties(self) -> int:
        return len(self.per_property)

    def summary(self) -> Dict[str, int]:
        """The headline numbers shown by the demo's statistics panel."""
        return {
            "triples": self.total_triples,
            "properties": self.distinct_properties,
            "distinct_subjects": self.distinct_subjects,
            "distinct_objects": self.distinct_objects,
            "classes": len(self.class_cardinality),
        }
