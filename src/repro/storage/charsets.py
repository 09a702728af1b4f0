"""Characteristic sets: precise cardinalities for star queries.

The paper's reference [14] (RDF-3X) line of work introduced
*characteristic sets* (Neumann & Moerkotte, ICDE 2011): partition
subjects by the exact set of properties they carry, and keep, per
partition, the subject count and the mean number of objects per
property.  A star query — several atoms sharing one subject variable,
the dominant shape in the LUBM workload and in Example 1's grouped
fragments — then has an almost exact cardinality:

    |{s : s has p1 … pk}|        = Σ  count(S)           over S ⊇ {p1…pk}
    |⋈ star over p1 … pk|        = Σ  count(S)·Π mult(S, pi)

while the textbook pairwise System-R estimate multiplies per-edge
selectivities and compounds its independence errors with every join.
Ablation A4 measures the gap.  This module is an *analysis* extension:
the default planner keeps the paper's textbook model (see A1 for why),
and characteristic sets are exposed for star estimation and the
statistics panel.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..query.algebra import ConjunctiveQuery, Variable
from .store import TripleStore


class CharacteristicSets:
    """The characteristic-set statistics of one store.

    >>> from repro.rdf import Namespace, Graph, Triple
    >>> EX = Namespace("http://e/")
    >>> store = TripleStore.from_graph(Graph([
    ...     Triple(EX.a, EX.p, EX.x), Triple(EX.a, EX.q, EX.y),
    ...     Triple(EX.b, EX.p, EX.z)]))
    >>> cs = CharacteristicSets(store)
    >>> cs.set_count
    2
    """

    def __init__(self, store: TripleStore):
        self.store = store
        subject_properties: Dict[int, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for subject_id, property_id, _ in store.scan_all():
            subject_properties[subject_id][property_id] += 1

        #: characteristic set → number of subjects carrying exactly it.
        self.counts: Dict[FrozenSet[int], int] = defaultdict(int)
        #: (characteristic set, property) → total triples of that
        #: property over those subjects (for mean multiplicities).
        self._totals: Dict[Tuple[FrozenSet[int], int], int] = defaultdict(int)
        for properties in subject_properties.values():
            char_set = frozenset(properties)
            self.counts[char_set] += 1
            for property_id, multiplicity in properties.items():
                self._totals[(char_set, property_id)] += multiplicity

    @property
    def set_count(self) -> int:
        """How many distinct characteristic sets the data has (real
        datasets have surprisingly few — the method's selling point)."""
        return len(self.counts)

    def multiplicity(self, char_set: FrozenSet[int], property_id: int) -> float:
        """Mean triples of *property_id* per subject in *char_set*."""
        count = self.counts.get(char_set, 0)
        if count == 0:
            return 0.0
        return self._totals.get((char_set, property_id), 0) / count

    # ------------------------------------------------------------------
    # Star estimation

    def star_subject_count(self, property_ids: Iterable[int]) -> int:
        """Exactly how many subjects carry *all* the given properties."""
        wanted = frozenset(property_ids)
        return sum(
            count
            for char_set, count in self.counts.items()
            if wanted <= char_set
        )

    def estimate_star_rows(self, property_ids: Sequence[int]) -> float:
        """Cardinality of the star join ``?s p1 ?o1 . … ?s pk ?ok``.

        Exact when per-subject multiplicities are uniform within each
        characteristic set (in particular whenever every property
        occurs at most once per subject); otherwise the per-set *mean*
        multiplicities introduce a small aggregation error — the
        "almost exact" of the original paper.  The subject count
        (:meth:`star_subject_count`) is always exact.
        """
        wanted = frozenset(property_ids)
        total = 0.0
        for char_set, count in self.counts.items():
            if not wanted <= char_set:
                continue
            product = float(count)
            for property_id in property_ids:
                product *= self.multiplicity(char_set, property_id)
            total += product
        return total

    # ------------------------------------------------------------------

    def star_properties(self, query: ConjunctiveQuery) -> Optional[List[int]]:
        """The encoded property list when *query* is a pure subject
        star (every atom shares one subject variable, constant
        properties, distinct unshared object variables); else None."""
        subjects = {atom.subject for atom in query.atoms}
        if len(subjects) != 1 or not isinstance(next(iter(subjects)), Variable):
            return None
        property_ids: List[int] = []
        seen_objects = set()
        for atom in query.atoms:
            if isinstance(atom.property, Variable):
                return None
            if not isinstance(atom.object, Variable):
                return None
            if atom.object in seen_objects or atom.object == atom.subject:
                return None
            seen_objects.add(atom.object)
            property_id = self.store.term_id(atom.property)
            if property_id is None:
                return None
            property_ids.append(property_id)
        return property_ids
