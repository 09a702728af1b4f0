"""The closed RDFS schema: constraints plus their entailed closure.

Both saturation and reformulation consult the *closure* of the schema
component of an RDF graph: the transitive closure of the subclass and
subproperty hierarchies, plus domain/range constraints propagated down
subproperty edges and widened up subclass edges.  Schemas are small
(tens to hundreds of constraints even for LUBM-class ontologies), so
the closure is recomputed from the direct constraints whenever it is
stale; this keeps the update path — exercised by the demo's
"modify the constraints and re-run" step — trivially correct.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import Term
from ..rdf.triples import Triple
from .constraints import Constraint, ConstraintKind, constraints_from_triples


def _transitive_closure(edges: Dict[Term, Set[Term]]) -> Dict[Term, Set[Term]]:
    """Return the strict transitive closure of a successor map.

    Uses iterative depth-first traversal per node with memoization on
    completed nodes; cycles are supported (every node in a cycle
    reaches all others, including possibly itself).
    """
    closure: Dict[Term, Set[Term]] = {}
    for start in edges:
        if start in closure:
            continue
        # Iterative DFS computing reachability for `start` and, as a side
        # effect, for every node completed during the walk.
        stack: List[Tuple[Term, Iterator[Term]]] = [(start, iter(edges.get(start, ())))]
        on_stack: Set[Term] = {start}
        order: List[Term] = [start]
        reach: Dict[Term, Set[Term]] = {start: set(edges.get(start, ()))}
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ in closure:
                    reach[node].update(closure[succ])
                    reach[node].add(succ)
                elif succ in on_stack:
                    # Cycle: defer, handled by the fixpoint pass below.
                    reach[node].add(succ)
                else:
                    reach[succ] = set(edges.get(succ, ()))
                    stack.append((succ, iter(edges.get(succ, ()))))
                    on_stack.add(succ)
                    order.append(succ)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
        # Fixpoint pass over the visited component to absorb cycles.
        changed = True
        while changed:
            changed = False
            for node in order:
                expanded: Set[Term] = set(reach[node])
                for succ in list(reach[node]):
                    expanded.update(reach.get(succ, closure.get(succ, set())))
                if len(expanded) > len(reach[node]):
                    reach[node] = expanded
                    changed = True
        for node in order:
            closure[node] = reach[node]
    return closure


class Schema:
    """An RDFS schema with lazily maintained closure.

    The accessors all operate on the *entailed* constraint set: e.g.
    :meth:`superclasses` follows subclass chains transitively, and
    :meth:`domains` includes domains inherited from superproperties and
    widened through subclasses, mirroring the schema-level immediate
    entailment rules of the DB fragment.

    >>> from repro.rdf.namespaces import Namespace
    >>> EX = Namespace("http://example.org/")
    >>> s = Schema([Constraint.subclass(EX.Book, EX.Publication),
    ...             Constraint.subclass(EX.Publication, EX.Work)])
    >>> sorted(c.local_name() for c in s.superclasses(EX.Book))
    ['Publication', 'Work']
    """

    def __init__(self, constraints: Optional[Iterable[Constraint]] = None):
        self._constraints: Set[Constraint] = set()
        self._dirty = True
        self._fingerprint: Optional[str] = None
        # Closure structures, (re)built by _ensure_closed().
        self._sub_class: Dict[Term, Set[Term]] = {}
        self._super_class: Dict[Term, Set[Term]] = {}
        self._sub_property: Dict[Term, Set[Term]] = {}
        self._super_property: Dict[Term, Set[Term]] = {}
        self._domains: Dict[Term, Set[Term]] = {}
        self._ranges: Dict[Term, Set[Term]] = {}
        self._classes: Set[Term] = set()
        self._properties: Set[Term] = set()
        if constraints is not None:
            for constraint in constraints:
                self.add(constraint)

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_graph(cls, graph: Graph) -> "Schema":
        """Extract the schema component of *graph*."""
        return cls(constraints_from_triples(graph.schema_triples()))

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "Schema":
        return cls(constraints_from_triples(triples))

    def add(self, constraint: Constraint) -> bool:
        """Add a direct constraint; return True when new."""
        if not isinstance(constraint, Constraint):
            raise TypeError("Schema.add expects a Constraint")
        if constraint in self._constraints:
            return False
        self._constraints.add(constraint)
        self._dirty = True
        self._fingerprint = None
        return True

    def remove(self, constraint: Constraint) -> bool:
        """Remove a direct constraint; return True when it was present."""
        if constraint not in self._constraints:
            return False
        self._constraints.discard(constraint)
        self._dirty = True
        self._fingerprint = None
        return True

    def copy(self) -> "Schema":
        return Schema(self._constraints)

    def fingerprint(self) -> str:
        """A digest identifying the direct constraint set.

        Deterministic across processes (content-derived, not id-based)
        and invalidated by :meth:`add`/:meth:`remove`; the cache
        subsystem keys reformulations on it, so any schema change —
        and only a schema change — retires them.
        """
        if self._fingerprint is None:
            import hashlib

            encoded = sorted(
                (constraint.kind.value, constraint.left, constraint.right)
                for constraint in self._constraints
            )
            digest = hashlib.sha1(repr(encoded).encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Closure maintenance

    def _ensure_closed(self) -> None:
        if not self._dirty:
            return
        sub_class_direct: Dict[Term, Set[Term]] = defaultdict(set)
        sub_property_direct: Dict[Term, Set[Term]] = defaultdict(set)
        domain_direct: Dict[Term, Set[Term]] = defaultdict(set)
        range_direct: Dict[Term, Set[Term]] = defaultdict(set)
        classes: Set[Term] = set()
        properties: Set[Term] = set()
        for constraint in self._constraints:
            if constraint.kind is ConstraintKind.SUBCLASS:
                sub_class_direct[constraint.left].add(constraint.right)
                classes.add(constraint.left)
                classes.add(constraint.right)
            elif constraint.kind is ConstraintKind.SUBPROPERTY:
                sub_property_direct[constraint.left].add(constraint.right)
                properties.add(constraint.left)
                properties.add(constraint.right)
            elif constraint.kind is ConstraintKind.DOMAIN:
                domain_direct[constraint.left].add(constraint.right)
                properties.add(constraint.left)
                classes.add(constraint.right)
            else:
                range_direct[constraint.left].add(constraint.right)
                properties.add(constraint.left)
                classes.add(constraint.right)

        super_class = _transitive_closure(dict(sub_class_direct))
        super_property = _transitive_closure(dict(sub_property_direct))

        sub_class: Dict[Term, Set[Term]] = defaultdict(set)
        for sub, supers in super_class.items():
            for sup in supers:
                sub_class[sup].add(sub)
        sub_property: Dict[Term, Set[Term]] = defaultdict(set)
        for sub, supers in super_property.items():
            for sup in supers:
                sub_property[sup].add(sub)

        # Entailed domains/ranges: a property inherits the domain/range
        # constraints of all its (transitive) superproperties, and each
        # domain/range class is widened to all its superclasses.
        domains: Dict[Term, Set[Term]] = defaultdict(set)
        ranges: Dict[Term, Set[Term]] = defaultdict(set)
        for prop in properties:
            ancestors = {prop} | super_property.get(prop, set())
            for ancestor in ancestors:
                for klass in domain_direct.get(ancestor, ()):
                    domains[prop].add(klass)
                    domains[prop].update(super_class.get(klass, ()))
                for klass in range_direct.get(ancestor, ()):
                    ranges[prop].add(klass)
                    ranges[prop].update(super_class.get(klass, ()))

        self._sub_class = dict(sub_class)
        self._super_class = super_class
        self._sub_property = dict(sub_property)
        self._super_property = super_property
        self._domains = dict(domains)
        self._ranges = dict(ranges)
        self._classes = classes
        self._properties = properties
        self._dirty = False

    # ------------------------------------------------------------------
    # Entailed-constraint accessors (all strict unless noted)

    def superclasses(self, klass: Term) -> Set[Term]:
        """All entailed strict superclasses of *klass*."""
        self._ensure_closed()
        return set(self._super_class.get(klass, ()))

    def subclasses(self, klass: Term) -> Set[Term]:
        """All entailed strict subclasses of *klass*."""
        self._ensure_closed()
        return set(self._sub_class.get(klass, ()))

    def superproperties(self, prop: Term) -> Set[Term]:
        self._ensure_closed()
        return set(self._super_property.get(prop, ()))

    def subproperties(self, prop: Term) -> Set[Term]:
        self._ensure_closed()
        return set(self._sub_property.get(prop, ()))

    def domains(self, prop: Term) -> Set[Term]:
        """All entailed domain classes of *prop* (inherited and widened)."""
        self._ensure_closed()
        return set(self._domains.get(prop, ()))

    def ranges(self, prop: Term) -> Set[Term]:
        """All entailed range classes of *prop* (inherited and widened)."""
        self._ensure_closed()
        return set(self._ranges.get(prop, ()))

    def properties_with_domain(self, klass: Term) -> Set[Term]:
        """Properties ``p`` whose entailed domains include *klass*.

        These are exactly the properties for which a triple ``s p o``
        entails ``s rdf:type klass`` — the reformulation rule for type
        atoms uses this set.
        """
        self._ensure_closed()
        return {p for p, classes in self._domains.items() if klass in classes}

    def properties_with_range(self, klass: Term) -> Set[Term]:
        """Properties ``p`` whose entailed ranges include *klass*."""
        self._ensure_closed()
        return {p for p, classes in self._ranges.items() if klass in classes}

    def classes(self) -> FrozenSet[Term]:
        """Every class mentioned by some constraint."""
        self._ensure_closed()
        return frozenset(self._classes)

    def properties(self) -> FrozenSet[Term]:
        """Every (data) property mentioned by some constraint."""
        self._ensure_closed()
        return frozenset(self._properties)

    def is_subclass(self, sub: Term, sup: Term) -> bool:
        """True when ``sub ⊑ sup`` is entailed (reflexive)."""
        return sub == sup or sup in self.superclasses(sub)

    def is_subproperty(self, sub: Term, sup: Term) -> bool:
        """True when ``sub ⊑ sup`` is entailed (reflexive)."""
        return sub == sup or sup in self.superproperties(sub)

    # ------------------------------------------------------------------
    # Constraint-set views

    def direct_constraints(self) -> Set[Constraint]:
        return set(self._constraints)

    def entailed_constraints(self) -> Set[Constraint]:
        """The closure: every constraint entailed by the direct ones."""
        self._ensure_closed()
        entailed: Set[Constraint] = set()
        for sub, supers in self._super_class.items():
            for sup in supers:
                entailed.add(Constraint.subclass(sub, sup))
        for sub, supers in self._super_property.items():
            for sup in supers:
                entailed.add(Constraint.subproperty(sub, sup))
        for prop, classes in self._domains.items():
            for klass in classes:
                entailed.add(Constraint.domain(prop, klass))
        for prop, classes in self._ranges.items():
            for klass in classes:
                entailed.add(Constraint.range(prop, klass))
        return entailed

    def entailed_triples(self) -> Iterator[Triple]:
        """Yield the closure as RDF triples (used by Sat and by schema
        queries, which must see entailed constraints)."""
        for constraint in self.entailed_constraints():
            yield constraint.to_triple()

    def to_triples(self) -> Iterator[Triple]:
        """Yield the direct constraints as RDF triples."""
        for constraint in self._constraints:
            yield constraint.to_triple()

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, constraint: Constraint) -> bool:
        return constraint in self._constraints

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and other._constraints == self._constraints

    def __repr__(self) -> str:
        return "Schema(<%d constraints>)" % len(self._constraints)
