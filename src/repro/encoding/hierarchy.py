"""Interval labeling of the subclass/subproperty lattice.

Layout: a spanning tree of the (strict, entailed) hierarchy is walked
in DFS preorder; each node's id starts its region, its children's
regions follow, and ``spare`` reserved hole ids end it.  A node whose
entailed subtree lies entirely inside its region is *covered*: the
reformulator may replace its subtree union by one
:class:`HierarchyInterval`.  Multi-parent nodes live in exactly one
parent's region, so the other parents simply come out uncovered and
keep their classic unions — coverage is an optimization, never a
correctness requirement.

Incremental hierarchy growth lands a new leaf in an ancestor's spare
hole (:meth:`HierarchyEncoding.extend`); when the slack is exhausted —
or the insert is not expressible as a leaf under one covered chain —
``extend`` refuses and the caller re-encodes via
:func:`rebuild_with_hierarchy`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..rdf.namespaces import RDF_TYPE
from ..rdf.terms import Term
from ..schema.schema import Schema
from ..storage.dictionary import Dictionary

#: Default spare hole ids reserved per laid-out node.
DEFAULT_SPARE = 2


class HierarchyInterval(Term, tuple):
    """A half-open dictionary-id interval standing in for a subtree.

    Placed in a triple-pattern position by the reformulator, it means
    "any term whose id lies in ``[lo, hi)``" — by construction exactly
    the members of ``anchor``'s entailed subtree (holes carry no term,
    so they never match a triple).  ``branches`` records how many
    classic union alternatives the interval replaced, for explain/
    metrics output.  The interval is the tuple ``(3, lo, hi)`` (group 3
    sorts after every RDF term), so equality and hashing use the bounds
    only and deduplication treats equal ranges as one atom.
    """

    def __new__(cls, lo: int, hi: int, anchor: Term, branches: int = 0):
        if not (isinstance(lo, int) and isinstance(hi, int) and lo < hi):
            raise ValueError("interval bounds must be ints with lo < hi")
        interval = tuple.__new__(cls, (3, lo, hi))
        interval.anchor = anchor
        interval.branches = branches
        return interval

    lo = property(itemgetter(1))
    hi = property(itemgetter(2))

    def strict(self) -> Optional["HierarchyInterval"]:
        """The interval minus the anchor's own id: exactly the strict
        subtree, for emission sites where a separate identity atom
        already matches the anchor (scanning the anchor's instances
        twice would only feed the union dedup).  Valid because the
        layout is preorder — the anchor's id *is* ``lo``.  None when
        the strict subtree is empty."""
        if self.lo + 1 >= self.hi:
            return None
        return HierarchyInterval(
            self.lo + 1, self.hi, self.anchor, max(0, self.branches - 1)
        )

    def lexical(self) -> str:
        return "interval:%d:%d" % (self.lo, self.hi)

    def n3(self) -> str:
        # Never serialized to storage; a synthetic token keeps display
        # and canonicalization working.
        return "«[%d,%d)»" % (self.lo, self.hi)

    def __repr__(self) -> str:
        return "HierarchyInterval(%d, %d, %r)" % (self.lo, self.hi, self.anchor)


class HierarchyEncoding:
    """The interval map a hierarchy-aware dictionary layout produced.

    ``class_intervals`` / ``property_intervals`` hold one
    :class:`HierarchyInterval` per *covered* node with a non-empty
    subtree; uncovered nodes are simply absent and keep their classic
    unions.  ``spare_holes`` maps each laid-out node to the hole ids it
    directly owns (its incremental-insert slack).
    """

    def __init__(
        self,
        class_intervals: Dict[Term, HierarchyInterval],
        property_intervals: Dict[Term, HierarchyInterval],
        spare_holes: Optional[Dict[Term, List[int]]] = None,
        schema_fingerprint: Optional[str] = None,
    ):
        self.class_intervals = dict(class_intervals)
        self.property_intervals = dict(property_intervals)
        self.spare_holes = {
            node: list(holes) for node, holes in (spare_holes or {}).items()
        }
        self.schema_fingerprint = schema_fingerprint
        self._version = 0

    # ------------------------------------------------------------------
    # Query-side lookups (never mutate anything)

    def type_interval(self, klass: Term) -> Optional[HierarchyInterval]:
        """The interval covering ``{klass} ∪ subclasses(klass)``, or
        None when the layout does not cover *klass*."""
        return self.class_intervals.get(klass)

    def property_interval(self, prop: Term) -> Optional[HierarchyInterval]:
        """The interval covering ``{prop} ∪ subproperties(prop)``."""
        return self.property_intervals.get(prop)

    def token(self) -> Tuple:
        """A cache-key component distinguishing encoding states."""
        return ("interval", self.schema_fingerprint, self._version)

    # ------------------------------------------------------------------
    # Incremental growth

    def extend(
        self,
        dictionary: Dictionary,
        schema: Schema,
        node: Term,
        parent: Term,
        kind: str = "class",
    ) -> bool:
        """Place *node*, a freshly declared direct child of *parent*,
        into one of *parent*'s spare holes.

        Call **after** adding the constraint to *schema*.  Returns True
        when the insert fit inside the existing intervals (all covering
        ancestors still cover their grown subtrees); False when the
        slack is exhausted or the insert is not a simple leaf under
        *parent*'s chain — the caller must then re-encode
        (:func:`rebuild_with_hierarchy`).
        """
        if kind not in ("class", "property"):
            raise ValueError("kind must be 'class' or 'property'")
        if dictionary.lookup(node) is not None:
            return False  # already encoded somewhere arbitrary
        supers = (
            schema.superclasses(node)
            if kind == "class"
            else schema.superproperties(node)
        )
        parent_supers = (
            schema.superclasses(parent)
            if kind == "class"
            else schema.superproperties(parent)
        )
        # The new node must be a leaf whose ancestors are exactly
        # parent's chain: any extra parent would need the id inside a
        # region it cannot also occupy.
        if supers != ({parent} | parent_supers):
            return False
        subs = (
            schema.subclasses(node) if kind == "class" else schema.subproperties(node)
        )
        if subs:
            return False  # not a leaf: its own subtree has no region
        holes = self.spare_holes.get(parent)
        if not holes:
            return False
        intervals = (
            self.class_intervals if kind == "class" else self.property_intervals
        )
        hole = holes.pop(0)
        # The hole lies inside parent's region, hence inside every
        # covering ancestor's interval — verify rather than trust.
        for ancestor in {parent} | parent_supers:
            interval = intervals.get(ancestor)
            if interval is not None and not (interval.lo <= hole < interval.hi):
                holes.insert(0, hole)
                return False
        dictionary.assign(hole, node)
        self._version += 1
        return True


def _spanning_children(
    nodes: Iterable[Term], supers_of: Dict[Term, Set[Term]]
) -> Tuple[List[Term], Dict[Term, List[Term]]]:
    """(roots, children) of a spanning tree over the strict hierarchy.

    Each node hangs under one *primary* parent — the sort-smallest of
    its minimal strict ancestors — so regions nest without overlap.
    Cycle members (nodes reaching themselves) become roots with no tree
    children; the coverage check later rejects their intervals.
    """
    primary: Dict[Term, Optional[Term]] = {}
    for node in nodes:
        supers = supers_of.get(node, set())
        if node in supers:  # cycle member
            primary[node] = None
            continue
        candidates = [p for p in supers if node not in supers_of.get(p, set())]
        minimal = [
            p
            for p in candidates
            if not any(
                p in supers_of.get(q, set()) for q in candidates if q != p
            )
        ]
        primary[node] = min(minimal) if minimal else None
    children: Dict[Term, List[Term]] = {}
    roots: List[Term] = []
    for node, parent in primary.items():
        if parent is None:
            roots.append(node)
        else:
            children.setdefault(parent, []).append(node)
    roots.sort()
    for siblings in children.values():
        siblings.sort()
    return roots, children


def _layout(
    dictionary: Dictionary,
    roots: List[Term],
    children: Dict[Term, List[Term]],
    spare: int,
    regions: Dict[Term, Tuple[int, int]],
    spare_holes: Dict[Term, List[int]],
) -> None:
    """DFS-preorder id assignment; records each placed node's region
    (own id, children regions, then its spare holes, half-open)."""

    def place(node: Term) -> None:
        if dictionary.lookup(node) is not None:
            return  # encoded earlier (e.g. doubles as a class AND a
            #         property): no region, ancestors come out uncovered
        start = dictionary.encode(node)
        for child in children.get(node, ()):  # sorted already
            place(child)
        if spare:
            spare_holes[node] = dictionary.reserve(spare)
        regions[node] = (start, len(dictionary))

    for root in roots:
        place(root)


def _intervals_from_regions(
    dictionary: Dictionary,
    nodes: Iterable[Term],
    subs_of: Dict[Term, Set[Term]],
    regions: Dict[Term, Tuple[int, int]],
) -> Dict[Term, HierarchyInterval]:
    """The covered subset: nodes whose entailed subtree (plus holes)
    fills their region exactly."""
    intervals: Dict[Term, HierarchyInterval] = {}
    for node in nodes:
        subs = subs_of.get(node, set())
        if not subs or node not in regions:
            continue  # no union to collapse / no region of its own
        lo, hi = regions[node]
        member_ids = set()
        complete = True
        for member in {node} | subs:
            member_id = dictionary.lookup(member)
            if member_id is None or not (lo <= member_id < hi):
                complete = False
                break
            member_ids.add(member_id)
        if not complete:
            continue
        if all(
            term_id in member_ids or dictionary.is_hole(term_id)
            for term_id in range(lo, hi)
        ):
            intervals[node] = HierarchyInterval(
                lo, hi, node, branches=1 + len(subs)
            )
    return intervals


def preencode_hierarchy(
    store, schema: Schema, spare: int = DEFAULT_SPARE
) -> HierarchyEncoding:
    """Encode *schema*'s class and property lattices into *store*'s
    (fresh or hierarchy-free) dictionary, in interval order.

    Call before loading data, so every schema term claims its laid-out
    id and data terms fill in afterwards.  Returns the resulting
    :class:`HierarchyEncoding`; nodes the layout could not cover (cycle
    members, extra parents of multi-parent nodes, class/property
    homonyms) are simply absent from it.
    """
    dictionary = store.dictionary
    classes = sorted(schema.classes())
    properties = sorted(p for p in schema.properties() if p != RDF_TYPE)
    class_supers = {c: schema.superclasses(c) for c in classes}
    property_supers = {p: schema.superproperties(p) for p in properties}

    regions: Dict[Term, Tuple[int, int]] = {}
    spare_holes: Dict[Term, List[int]] = {}
    roots, children = _spanning_children(classes, class_supers)
    _layout(dictionary, roots, children, spare, regions, spare_holes)
    roots, children = _spanning_children(properties, property_supers)
    _layout(dictionary, roots, children, spare, regions, spare_holes)

    class_subs = {c: schema.subclasses(c) for c in classes}
    property_subs = {p: schema.subproperties(p) for p in properties}
    return HierarchyEncoding(
        _intervals_from_regions(dictionary, classes, class_subs, regions),
        _intervals_from_regions(dictionary, properties, property_subs, regions),
        spare_holes,
        schema.fingerprint(),
    )


def detect_encoding(dictionary: Dictionary, schema: Schema) -> HierarchyEncoding:
    """Derive interval coverage from an *existing* dictionary.

    An independent reconstruction (used by the differential tests): a
    node is covered when its entailed subtree's ids are contiguous
    modulo holes.  Windows exclude trailing slack — matching semantics
    are identical (holes never match), only :meth:`extend` headroom is
    lost — so ``detect`` over a just-pre-encoded dictionary agrees with
    :func:`preencode_hierarchy` on membership semantics.
    """

    def derive(nodes, subs_of) -> Dict[Term, HierarchyInterval]:
        intervals: Dict[Term, HierarchyInterval] = {}
        for node in nodes:
            subs = subs_of(node)
            if not subs:
                continue
            member_ids = set()
            complete = True
            for member in {node} | subs:
                member_id = dictionary.lookup(member)
                if member_id is None:
                    complete = False
                    break
                member_ids.add(member_id)
            if not complete:
                continue
            lo, hi = min(member_ids), max(member_ids) + 1
            if dictionary.lookup(node) != lo:
                # Preorder contract: the anchor's id must start the
                # window (``strict()`` relies on it); a subtree that is
                # contiguous but anchored mid-window stays uncovered.
                continue
            if all(
                term_id in member_ids or dictionary.is_hole(term_id)
                for term_id in range(lo, hi)
            ):
                intervals[node] = HierarchyInterval(
                    lo, hi, node, branches=1 + len(subs)
                )
        return intervals

    return HierarchyEncoding(
        derive(schema.classes(), schema.subclasses),
        derive(schema.properties(), schema.subproperties),
        None,
        schema.fingerprint(),
    )


def rebuild_with_hierarchy(
    store, schema: Optional[Schema] = None, spare: int = DEFAULT_SPARE
):
    """The re-encode path: build a fresh pre-encoded store holding the
    same triples as *store* (decoded and re-encoded under the new
    layout).  Returns ``(new_store, encoding)``; the caller swaps the
    store in.  Used when a hierarchy update exhausts the spare slack.
    """
    from ..storage.store import TripleStore

    if schema is None:
        schema = store.schema
    rebuilt = TripleStore()
    encoding = preencode_hierarchy(rebuilt, schema, spare)
    rebuilt.load(store.to_graph(), schema)
    return rebuilt, encoding
