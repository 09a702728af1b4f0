"""Query covers: the paper's device for exploring JUCQ reformulations.

A *cover* of a CQ ``q`` is a set of (possibly overlapping) non-empty
fragments whose union is the atom set of ``q`` (Section 4).  Each cover
induces a query answering strategy: reformulate each fragment with a
CQ-to-UCQ algorithm, evaluate the fragment UCQs, join their results.
Two covers are distinguished points of the space:

* the **one-fragment cover** — yields the classical UCQ reformulation;
* the **one-atom-per-fragment cover** — yields the SCQ of [15].

The cover of Example 1 with the shortest evaluation time,
``{{t1,t3}, {t3,t5}, {t2,t4}, {t4,t6}}``, overlaps on t3 and t4.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Sequence, Set, Tuple

from .algebra import ConjunctiveQuery, TriplePattern, Variable

#: A fragment is a set of atom indices into the covered query's body.
Fragment = FrozenSet[int]


class CoverError(ValueError):
    """Raised when a fragment set is not a valid cover of the query."""


class Cover:
    """A validated cover of a conjunctive query.

    Fragments are kept in a deterministic order (sorted by their sorted
    index tuples) so that strategies built from equal covers compare
    equal and benchmarks are reproducible.

    >>> from repro.query.algebra import Variable, TriplePattern
    >>> from repro.rdf.namespaces import RDF_TYPE
    >>> from repro.rdf.terms import URI
    >>> x = Variable("x")
    >>> q = ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, URI("http://e/C")),
    ...                            TriplePattern(x, URI("http://e/p"), Variable("y"))])
    >>> Cover.per_atom(q).fragments
    (frozenset({0}), frozenset({1}))
    """

    __slots__ = ("query", "fragments")

    def __init__(self, query: ConjunctiveQuery, fragments: Sequence[Sequence[int]]):
        atom_count = len(query.atoms)
        normalized: Set[Fragment] = set()
        for fragment in fragments:
            frozen = frozenset(fragment)
            if not frozen:
                raise CoverError("fragments must be non-empty")
            for index in frozen:
                if not (0 <= index < atom_count):
                    raise CoverError(
                        "atom index %r out of range for a %d-atom query"
                        % (index, atom_count)
                    )
            normalized.add(frozen)
        covered: Set[int] = set()
        for fragment in normalized:
            covered.update(fragment)
        if covered != set(range(atom_count)):
            missing = sorted(set(range(atom_count)) - covered)
            raise CoverError("atoms %s are not covered" % missing)
        ordered = tuple(sorted(normalized, key=lambda f: tuple(sorted(f))))
        super(Cover, self).__setattr__("query", query)
        super(Cover, self).__setattr__("fragments", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("Cover is immutable")

    # ------------------------------------------------------------------
    # The two classical covers

    @classmethod
    def single_fragment(cls, query: ConjunctiveQuery) -> "Cover":
        """The cover inducing the UCQ reformulation."""
        return cls(query, [range(len(query.atoms))])

    @classmethod
    def per_atom(cls, query: ConjunctiveQuery) -> "Cover":
        """The cover inducing the SCQ reformulation of [15]."""
        return cls(query, [[index] for index in range(len(query.atoms))])

    # ------------------------------------------------------------------

    def fragment_atoms(self, fragment: Fragment) -> List[TriplePattern]:
        return [self.query.atoms[index] for index in sorted(fragment)]

    def fragment_head(self, fragment: Fragment) -> Tuple[Variable, ...]:
        """The variables a fragment must expose: those that are
        distinguished in the covered query or shared with another
        fragment.  Order follows first appearance in the fragment."""
        own: Set[Variable] = set()
        for index in fragment:
            own.update(self.query.atoms[index].variables())
        needed: Set[Variable] = {
            item for item in self.query.head if isinstance(item, Variable)
        }
        for other in self.fragments:
            if other == fragment:
                continue
            for index in other:
                needed.update(self.query.atoms[index].variables())
        exposed: List[Variable] = []
        for index in sorted(fragment):
            for term in self.query.atoms[index].as_tuple():
                if (
                    isinstance(term, Variable)
                    and term in needed
                    and term not in exposed
                ):
                    exposed.append(term)
        return tuple(variable for variable in exposed if variable in own)

    def fragment_query(self, fragment: Fragment) -> ConjunctiveQuery:
        """The CQ a fragment contributes to the JUCQ, with the query's
        non-literal guards on its variables."""
        atoms = self.fragment_atoms(fragment)
        guard = self.query.nonliteral_variables & set().union(*(a.variables() for a in atoms))
        return ConjunctiveQuery(self.fragment_head(fragment), atoms, guard)

    # ------------------------------------------------------------------
    # Neighbourhood moves used by the greedy search

    def merge_fragments(self, first: Fragment, second: Fragment) -> "Cover":
        """The cover with *first* and *second* replaced by their union."""
        if first not in self.fragments or second not in self.fragments:
            raise CoverError("both fragments must belong to this cover")
        if first == second:
            raise CoverError("cannot merge a fragment with itself")
        remaining = [f for f in self.fragments if f not in (first, second)]
        remaining.append(first | second)
        return Cover(self.query, remaining)

    def add_atom_to_fragment(self, atom_index: int, fragment: Fragment) -> "Cover":
        """The cover with *atom_index* additionally placed in
        *fragment* (creating overlap, as in Example 1's best cover)."""
        if fragment not in self.fragments:
            raise CoverError("fragment must belong to this cover")
        if atom_index in fragment:
            raise CoverError("atom %d already in fragment" % atom_index)
        updated = [f for f in self.fragments if f != fragment]
        updated.append(fragment | {atom_index})
        return Cover(self.query, updated)

    def without_redundant_fragments(self) -> "Cover":
        """Drop fragments strictly contained in another fragment: their
        join contribution is implied, so they only add cost."""
        kept = [
            fragment
            for fragment in self.fragments
            if not any(
                fragment < other for other in self.fragments if other != fragment
            )
        ]
        return Cover(self.query, kept)

    # ------------------------------------------------------------------

    def is_partition(self) -> bool:
        """True when no two fragments overlap."""
        seen: Set[int] = set()
        for fragment in self.fragments:
            if seen & fragment:
                return False
            seen.update(fragment)
        return True

    def __len__(self) -> int:
        return len(self.fragments)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cover)
            and other.query == self.query
            and other.fragments == self.fragments
        )

    def __hash__(self) -> int:
        return hash((self.query, self.fragments))

    def __repr__(self) -> str:
        shown = ", ".join(
            "{%s}" % ",".join("t%d" % (index + 1) for index in sorted(fragment))
            for fragment in self.fragments
        )
        return "Cover(%s)" % shown


def enumerate_partition_covers(query: ConjunctiveQuery) -> Iterator[Cover]:
    """Yield every partition cover of *query* (Bell(n) of them).

    Used by the exhaustive optimizer as ground truth on small queries;
    overlapping covers are reachable through the greedy moves instead.
    """
    atom_count = len(query.atoms)
    if atom_count == 0:
        return
    # Standard restricted-growth-string enumeration of set partitions.
    def recurse(index: int, blocks: List[List[int]]) -> Iterator[Cover]:
        if index == atom_count:
            yield Cover(query, [list(block) for block in blocks])
            return
        for block in blocks:
            block.append(index)
            yield from recurse(index + 1, blocks)
            block.pop()
        blocks.append([index])
        yield from recurse(index + 1, blocks)
        blocks.pop()

    yield from recurse(1, [[0]])


def partition_cover_count(atom_count: int) -> int:
    """Bell number: how many partition covers an *atom_count*-atom CQ has.

    >>> [partition_cover_count(n) for n in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if atom_count == 0:
        return 1
    # Bell triangle: each row starts with the previous row's last entry;
    # after k extensions the row's last entry is Bell(k+1).
    row = [1]
    for _ in range(atom_count - 1):
        next_row = [row[-1]]
        for value in row:
            next_row.append(next_row[-1] + value)
        row = next_row
    return row[-1]
