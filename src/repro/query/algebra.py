"""Query algebra: BGP/conjunctive queries, UCQs and JUCQs.

The paper works with the conjunctive (BGP) dialect of SPARQL:
``q(x̄) :- t1, …, tα`` where each ``ti`` is a triple pattern and the
head variables ``x̄`` are the distinguished variables (Section 3).
Reformulation enlarges the language:

* **UCQ** — a union of CQs, the classical reformulation target
  ([7, 8, 9, 12, 16] in the paper);
* **SCQ** — a join of unions of *atomic* queries ([15]);
* **JUCQ** — a join of unions of CQs, the paper's enlarged space; UCQs
  and SCQs are the two extreme points.

Reformulation binds head variables to schema constants (e.g. the class
a type variable ranges over), so heads are tuples of variables *or*
terms; a constant head column simply echoes the constant in every
answer row.  CQs support canonical renaming so that cache keys
identify queries that differ only in the names of their
non-distinguished variables.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..rdf.namespaces import RDF_TYPE, shorten
from ..rdf.terms import Literal, Term, URI
from ..rdf.triples import Triple


class Variable:
    """A query variable, written ``?name`` in the SPARQL-style syntax."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError("variable name must be a non-empty string")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:
        return "?%s" % self.name

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


#: Anything that may appear in a triple pattern position.
PatternTerm = Union[Term, Variable]
#: Anything that may appear in a query head.
HeadTerm = Union[Term, Variable]
#: A variable-to-value substitution.
Substitution = Dict[Variable, PatternTerm]

_fresh_counter = itertools.count(1)


def fresh_variable(prefix: str = "f") -> Variable:
    """Return a variable with a globally unused name (for the
    existential positions reformulation introduces)."""
    return Variable("_%s%d" % (prefix, next(_fresh_counter)))


class TriplePattern:
    """A triple pattern (query atom): ``s p o`` with variables allowed
    in any position.

    >>> x = Variable("x")
    >>> TriplePattern(x, RDF_TYPE, URI("http://e/Book")).is_type_atom()
    True
    """

    __slots__ = ("subject", "property", "object")

    def __init__(self, subject: PatternTerm, property: PatternTerm, object: PatternTerm):
        for position, value in (("subject", subject), ("property", property), ("object", object)):
            if not isinstance(value, (Term, Variable)):
                raise ValueError(
                    "pattern %s must be a Term or Variable, got %r" % (position, value)
                )
        object_ = object
        super(TriplePattern, self).__setattr__("subject", subject)
        super(TriplePattern, self).__setattr__("property", property)
        super(TriplePattern, self).__setattr__("object", object_)

    def __setattr__(self, name, value):
        raise AttributeError("TriplePattern is immutable")

    def as_tuple(self) -> Tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.property, self.object)

    def variables(self) -> Set[Variable]:
        return {t for t in self.as_tuple() if isinstance(t, Variable)}

    def is_type_atom(self) -> bool:
        """True for ``s rdf:type o`` atoms (the class-assertion form)."""
        return self.property == RDF_TYPE

    def is_ground(self) -> bool:
        return not self.variables()

    def substitute(self, substitution: Substitution) -> "TriplePattern":
        """Apply *substitution* to every variable position."""
        def apply(term: PatternTerm) -> PatternTerm:
            if isinstance(term, Variable):
                return substitution.get(term, term)
            return term

        return TriplePattern(
            apply(self.subject), apply(self.property), apply(self.object)
        )

    def to_triple(self) -> Triple:
        """Convert a ground pattern to a triple (raises if non-ground)."""
        if not self.is_ground():
            raise ValueError("cannot convert non-ground pattern %r" % (self,))
        return Triple(self.subject, self.property, self.object)

    def matches(self, triple: Triple) -> Optional[Substitution]:
        """Return the unifying substitution against a concrete triple,
        or None when the pattern does not match."""
        binding: Substitution = {}
        for pattern_term, value in zip(self.as_tuple(), triple.as_tuple()):
            if isinstance(pattern_term, Variable):
                bound = binding.get(pattern_term)
                if bound is None:
                    binding[pattern_term] = value
                elif bound != value:
                    return None
            elif pattern_term != value:
                return None
        return binding

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TriplePattern)
            and other.subject == self.subject
            and other.property == self.property
            and other.object == self.object
        )

    def __hash__(self) -> int:
        return hash(("TriplePattern",) + self.as_tuple())

    def __repr__(self) -> str:
        return "(%s %s %s)" % tuple(_display(t) for t in self.as_tuple())


def _skeleton(atom: TriplePattern) -> Tuple:
    """The atom's variable-blind sort key: every variable is alike."""
    return tuple(
        ("var",) if isinstance(t, Variable) else ("term", t)
        for t in atom.as_tuple()
    )


def _display(term: PatternTerm) -> str:
    if isinstance(term, Variable):
        return repr(term)
    if isinstance(term, URI):
        return shorten(term)
    return term.n3()


class ConjunctiveQuery:
    """A CQ ``q(x̄) :- t1, …, tα``.

    ``head`` may mix variables and constants (see module doc).  Every
    head *variable* must occur in the body; a head *constant* is legal
    anywhere (it arises from reformulation binding a distinguished
    variable).

    ``nonliteral_variables`` is a (normally empty) guard produced by
    reformulation: those variables must bind to URIs or blank nodes.
    The range-typing rule needs it — a triple object may be a literal,
    but literals are never typed, so the rewritten atom must not match
    them (see :class:`repro.reformulation.atoms.Alternative`).
    """

    __slots__ = ("head", "atoms", "nonliteral_variables")

    def __init__(
        self,
        head: Sequence[HeadTerm],
        atoms: Sequence[TriplePattern],
        nonliteral_variables: Iterable[Variable] = (),
    ):
        head = tuple(head)
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        body_variables: Set[Variable] = set()
        for atom in atoms:
            if not isinstance(atom, TriplePattern):
                raise ValueError("CQ atoms must be TriplePatterns, got %r" % (atom,))
            body_variables.update(atom.variables())
        for item in head:
            if isinstance(item, Variable):
                if item not in body_variables:
                    raise ValueError(
                        "head variable %r does not occur in the body" % (item,)
                    )
            elif not isinstance(item, Term):
                raise ValueError("head items must be variables or terms")
        guard = frozenset(nonliteral_variables)
        for item in guard:
            if item not in body_variables:
                raise ValueError(
                    "guarded variable %r does not occur in the body" % (item,)
                )
        super(ConjunctiveQuery, self).__setattr__("head", head)
        super(ConjunctiveQuery, self).__setattr__("atoms", atoms)
        super(ConjunctiveQuery, self).__setattr__("nonliteral_variables", guard)

    def __setattr__(self, name, value):
        raise AttributeError("ConjunctiveQuery is immutable")

    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.head)

    def head_variables(self) -> List[Variable]:
        return [item for item in self.head if isinstance(item, Variable)]

    def variables(self) -> Set[Variable]:
        collected: Set[Variable] = set()
        for atom in self.atoms:
            collected.update(atom.variables())
        return collected

    def is_boolean(self) -> bool:
        return not self.head

    def substitute(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to head and body simultaneously.

        A guarded variable bound to a URI or blank node has its guard
        discharged; binding one to a literal is a caller error (the
        reformulation engine drops such disjuncts before reaching
        here).
        """
        new_head: List[HeadTerm] = []
        for item in self.head:
            if isinstance(item, Variable) and item in substitution:
                new_head.append(substitution[item])
            else:
                new_head.append(item)
        new_atoms = [atom.substitute(substitution) for atom in self.atoms]
        remaining_guard = []
        for variable in self.nonliteral_variables:
            bound = substitution.get(variable)
            if bound is None:
                remaining_guard.append(variable)
            elif isinstance(bound, Literal):
                raise ValueError(
                    "guarded variable %r bound to literal %r" % (variable, bound)
                )
        return ConjunctiveQuery(new_head, new_atoms, remaining_guard)

    # ------------------------------------------------------------------
    # Canonical form

    def canonical(self) -> Tuple:
        """A hashable key identifying this CQ up to (a) renaming of
        non-head variables and (b) atom order.

        Cache keys are built on it.  The canonicalization sorts atoms
        by their variable-blind skeleton, then numbers variables in
        order of first appearance (head first); this is a sound
        over-approximation of CQ isomorphism — two CQs with equal keys
        are isomorphic, while isomorphic CQs with genuinely ambiguous
        skeletons may receive distinct keys, which only costs a missed
        cache hit, never an incorrect one.
        """
        head_key, atom_keys, numbering = self.canonical_encoding()
        guard_key = frozenset(
            numbering[variable] for variable in self.nonliteral_variables
        )
        return (head_key, frozenset(atom_keys), guard_key)

    def canonical_encoding(self) -> Tuple[Tuple, List[Tuple], Dict[Variable, int]]:
        """The head and each atom (in ``atoms`` order) encoded under the
        canonical numbering, and that numbering: variables numbered in
        order of first appearance, head first, then the atoms sorted by
        their variable-blind skeleton.  A term encodes as itself, so
        its kind and a literal's datatype separate keys."""
        ordered_atoms = sorted(self.atoms, key=_skeleton)
        numbering: Dict[Variable, int] = {}
        for term in itertools.chain(
            self.head, *(atom.as_tuple() for atom in ordered_atoms)
        ):
            if isinstance(term, Variable) and term not in numbering:
                numbering[term] = len(numbering)

        def encode(term: PatternTerm) -> Tuple:
            if isinstance(term, Variable):
                return ("var", numbering[term])
            return ("term", term)

        head_key = tuple(encode(item) for item in self.head)
        atom_keys = [tuple(encode(t) for t in atom.as_tuple()) for atom in self.atoms]
        return head_key, atom_keys, numbering

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and other.head == self.head
            and other.atoms == self.atoms
            and other.nonliteral_variables == self.nonliteral_variables
        )

    def __hash__(self) -> int:
        return hash((self.head, self.atoms, self.nonliteral_variables))

    def __repr__(self) -> str:
        head = ", ".join(_display(item) for item in self.head)
        body = ", ".join(repr(atom) for atom in self.atoms)
        return "q(%s) :- %s" % (head, body)


class UnionQuery:
    """A UCQ: a union of CQs sharing one head arity.

    The disjuncts' heads may differ in *content* (constants vs
    variables) but must agree in arity; the union's answer is the set
    union of the disjuncts' answers.
    """

    __slots__ = ("arity", "disjuncts")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery]):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise ValueError("a union query needs at least one disjunct")
        arity = disjuncts[0].arity
        for cq in disjuncts:
            if not isinstance(cq, ConjunctiveQuery):
                raise ValueError("UCQ disjuncts must be CQs, got %r" % (cq,))
            if cq.arity != arity:
                raise ValueError(
                    "UCQ disjuncts must share arity: %d vs %d" % (arity, cq.arity)
                )
        super(UnionQuery, self).__setattr__("arity", arity)
        super(UnionQuery, self).__setattr__("disjuncts", disjuncts)

    def __setattr__(self, name, value):
        raise AttributeError("UnionQuery is immutable")

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def atom_count(self) -> int:
        """Total number of atoms — the syntactic size that makes huge
        UCQ reformulations unparseable (Example 1)."""
        return sum(len(cq.atoms) for cq in self.disjuncts)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnionQuery) and other.disjuncts == self.disjuncts

    def __hash__(self) -> int:
        return hash(self.disjuncts)

    def __repr__(self) -> str:
        if len(self.disjuncts) <= 3:
            return " UNION ".join(repr(cq) for cq in self.disjuncts)
        return "UnionQuery(<%d CQs, %d atoms>)" % (len(self), self.atom_count())


class JoinOfUnions:
    """A JUCQ: the natural join of fragment UCQs, projected on a head.

    Each fragment UCQ exposes a *fragment head* — the variables of its
    cover fragment that are distinguished or shared with another
    fragment (plus any constants bound by reformulation).  Fragments
    are joined on equal variable names, then the join is projected on
    ``head``.  Every head variable must be exposed by some fragment.
    """

    __slots__ = ("head", "fragment_heads", "fragments")

    def __init__(
        self,
        head: Sequence[HeadTerm],
        fragments: Sequence[Tuple[Sequence[HeadTerm], UnionQuery]],
    ):
        head = tuple(head)
        if not fragments:
            raise ValueError("a JUCQ needs at least one fragment")
        fragment_heads: List[Tuple[HeadTerm, ...]] = []
        unions: List[UnionQuery] = []
        exposed: Set[Variable] = set()
        for fragment_head, union in fragments:
            fragment_head = tuple(fragment_head)
            if not isinstance(union, UnionQuery):
                raise ValueError("JUCQ fragments must be UnionQuery instances")
            if len(fragment_head) != union.arity:
                raise ValueError(
                    "fragment head arity %d does not match UCQ arity %d"
                    % (len(fragment_head), union.arity)
                )
            fragment_heads.append(fragment_head)
            unions.append(union)
            exposed.update(
                item for item in fragment_head if isinstance(item, Variable)
            )
        for item in head:
            if isinstance(item, Variable) and item not in exposed:
                raise ValueError(
                    "head variable %r is not exposed by any fragment" % (item,)
                )
        super(JoinOfUnions, self).__setattr__("head", head)
        super(JoinOfUnions, self).__setattr__("fragment_heads", tuple(fragment_heads))
        super(JoinOfUnions, self).__setattr__("fragments", tuple(unions))

    def __setattr__(self, name, value):
        raise AttributeError("JoinOfUnions is immutable")

    @property
    def arity(self) -> int:
        return len(self.head)

    def fragment_count(self) -> int:
        return len(self.fragments)

    def atom_count(self) -> int:
        return sum(union.atom_count() for union in self.fragments)

    def shared_variables(self) -> Set[Variable]:
        """Variables exposed by two or more fragments (the join keys)."""
        counts: Dict[Variable, int] = {}
        for fragment_head in self.fragment_heads:
            for item in set(
                term for term in fragment_head if isinstance(term, Variable)
            ):
                counts[item] = counts.get(item, 0) + 1
        return {variable for variable, count in counts.items() if count > 1}

    def __repr__(self) -> str:
        parts = ", ".join(
            "U%d(<%d CQs>)" % (index, len(union))
            for index, union in enumerate(self.fragments, start=1)
        )
        return "JoinOfUnions(head=%s, %s)" % (list(self.head), parts)
