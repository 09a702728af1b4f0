"""Dictionary encoding of RDF terms.

RDF platforms built over RDBMSs (paper reference [4]) store a triple
table of integer codes plus a dictionary mapping codes to terms, so
joins compare integers rather than strings.  This module provides that
bidirectional mapping: encoding is dense (ids are assigned 0,1,2,… in
first-seen order) which lets the statistics module use plain arrays.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Set

from ..rdf.terms import Literal, Term


class Dictionary:
    """A bidirectional, append-only Term ↔ int mapping.

    Literal ids are tracked separately so the executor can apply the
    non-literal guards reformulation emits without decoding terms.

    >>> from repro.rdf.terms import URI
    >>> d = Dictionary()
    >>> d.encode(URI("http://e/a"))
    0
    >>> d.decode(0)
    URI('http://e/a')
    """

    __slots__ = ("_term_to_id", "_id_to_term", "_literal_ids", "_holes")

    def __init__(self):
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Optional[Term]] = []
        self._literal_ids: Set[int] = set()
        # Reserved-but-unassigned ids: the hierarchy-aware encoder
        # leaves spare slots inside each subtree's id region so a later
        # schema insert can land *inside* the interval (bounded
        # incremental growth without re-encoding).
        self._holes: Set[int] = set()

    def copy(self) -> "Dictionary":
        """An independent dictionary with the same id assignment."""
        clone = Dictionary()
        clone._term_to_id = dict(self._term_to_id)
        clone._id_to_term = list(self._id_to_term)
        clone._literal_ids = set(self._literal_ids)
        clone._holes = set(self._holes)
        return clone

    def encode(self, term: Term) -> int:
        """Return the id of *term*, assigning a fresh one when new."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = len(self._id_to_term)
            self._term_to_id[term] = term_id
            self._id_to_term.append(term)
            if isinstance(term, Literal):
                self._literal_ids.add(term_id)
        return term_id

    def reserve(self, count: int = 1) -> List[int]:
        """Reserve *count* fresh ids with no term attached (holes).

        A hole participates in the dense id space — :meth:`decode`
        raises on it and :meth:`terms` reports it as None — until
        :meth:`assign` fills it.  The hierarchy-aware encoder uses
        holes as slack inside interval regions.
        """
        start = len(self._id_to_term)
        ids = list(range(start, start + count))
        self._id_to_term.extend([None] * count)
        self._holes.update(ids)
        return ids

    def assign(self, term_id: int, term: Term) -> int:
        """Fill the hole *term_id* with *term* (which must be new)."""
        if term_id not in self._holes:
            raise KeyError("id %d is not an unassigned hole" % term_id)
        if term in self._term_to_id:
            raise ValueError("%r is already encoded" % (term,))
        self._holes.discard(term_id)
        self._id_to_term[term_id] = term
        self._term_to_id[term] = term_id
        if isinstance(term, Literal):
            self._literal_ids.add(term_id)
        return term_id

    def is_hole(self, term_id: int) -> bool:
        """True when *term_id* is reserved but has no term yet."""
        return term_id in self._holes

    def is_literal_id(self, term_id: int) -> bool:
        """True when *term_id* encodes a literal."""
        return term_id in self._literal_ids

    @property
    def literal_ids(self) -> AbstractSet[int]:
        """The ids that encode literals: the live set, for whole-column
        membership tests — read it, never mutate it."""
        return self._literal_ids

    def lookup(self, term: Term) -> Optional[int]:
        """The id of *term*, or None when it has never been encoded.

        Unlike :meth:`encode`, never mutates the dictionary — the query
        path uses this so that a constant absent from the data yields
        an empty scan rather than a dictionary entry.
        """
        return self._term_to_id.get(term)

    def terms(self) -> List[Optional[Term]]:
        """The full id → term table in id order (None marks a hole).

        Because ids are dense and assigned in first-seen order, a
        checkpoint that persists this list rebuilds an *identical*
        dictionary by re-encoding the terms in sequence — the
        durability layer relies on this to keep encoded triples valid
        across restarts.
        """
        return list(self._id_to_term)

    def decode(self, term_id: int) -> Term:
        try:
            term = self._id_to_term[term_id]
        except IndexError:
            raise KeyError("unknown term id %d" % term_id)
        if term is None:
            raise KeyError("term id %d is an unassigned hole" % term_id)
        return term

    def decode_all(self, term_ids: Iterable[int]) -> List[Term]:
        """The terms of *term_ids*, in order, in one C-level pass.  The
        ids must be assigned: a hole decodes to None, an id past the
        end raises IndexError."""
        return list(map(self._id_to_term.__getitem__, term_ids))

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def __repr__(self) -> str:
        return "Dictionary(<%d terms>)" % len(self)
