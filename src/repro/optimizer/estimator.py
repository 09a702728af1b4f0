"""Pricing covers: the cost function ``c`` over JUCQ strategies.

GCov prices many covers and runs one, so a price is computed from
*estimates*, never from a plan: nothing is reformulated, no query or
plan node is built.  The arithmetic is the planner's own — the
node-free formulas of :mod:`repro.cost.model` and the planner's greedy
join order, in the planner's sequence — so ``cost(cover)`` equals the
annotated cost of planning ``jucq_for_cover(cover)`` up to summation
order; the tests hold it to that.  The work is done once per *factor*,
not once per disjunct (DESIGN.md, "Estimate-only cover pricing"):
alternatives once per query, scan estimates interned by value, one
disjunct priced per combination of alternative *signatures* and weighted
by its multiplicity, join prefixes and fragment estimates memoised.

Fragments whose UCQ reformulation exceeds ``fragment_limit`` disjuncts
are priced at infinity: the corresponding SQL would blow the backend's
parser exactly like Example 1's 318,096-CQ union, so no finite cost is
meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import attrgetter
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..cost.cardinality import Distincts
from ..cost.model import (
    dedup_cost,
    join_estimate,
    per_row_cost,
    scan_estimate,
    union_estimate,
)
from ..query.algebra import ConjunctiveQuery, TriplePattern, Variable
from ..query.cover import Cover
from ..reformulation.engine import atom_alternatives, merge_choices
from ..reformulation.policy import COMPLETE, ReformulationPolicy
from ..schema.schema import Schema
from ..storage.backends import BackendProfile, HASH_BACKEND
from ..storage.planner import greedy_join_order, scan_positions
from ..storage.store import TripleStore

#: Sentinel cost for fragments too large to reformulate/parse.
INFINITE_COST = math.inf


class Estimate(NamedTuple):
    """All that pricing keeps of a subplan.  Columns are named by the
    index of the query variable they carry."""

    rows: float
    distincts: Distincts
    cost: float  # cumulative: the subplan's own cost plus its inputs'
    variables: Tuple[int, ...]  # output columns, in plan order


#: A disjunct of a fragment's UCQ, to its estimate: each atom's scan id
#: (None: a constant the data never stored — the disjunct is empty) and
#: whether a non-literal guard remains.
Disjunct = Tuple[Tuple[Optional[int], ...], bool]

_rows = attrgetter("rows")
_variables = attrgetter("variables")


class CoverCostEstimator:
    """Prices covers of one query against one store + backend.

    ``fragments_priced`` and ``estimates_computed`` (scan, join and
    disjunct estimates actually computed, memo hits excluded) count the
    work the searches sharing this estimator have caused so far."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        schema: Schema,
        store: TripleStore,
        backend: BackendProfile = HASH_BACKEND,
        policy: ReformulationPolicy = COMPLETE,
        fragment_limit: int = 4096,
        encoding=None,
    ):
        self.query = query
        self.schema = schema
        self.store = store
        self.backend = backend
        self.policy = policy
        self.fragment_limit = fragment_limit
        #: Opt-in hierarchy encoding: cover search then prices interval
        #: atoms (stored interval statistics, not summed union branches).
        self.encoding = encoding
        self.fragments_priced = 0
        self.estimates_computed = 0
        self._scans: List[Estimate] = []
        self._scan_ids: Dict[Tuple, int] = {}
        self._joins: Dict[Tuple[int, ...], Estimate] = {}
        self._fragments: Dict[FrozenSet[int], Optional[Estimate]] = {}
        self._index = {v: i for i, v in enumerate(sorted(query.variables()))}
        self._alternatives = atom_alternatives(query, schema, policy, encoding)
        #: Per atom: the variables its alternatives bind.
        self._bound = [
            {variable for choice in choices for variable in choice.substitution}
            for choices in self._alternatives
        ]
        #: Per atom: how many alternatives share each signature.
        self._signatures = [
            Counter(self._disjuncts([atom])) for atom in range(len(query.atoms))
        ]

    # ------------------------------------------------------------------
    # Scans and joins

    def _scan(self, pattern: TriplePattern) -> Optional[int]:
        """The id of *pattern*'s scan estimate (interned by value), or
        None when a constant is absent from the dictionary."""
        positions = scan_positions(pattern, self.store)
        if positions is None:
            return None
        # The fresh existential variables reformulation introduces join
        # nothing: they share the column name None, dropped below.
        rows, distincts, cost = scan_estimate(
            [
                (kind, self._index.get(value) if kind == "var" else value)
                for kind, value in positions
            ],
            self.store.statistics,
            self.backend,
            self.store.type_property_id,
        )
        self.estimates_computed += 1
        distincts.pop(None, None)
        key = (rows, tuple(distincts.items()))
        if key not in self._scan_ids:
            self._scan_ids[key] = len(self._scans)
            self._scans.append(Estimate(rows, distincts, cost, tuple(distincts)))
        return self._scan_ids[key]

    def _join(self, left: Estimate, right: Estimate) -> Estimate:
        shared = [v for v in right.variables if v in left.variables]
        rows, distincts, cost = join_estimate(
            left[:2], right[:2], shared, self.backend.join_algorithm, self.backend
        )
        self.estimates_computed += 1
        return Estimate(
            rows,
            distincts,
            left.cost + right.cost + cost,
            left.variables + tuple(v for v in right.variables if v not in shared),
        )

    def _join_scans(self, order: Tuple[int, ...]) -> Estimate:
        """The left-deep join of the scans *order* names; prefixes are
        shared by every disjunct that starts with the same scans."""
        estimate = self._joins.get(order)
        if estimate is None:
            estimate = self._scans[order[-1]]
            if len(order) > 1:
                estimate = self._join(self._join_scans(order[:-1]), estimate)
            self._joins[order] = estimate
        return estimate

    # ------------------------------------------------------------------
    # Fragments

    def _disjuncts(self, atoms: Sequence[int]) -> Iterator[Disjunct]:
        """Every disjunct of the UCQ reformulation of the fragment
        *atoms*: one per consistent choice of an alternative per atom,
        merged the way ``reformulate`` merges them."""
        for choices in itertools.product(
            *(self._alternatives[atom] for atom in atoms)
        ):
            merged = merge_choices(choices)
            if merged is not None:
                substitution, guard = merged
                yield tuple(
                    self._scan(choice.atom.substitute(substitution))
                    for choice in choices
                ), bool(guard)

    def _weighted_disjuncts(self, atoms: Sequence[int]) -> Optional[Dict[Disjunct, int]]:
        """How many disjuncts of the fragment's UCQ share each estimate,
        or None when it has over ``fragment_limit`` disjuncts."""
        weighted: Counter = Counter()
        if all(
            self._bound[first].isdisjoint(self.query.atoms[second].variables())
            for first, second in itertools.permutations(atoms, 2)
        ):
            # No alternative touches another atom: every choice is
            # consistent and leaves the other atoms' scans alone, so the
            # product space regroups by per-atom signature.
            size = math.prod(len(self._alternatives[atom]) for atom in atoms)
            if size > self.fragment_limit:
                return None
            for combination in itertools.product(
                *(self._signatures[atom].items() for atom in atoms)
            ):
                scans = tuple(scans[0] for (scans, _), _ in combination)
                guarded = any(guarded for (_, guarded), _ in combination)
                weighted[scans, guarded] += math.prod(n for _, n in combination)
            return weighted
        for size, disjunct in enumerate(self._disjuncts(atoms), 1):
            if size > self.fragment_limit:
                return None
            weighted[disjunct] += 1
        return weighted

    def _fragment(self, fragment: FrozenSet[int]) -> Optional[Estimate]:
        """The estimate of a fragment's UCQ with every variable exposed
        (a superset of any head a cover requires: same rows, same cost),
        or None when its reformulation exceeds the limit.  Memoised."""
        if fragment in self._fragments:
            return self._fragments[fragment]
        self.fragments_priced += 1
        atoms = sorted(fragment)
        weighted = self._weighted_disjuncts(atoms)
        estimate = None
        if weighted is not None:
            scans = self._scans
            inputs = []
            cost = 0.0
            for (scan_ids, guarded), count in weighted.items():
                if None in scan_ids:
                    continue  # an empty disjunct: no rows, no cost
                order = greedy_join_order(
                    scan_ids,
                    lambda scan: scans[scan].rows,
                    lambda scan: scans[scan].variables,
                )
                joined = self._join_scans(tuple(order))
                # The guard and the projection on the head each touch
                # every joined row once.
                passes = per_row_cost(joined.rows, self.backend) * (1 + guarded)
                cost += count * (joined.cost + passes)
                inputs.append((joined.rows, joined.distincts, count))
            self.estimates_computed += len(inputs)
            rows, distincts, union_cost = union_estimate(inputs, self.backend)
            columns = dict.fromkeys(
                self._index[term]
                for atom in atoms
                for term in self.query.atoms[atom].as_tuple()
                if isinstance(term, Variable)
            )
            estimate = Estimate(rows, distincts, cost + union_cost, tuple(columns))
        self._fragments[fragment] = estimate
        return estimate

    # ------------------------------------------------------------------

    def cost(self, cover: Cover) -> float:
        """The estimated evaluation cost of the cover's JUCQ, or
        :data:`INFINITE_COST` when it cannot be built."""
        fragments = [self._fragment(fragment) for fragment in cover.fragments]
        if None in fragments:
            return INFINITE_COST
        ordered = greedy_join_order(fragments, _rows, _variables)
        joined = ordered[0]
        for estimate in ordered[1:]:
            joined = self._join(joined, estimate)
        # Projection on the query head, then the final distinct.
        return (
            joined.cost
            + per_row_cost(joined.rows, self.backend)
            + dedup_cost(joined.rows, self.backend)
        )
