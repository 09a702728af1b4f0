"""Exhaustive cover search: ground truth for small queries.

Enumerates every *partition* cover (Bell(n) of them) and prices each,
giving the optimum of the partition subspace.  Used by experiment E8 to
measure how close GCov's greedy local optimum gets, and by tests as an
oracle.  Overlapping covers are not enumerated (the space is doubly
exponential); GCov can still reach them through add-atom moves, so the
greedy result may legitimately beat the "exhaustive" partition optimum.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..query.algebra import ConjunctiveQuery
from ..query.cover import Cover, enumerate_partition_covers, partition_cover_count
from ..reformulation.policy import COMPLETE, ReformulationPolicy
from ..schema.schema import Schema
from ..storage.backends import BackendProfile, HASH_BACKEND
from ..storage.store import TripleStore
from .estimator import INFINITE_COST, CoverCostEstimator


class ExhaustiveResult:
    """The best partition cover and the full priced space."""

    def __init__(self, cover: Optional[Cover], cost: float, space: List[Tuple[Cover, float]]):
        self.cover = cover
        self.cost = cost
        self.space = space

    def ranked(self) -> List[Tuple[Cover, float]]:
        return sorted(self.space, key=lambda pair: pair[1])

    def __repr__(self) -> str:
        return "ExhaustiveResult(%r, cost=%.1f, space=%d)" % (
            self.cover,
            self.cost,
            len(self.space),
        )


def exhaustive_cover_search(
    query: ConjunctiveQuery,
    schema: Schema,
    store: TripleStore,
    backend: BackendProfile = HASH_BACKEND,
    policy: ReformulationPolicy = COMPLETE,
    fragment_limit: int = 4096,
    max_atoms: int = 8,
    estimator: Optional[CoverCostEstimator] = None,
) -> ExhaustiveResult:
    """Price every partition cover of *query* and return the best.

    Refuses queries beyond *max_atoms* atoms (Bell(9) is already
    21,147 covers); use GCov there instead.
    """
    atom_count = len(query.atoms)
    if atom_count > max_atoms:
        raise ValueError(
            "exhaustive search over %d atoms would price %d covers; "
            "raise max_atoms explicitly if you really want this"
            % (atom_count, partition_cover_count(atom_count))
        )
    if estimator is None:
        estimator = CoverCostEstimator(
            query, schema, store, backend, policy, fragment_limit
        )
    best_cover: Optional[Cover] = None
    best_cost = INFINITE_COST
    space: List[Tuple[Cover, float]] = []
    for cover in enumerate_partition_covers(query):
        cost = estimator.cost(cover)
        space.append((cover, cost))
        if cost < best_cost:
            best_cover, best_cost = cover, cost
    return ExhaustiveResult(best_cover, best_cost, space)
