"""Beam search over the cover space: a stronger-than-greedy baseline.

GCov commits to the single best move per step; when two moves only pay
off together (e.g. Example 1 needs *both* type atoms grouped before
either join shrinks), a greedy step can stall in a local optimum.
Beam search keeps the ``beam_width`` best covers per round and expands
all of them — a classical remedy the paper leaves on the table, built
here as the ablation (A3) comparing search quality vs planning cost.

Same move set and the same :class:`~repro.optimizer.estimator.
CoverCostEstimator` as GCov, so any quality difference is attributable
to the search strategy alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..query.algebra import ConjunctiveQuery
from ..query.cover import Cover
from ..reformulation.policy import COMPLETE, ReformulationPolicy
from ..schema.schema import Schema
from ..storage.backends import BackendProfile, HASH_BACKEND
from ..storage.store import TripleStore
from .estimator import CoverCostEstimator
from .gcov import GCovResult, _neighbours


def beam_search(
    query: ConjunctiveQuery,
    schema: Schema,
    store: TripleStore,
    backend: BackendProfile = HASH_BACKEND,
    policy: ReformulationPolicy = COMPLETE,
    beam_width: int = 4,
    fragment_limit: int = 4096,
    max_rounds: int = 16,
    estimator: Optional[CoverCostEstimator] = None,
) -> GCovResult:
    """Beam search from the per-atom cover; returns the same result
    type as :func:`~repro.optimizer.gcov.gcov` for drop-in comparison.
    """
    if estimator is None:
        estimator = CoverCostEstimator(
            query, schema, store, backend, policy, fragment_limit
        )
    start = Cover.per_atom(query)
    start_cost = estimator.cost(start)
    visited: Dict[Tuple, float] = {start.fragments: start_cost}
    explored: List[Tuple[Cover, float]] = [(start, start_cost)]
    beam: List[Tuple[Cover, float]] = [(start, start_cost)]
    best_cover, best_cost = start, start_cost

    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        candidates: List[Tuple[Cover, float]] = []
        for cover, _ in beam:
            for neighbour in _neighbours(cover):
                key = neighbour.fragments
                if key in visited:
                    continue
                cost = visited[key] = estimator.cost(neighbour)
                explored.append((neighbour, cost))
                candidates.append((neighbour, cost))
        if not candidates:
            break
        candidates.sort(key=lambda pair: pair[1])
        beam = candidates[:beam_width]
        if beam[0][1] < best_cost:
            best_cover, best_cost = beam[0]
        elif all(cost >= best_cost for _, cost in beam):
            # No candidate in the beam improves on the incumbent and
            # costs are monotone enough that deeper rounds rarely help;
            # one grace round, then stop.
            break
    result = GCovResult(best_cover, best_cost, explored, rounds)
    result.fragments_priced = estimator.fragments_priced
    result.estimates_computed = estimator.estimates_computed
    return result
