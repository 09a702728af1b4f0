"""GCov: greedy cost-based cover selection (paper, Section 4).

"Our greedy cost-based cover search algorithm, named GCov, starts with
a cover where each atom is alone in a fragment, and adds an atom to a
fragment (leading to a new cover) if the cost model suggests the new
cover may lead to a more efficient query answering strategy."

The search starts from the one-atom-per-fragment cover (the SCQ
strategy), and repeatedly applies the best cost-decreasing move among:

* *add-atom*: place one atom additionally into another fragment
  (creating overlap, as in Example 1's best cover; fragments strictly
  contained in the grown fragment are dropped as redundant);
* *merge*: replace two fragments by their union.

It stops at a local optimum.  Every visited cover and its estimated
cost are recorded — the demo's step 3 lets attendees inspect "the
space of explored alternatives, and their estimated costs".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..query.algebra import ConjunctiveQuery
from ..query.cover import Cover
from ..reformulation.policy import COMPLETE, ReformulationPolicy
from ..schema.schema import Schema
from ..storage.backends import BackendProfile, HASH_BACKEND
from ..storage.store import TripleStore
from .estimator import CoverCostEstimator


class GCovResult:
    """Outcome of a greedy search: the chosen cover plus the trace.

    ``fragments_priced`` / ``estimates_computed`` say what deciding
    cost: the estimator's counters when the search ended (an estimator
    shared between searches arrives with their work already on it)."""

    def __init__(
        self,
        cover: Cover,
        cost: float,
        explored: List[Tuple[Cover, float]],
        iterations: int,
    ):
        self.cover = cover
        self.cost = cost
        self.explored = explored
        self.iterations = iterations

    @property
    def explored_count(self) -> int:
        return len(self.explored)

    def __repr__(self) -> str:
        return "GCovResult(%r, cost=%.1f, explored=%d)" % (
            self.cover,
            self.cost,
            self.explored_count,
        )


def _neighbours(cover: Cover) -> List[Cover]:
    """The covers one greedy move away (deduplicated)."""
    seen: Set[Tuple] = set()
    result: List[Cover] = []

    def consider(candidate: Cover) -> None:
        candidate = candidate.without_redundant_fragments()
        key = candidate.fragments
        if key not in seen:
            seen.add(key)
            result.append(candidate)

    fragments = cover.fragments
    for first_index in range(len(fragments)):
        for second_index in range(first_index + 1, len(fragments)):
            consider(
                cover.merge_fragments(fragments[first_index], fragments[second_index])
            )
    atom_count = len(cover.query.atoms)
    for atom_index in range(atom_count):
        for fragment in fragments:
            if atom_index not in fragment:
                consider(cover.add_atom_to_fragment(atom_index, fragment))
    return result


def gcov(
    query: ConjunctiveQuery,
    schema: Schema,
    store: TripleStore,
    backend: BackendProfile = HASH_BACKEND,
    policy: ReformulationPolicy = COMPLETE,
    fragment_limit: int = 4096,
    max_iterations: int = 64,
    estimator: Optional[CoverCostEstimator] = None,
    encoding=None,
) -> GCovResult:
    """Run the greedy cover search for *query*; see module doc.

    ``max_iterations`` bounds the number of accepted moves (each move
    strictly decreases the estimated cost, so termination is
    guaranteed anyway; the bound caps worst-case planning time).
    ``encoding`` (opt-in hierarchy encoding) makes the search price
    interval atoms instead of the unions they collapse.
    """
    if estimator is None:
        estimator = CoverCostEstimator(
            query, schema, store, backend, policy, fragment_limit,
            encoding=encoding,
        )
    current = Cover.per_atom(query)
    current_cost = estimator.cost(current)
    explored: List[Tuple[Cover, float]] = [(current, current_cost)]
    visited: Dict[Tuple, float] = {current.fragments: current_cost}

    iterations = 0
    while iterations < max_iterations:
        best_candidate: Optional[Cover] = None
        best_cost = current_cost
        for candidate in _neighbours(current):
            key = candidate.fragments
            if key in visited:
                cost = visited[key]
            else:
                cost = estimator.cost(candidate)
                visited[key] = cost
                explored.append((candidate, cost))
            if cost < best_cost:
                best_candidate = candidate
                best_cost = cost
        if best_candidate is None:
            break
        current, current_cost = best_candidate, best_cost
        iterations += 1

    result = GCovResult(current, current_cost, explored, iterations)
    result.fragments_priced = estimator.fragments_priced
    result.estimates_computed = estimator.estimates_computed
    return result
