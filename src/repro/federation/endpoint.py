"""RDF endpoints: independent sources with restricted interfaces.

Section 1 of the paper: "Semantic Web data is often split across
independent [sources], typically called RDF endpoints … Data in each
such independent source may or may not be saturated; further, implicit
facts may be due to the presence of one fact in one endpoint, and a
constraint in another.  Computing the complete (distributed) set of
consequences in this setting is unfeasible, especially considering
that such sources often return only restricted answers (e.g., the
first 50) to a query, to avoid overloading their servers."

:class:`Endpoint` models exactly that interface: it evaluates BGP
queries over its *explicit* triples only (no reasoning), optionally
truncates results to ``result_limit`` rows, refuses bulk export, and
counts the requests made of it — the quantities experiment E11 uses to
show why Sat cannot work here while Ref can.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from ..core.answerer import DEFAULT_ENGINE
from ..query.algebra import ConjunctiveQuery, UnionQuery
from ..rdf.graph import Graph
from ..rdf.terms import Term
from ..storage.backends import BackendProfile, HASH_BACKEND
from ..storage.executor import Executor
from ..storage.store import TripleStore

Row = Tuple[Term, ...]


def truncate_rows(rows, limit: Optional[int]) -> Tuple[FrozenSet[Row], bool]:
    """The one truncation code path: keep the deterministic sorted
    prefix of *rows* under *limit* (reproducible experiments; real
    endpoints return an arbitrary page).

    Shared by :meth:`Endpoint.evaluate` and the chaos harness's flaky
    truncation (:class:`~repro.resilience.faults.ChaosEndpoint`), so
    injected truncation cannot diverge from genuine truncation
    semantics.

    >>> rows, truncated = truncate_rows({(3,), (1,), (2,)}, 2)
    >>> (sorted(rows), truncated)
    ([(1,), (2,)], True)
    >>> truncate_rows({(1,)}, None)[1]
    False
    """
    if limit is not None and len(rows) > limit:
        return frozenset(sorted(rows)[:limit]), True
    return frozenset(rows), False


class ExportForbidden(RuntimeError):
    """The endpoint refuses to hand over its full contents.

    Public endpoints do not allow dumps; this is what makes global
    saturation infeasible in the federated setting.
    """


class TruncatedResult:
    """An endpoint response: rows plus a truncation flag.

    When ``truncated`` is set, the endpoint had more matches than its
    result limit allows returning — any pipeline built on this answer
    is potentially incomplete, and honest clients must surface that.
    """

    def __init__(self, rows: FrozenSet[Row], truncated: bool):
        self.rows = rows
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Endpoint:
    """One independent RDF source.

    >>> from repro.rdf import Namespace, RDF_TYPE, Triple, Graph
    >>> EX = Namespace("http://e/")
    >>> endpoint = Endpoint("src", Graph([Triple(EX.a, RDF_TYPE, EX.C)]))
    >>> endpoint.name
    'src'
    """

    def __init__(
        self,
        name: str,
        graph: Graph,
        result_limit: Optional[int] = None,
        backend: BackendProfile = HASH_BACKEND,
    ):
        self.name = name
        self.result_limit = result_limit
        self._store = TripleStore.from_graph(graph)
        self._executor = Executor(self._store, backend, DEFAULT_ENGINE)
        self.requests_served = 0
        self.rows_returned = 0

    @property
    def triple_count(self) -> int:
        return self._store.triple_count

    # ------------------------------------------------------------------

    def evaluate(self, query) -> TruncatedResult:
        """Evaluate a CQ or UCQ over the explicit triples; apply the
        result limit.  This is the *only* data access the endpoint
        offers."""
        if not isinstance(query, (ConjunctiveQuery, UnionQuery)):
            raise TypeError("endpoints answer CQs and UCQs, got %r" % (query,))
        self.requests_served += 1
        answer = self._executor.run(query).answer()
        answer, truncated = truncate_rows(answer, self.result_limit)
        self.rows_returned += len(answer)
        return TruncatedResult(answer, truncated)

    def export(self) -> Graph:
        """Bulk export — always refused (see class doc)."""
        raise ExportForbidden(
            "endpoint %r does not allow dumping its %d triples"
            % (self.name, self.triple_count)
        )

    def reset_counters(self) -> None:
        self.requests_served = 0
        self.rows_returned = 0

    def __repr__(self) -> str:
        limit = self.result_limit if self.result_limit is not None else "∞"
        return "Endpoint(%r, %d triples, limit=%s)" % (
            self.name,
            self.triple_count,
            limit,
        )
