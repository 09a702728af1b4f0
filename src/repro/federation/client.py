"""Federated reformulation-based query answering.

The client side of the paper's distributed motivation: given a set of
:class:`~repro.federation.endpoint.Endpoint` sources whose *union* is
the logical graph, and the RDFS constraints (held by the client — in
practice fetched once from an ontology endpoint, which is feasible
because schemas are tiny), answer conjunctive queries completely
without ever saturating anything:

1. drop the atoms the schema implies (the answerer's minimisation, under
   the client's policy), then reformulate each remaining atom into its
   UCQ of alternatives (the same per-atom rules as everywhere else);
2. send each atomic UCQ to every endpoint (atoms are the unit of
   distribution: a join may need one triple from one source and one
   from another, so multi-atom fragments cannot be pushed down to a
   single endpoint without losing cross-endpoint matches);
3. union the per-endpoint answers and join locally on shared
   variables — exactly an SCQ evaluation whose leaves are remote.

Saturation, by contrast, would need every source's full contents
(exports are refused) or unrestricted query answers (responses are
truncated), and would have to be redone whenever any source changes —
the infeasibility the paper asserts, measured by experiment E11.

Atoms over the RDFS vocabulary are answered from the client's own
closed schema (the client holds the constraints, so it *is* the
authority on entailed constraints); atoms with a variable in property
position match the client closure plus whatever constraint triples the
endpoints expose explicitly.

**Resilience.**  Real endpoints fail: the same Section 1 that motivates
federation describes sources that truncate, refuse and disappear.  The
client therefore wraps every endpoint call in the
:mod:`repro.resilience` machinery — optional retry with backoff
(``retry_policy``), a per-request deadline (``request_deadline``), and
a per-endpoint circuit breaker (``breaker_threshold``) — and degrades
gracefully: a failed or skipped endpoint costs its *contribution*, not
the answer.  Every answer carries a
:class:`~repro.resilience.report.CompletenessReport` stating, per
endpoint, whether its sub-answers were ok, truncated, degraded (failed
past retries/deadline) or skipped (open circuit).  Degraded responses
are **never** written to the sub-answer cache: a cache must not launder
a failure into a complete answer.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cache import QueryCache, dataset_token
from ..query.algebra import (
    ConjunctiveQuery,
    HeadTerm,
    TriplePattern,
    UnionQuery,
    Variable,
)
from ..query.evaluation import join_relations
from ..rdf.terms import Term
from ..reformulation.engine import reformulate
from ..reformulation.policy import COMPLETE, ReformulationPolicy
from ..reformulation.pruning import minimize_under_schema
from ..resilience.breaker import CircuitBreaker
from ..resilience.budget import ExecutionBudget
from ..resilience.clock import Clock, Deadline, SYSTEM_CLOCK
from ..resilience.errors import DeadlineExceeded, EndpointFailure
from ..resilience.report import (
    CompletenessReport,
    DEGRADED,
    EndpointReport,
    SKIPPED_OPEN_CIRCUIT,
    TRUNCATED,
)
from ..resilience.retry import RetryPolicy
from ..schema.schema import Schema
from .endpoint import Endpoint

Row = Tuple[Term, ...]


class FederatedAnswer:
    """A federated result: rows plus completeness accounting."""

    def __init__(
        self,
        rows: FrozenSet[Row],
        truncated: bool,
        requests: int,
        rows_transferred: int,
        report: Optional[CompletenessReport] = None,
    ):
        self.rows = rows
        #: True when any endpoint truncated a sub-answer — the client
        #: cannot certify completeness then (it reports it, honestly).
        self.truncated = truncated
        self.requests = requests
        self.rows_transferred = rows_transferred
        #: Per-endpoint status/retry/elapsed accounting (always present
        #: on answers produced by :meth:`FederatedAnswerer.answer`).
        self.report = report

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def complete(self) -> bool:
        """Certified complete: nothing truncated, degraded or skipped."""
        if self.truncated:
            return False
        return self.report is None or self.report.complete

    def __repr__(self) -> str:
        if self.complete:
            flag = ""
        elif self.report is not None and not self.report.complete:
            flag = " (PARTIAL)"
        else:
            flag = " (TRUNCATED)"
        return "FederatedAnswer(%d rows, %d requests%s)" % (
            self.cardinality,
            self.requests,
            flag,
        )


class FederatedAnswerer:
    """Answers CQs over the union of several endpoints via Ref."""

    def __init__(
        self,
        endpoints: Sequence[Endpoint],
        schema: Schema,
        policy: ReformulationPolicy = COMPLETE,
        cache: Optional[QueryCache] = None,
        retry_policy: Optional[RetryPolicy] = None,
        request_deadline: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = 30.0,
        clock: Optional[Clock] = None,
        parallelism: int = 1,
    ):
        """``cache`` (opt-in) stores each endpoint's per-atom sub-answer
        in the cache's answer tier (and the atomic UCQs in its
        reformulation tier), so repeated queries — and queries sharing
        atoms — skip network round-trips entirely.  The federation has
        no push notifications for remote updates; call
        :meth:`invalidate` when a source is known to have changed.

        Resilience knobs (all opt-in; defaults preserve the fail-fast
        behaviour of a reliable lab federation):

        * ``retry_policy`` — retries transient endpoint errors with the
          policy's backoff; ``None`` means one attempt per request;
        * ``request_deadline`` — seconds allowed per (atom, endpoint)
          fetch *including* retries; overruns degrade that endpoint;
        * ``breaker_threshold`` / ``breaker_cooldown`` — per-endpoint
          circuit breakers (``None`` disables them);
        * ``clock`` — the time source backoffs, deadlines and cooldowns
          run on; inject a :class:`~repro.resilience.clock.FakeClock`
          for instant, deterministic tests.

        ``parallelism`` fans each atom's per-endpoint fetches out to a
        thread pool of at most that many workers, scoped to the atom
        (endpoint latency overlaps instead of summing); ``1`` keeps the
        serial loop.  Accounting, cache writes and row merging stay
        serial in endpoint order, so the answer, its report and the
        cache contents are identical either way.
        """
        if not endpoints:
            raise ValueError("a federation needs at least one endpoint")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1, got %r" % (parallelism,))
        if request_deadline is not None and request_deadline <= 0:
            raise ValueError(
                "request_deadline must be positive, got %r" % (request_deadline,)
            )
        self.endpoints = list(endpoints)
        self.schema = schema
        self.policy = policy
        self.cache = cache
        self._token: Optional[int] = dataset_token() if cache is not None else None
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.retry_policy = retry_policy
        self.request_deadline = request_deadline
        self.parallelism = parallelism
        #: One breaker per endpoint position, or None when disabled.
        self.breakers: Optional[List[CircuitBreaker]] = None
        if breaker_threshold is not None:
            self.breakers = [
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    cooldown_seconds=breaker_cooldown,
                    clock=self.clock,
                )
                for _ in self.endpoints
            ]
        # Report labels: endpoint names, uniquified by position so two
        # same-named sources cannot merge their accounting.
        self._labels: List[str] = []
        seen: Dict[str, int] = {}
        for endpoint in self.endpoints:
            count = seen.get(endpoint.name, 0)
            seen[endpoint.name] = count + 1
            self._labels.append(
                endpoint.name if count == 0 else "%s#%d" % (endpoint.name, count)
            )

    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Declare the endpoints' contents changed: cached sub-answers
        are retired (the reformulations stay — they are schema-only)."""
        if self.cache is not None:
            self.cache.note_data_change()

    def _atom_union(self, single: ConjunctiveQuery) -> UnionQuery:
        """The UCQ of alternatives of a one-atom query."""
        if self.cache is None:
            return reformulate(single, self.schema, self.policy)
        key = self.cache.reformulation_key(
            "atom-ucq", single, self.schema, self.policy
        )
        union, _ = self.cache.get_or_compute(
            "reformulation",
            key,
            lambda: reformulate(single, self.schema, self.policy),
        )
        return union

    def _schema_atom_rows(
        self, atom: TriplePattern, head: Tuple[HeadTerm, ...]
    ) -> Set[Row]:
        """Answer a constraint atom from the client's closed schema."""
        rows: Set[Row] = set()
        for triple in self.schema.entailed_triples():
            binding = atom.matches(triple)
            if binding is None:
                continue
            rows.add(
                tuple(
                    binding[item] if isinstance(item, Variable) else item
                    for item in head
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Guarded endpoint calls

    def _call_endpoint(
        self, index: int, endpoint: Endpoint, union: UnionQuery,
        entry: EndpointReport,
    ):
        """One guarded fetch: breaker gate, retries with backoff, and a
        per-request deadline.  Returns the
        :class:`~repro.federation.endpoint.TruncatedResult`, or ``None``
        when the endpoint is skipped or exhausted (the caller degrades
        gracefully; nothing may be cached then)."""
        breaker = self.breakers[index] if self.breakers is not None else None
        if breaker is not None and not breaker.allow():
            entry.note_status(SKIPPED_OPEN_CIRCUIT)
            return None
        deadline = (
            Deadline(self.request_deadline, self.clock)
            if self.request_deadline is not None
            else None
        )
        started = self.clock.monotonic()
        requests_before = entry.requests

        def attempt():
            entry.requests += 1
            if deadline is not None:
                deadline.check("request to endpoint %r" % (endpoint.name,))
            try:
                result = endpoint.evaluate(union)
            except EndpointFailure:
                if breaker is not None:
                    breaker.record_failure()
                raise
            if deadline is not None and deadline.expired():
                # The answer arrived after the deadline: an honest
                # client has already moved on, and a chronically slow
                # endpoint counts against its breaker.
                if breaker is not None:
                    breaker.record_failure()
                raise DeadlineExceeded(
                    "endpoint %r answered after the %.3fs deadline"
                    % (endpoint.name, self.request_deadline),
                    elapsed_seconds=deadline.elapsed(),
                )
            if breaker is not None:
                breaker.record_success()
            return result

        try:
            if self.retry_policy is None:
                result = attempt()
            else:
                result, _ = self.retry_policy.run(
                    attempt, clock=self.clock, deadline=deadline
                )
        except (EndpointFailure, DeadlineExceeded) as exc:
            entry.note_error(exc)
            entry.note_status(DEGRADED)
            result = None
        entry.retries += max(0, entry.requests - requests_before - 1)
        entry.elapsed_seconds += self.clock.monotonic() - started
        return result

    def _fetch_atom(
        self,
        atom: TriplePattern,
        head: Tuple[HeadTerm, ...],
        entries: Sequence[EndpointReport],
        guard: FrozenSet[Variable],
    ) -> Tuple[Set[Row], bool, int, int]:
        """Evaluate one atom's UCQ on every endpoint; union the rows.
        Constraint atoms short-circuit to the client's schema.  *guard*
        is the query's non-literal variables (minimisation's range
        guards); rows binding one of the atom's to a literal are not
        fetched.

        Three phases so the per-endpoint requests may overlap: a serial
        cache-lookup pass (cache access stays single-threaded) collects
        the endpoints that actually need a request; the guarded calls
        then run on a thread pool (each call touches only its own
        report entry and breaker; an error propagates unchanged);
        finally rows, truncation flags and cache stores are merged
        serially in endpoint order — identical accounting to the serial
        loop."""
        from ..rdf.namespaces import SCHEMA_PROPERTIES

        if atom.property in SCHEMA_PROPERTIES:
            return self._schema_atom_rows(atom, head), False, 0, 0
        union: Optional[UnionQuery] = None
        single = ConjunctiveQuery(head, [atom], guard & atom.variables())
        rows: Set[Row] = set()
        truncated = False
        requests = 0
        transferred = 0
        # -- phase 1: serial cache lookups; collect the misses ---------
        pending: List[Tuple[int, Endpoint, EndpointReport, Optional[object], int]] = []
        for index, endpoint in enumerate(self.endpoints):
            entry = entries[index]
            key = None
            if self.cache is not None:
                key = self.cache.endpoint_key(
                    self._token,
                    "%d:%s" % (index, endpoint.name),
                    single,
                    self.schema,
                    self.policy,
                )
                cached = self.cache.lookup_answer(key)
                if cached is not None:
                    cached_rows, cached_truncated = cached
                    rows.update(cached_rows)
                    truncated = truncated or cached_truncated
                    entry.cache_hits += 1
                    entry.rows += len(cached_rows)
                    if cached_truncated:
                        entry.note_status(TRUNCATED)
                    continue  # no request made: the hit is the point
            if union is None:
                union = self._atom_union(single)
            pending.append((index, endpoint, entry, key, entry.requests))
        # -- phase 2: the guarded endpoint calls, fanned out -----------
        calls = [
            (index, endpoint, union, entry)
            for index, endpoint, entry, _key, _before in pending
        ]
        if self.parallelism > 1 and len(calls) > 1:
            with ThreadPoolExecutor(min(self.parallelism, len(calls))) as pool:
                results = list(pool.map(self._call_endpoint, *zip(*calls)))
        else:
            results = [self._call_endpoint(*call) for call in calls]
        # -- phase 3: serial merge in endpoint order -------------------
        for (index, endpoint, entry, key, requests_before), result in zip(
            pending, results
        ):
            requests += entry.requests - requests_before
            if result is None:
                # Degraded or skipped: answer from the other sources;
                # crucially, nothing is cached for this endpoint — a
                # failure must never be served later as a sub-answer.
                continue
            rows.update(result.rows)
            truncated = truncated or result.truncated
            transferred += len(result)
            entry.rows += len(result.rows)
            if result.truncated:
                entry.note_status(TRUNCATED)
            if key is not None:
                self.cache.store_answer(
                    key, (frozenset(result.rows), result.truncated)
                )
        return rows, truncated, requests, transferred

    def answer(
        self,
        query: ConjunctiveQuery,
        budget: Optional[ExecutionBudget] = None,
    ) -> FederatedAnswer:
        """The complete answer of *query* over the union graph (unless
        an endpoint truncates, degrades or is skipped — the answer's
        :class:`~repro.resilience.report.CompletenessReport` says which,
        and the rows are then a sound subset of the complete answer).

        ``budget`` (opt-in) bounds the *local* join evaluation: a
        cross-endpoint blowup raises
        :class:`~repro.resilience.errors.BudgetExceeded` instead of
        consuming the client.  *query* is first minimised under the
        client's schema and policy: an implied atom costs no requests."""
        query, _ = minimize_under_schema(query, self.schema, self.policy)
        started = self.clock.monotonic()
        report = CompletenessReport(self._labels)
        entries = [report[label] for label in self._labels]
        requests = 0
        transferred = 0
        truncated = False

        schema_columns: Optional[Tuple[HeadTerm, ...]] = None
        rows: Set[Row] = set()
        head_variables = {
            item for item in query.head if isinstance(item, Variable)
        }
        for index, atom in enumerate(query.atoms):
            # Expose every variable of the atom that joins elsewhere or
            # is distinguished (same rule as cover fragment heads).
            needed: Set[Variable] = set(head_variables)
            for other_index, other in enumerate(query.atoms):
                if other_index != index:
                    needed.update(other.variables())
            exposed = tuple(
                variable
                for variable in sorted(atom.variables(), key=lambda v: v.name)
                if variable in needed or variable in head_variables
            ) or tuple(sorted(atom.variables(), key=lambda v: v.name))[:1]
            if not atom.variables():
                exposed = ()
            atom_rows, atom_truncated, atom_requests, atom_transferred = (
                self._fetch_atom(
                    atom, exposed, entries, query.nonliteral_variables
                )
            )
            requests += atom_requests
            transferred += atom_transferred
            truncated = truncated or atom_truncated
            if budget is not None:
                budget.charge_rows(len(atom_rows), operator="atom %d union" % index)
            if schema_columns is None:
                schema_columns, rows = exposed, atom_rows
            else:
                schema_columns, rows = join_relations(
                    schema_columns, rows, exposed, atom_rows, budget=budget
                )
            if not rows and not atom.is_ground():
                break

        positions: Dict[Variable, int] = {}
        for column_index, item in enumerate(schema_columns or ()):
            if isinstance(item, Variable) and item not in positions:
                positions[item] = column_index
        projected: Set[Row] = set()
        for row in rows:
            output: List[Term] = []
            for item in query.head:
                if isinstance(item, Variable):
                    output.append(row[positions[item]])
                else:
                    output.append(item)
            projected.add(tuple(output))
        report.elapsed_seconds = self.clock.monotonic() - started
        return FederatedAnswer(
            frozenset(projected), truncated, requests, transferred, report
        )

    # ------------------------------------------------------------------

    def total_triples(self) -> int:
        return sum(endpoint.triple_count for endpoint in self.endpoints)

    def reset_counters(self) -> None:
        for endpoint in self.endpoints:
            endpoint.reset_counters()
