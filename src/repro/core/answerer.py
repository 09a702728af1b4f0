"""The public query answering facade.

One object, every technique from the paper:

* ``Strategy.SAT``        — saturate once, evaluate queries directly;
* ``Strategy.REF_UCQ``    — classical CQ-to-UCQ reformulation;
* ``Strategy.REF_SCQ``    — the semi-conjunctive reformulation of [15];
* ``Strategy.REF_JUCQ``   — a JUCQ from a caller-chosen cover (the
  demo's "user-chosen cover with the help of our GUI");
* ``Strategy.REF_GCOV``   — the cost-based cover of the greedy search;
* ``Strategy.DATALOG``    — the Dat encoding run bottom-up;
* ``Strategy.REF_VIRTUOSO`` / ``Strategy.REF_ALLEGRO`` — the simulated
  incomplete fixed strategies of the commercial platforms.

Every call returns an :class:`AnswerReport` carrying the answer, wall
time, and strategy-specific diagnostics (reformulation sizes, the
chosen cover, estimated costs, intermediate result sizes) — the data
behind the demo's inspection panels.
"""

from __future__ import annotations

import enum
import time
from typing import Dict, FrozenSet, Optional, Tuple

from ..cache import QueryCache, cover_key, dataset_token
from ..columnar.indexes import ORDER_PERMUTATIONS
from ..datalog.encoding import answer_query as datalog_answer
from ..encoding.hierarchy import HierarchyInterval, preencode_hierarchy
from ..optimizer.gcov import gcov
from ..query.algebra import ConjunctiveQuery
from ..query.cover import Cover
from ..rdf.graph import Graph
from ..rdf.terms import Term
from ..reformulation.engine import ReformulationTooLarge, reformulate, ucq_size
from ..reformulation.jucq import jucq_for_cover, scq_reformulation
from ..reformulation.policy import (
    ALLEGROGRAPH_STYLE,
    COMPLETE,
    ReformulationPolicy,
    VIRTUOSO_STYLE,
)
from ..resilience.budget import ExecutionBudget
from ..resilience.errors import BudgetExceeded
from ..resilience.report import CompletenessReport, DEGRADED
from ..schema.schema import Schema
from ..storage.backends import BackendProfile, HASH_BACKEND, QueryTooLargeError
from ..storage.executor import ExecutionResult, Executor
from ..storage.sql import SqliteBackend
from ..storage.store import TripleStore

Answer = FrozenSet[Tuple[Term, ...]]

#: Engines the answerer accepts: ``"columnar"``, the in-process
#: executor of :mod:`repro.columnar.engine`, and ``"sqlite"``, the
#: same plans lowered to SQL on a real RDBMS (the external cross-check).
ANSWERER_ENGINES = ("columnar", "sqlite")

#: The engine every front door — answerer, service, replica reader,
#: CLI — uses unless told otherwise.
DEFAULT_ENGINE = "columnar"


def _ranked(search):
    """A search's explored ``(cover, cost)`` pairs, cheapest first."""
    return sorted(search.explored, key=lambda pair: pair[1])


class OptionError(ValueError):
    """An engine/strategy/option combination the answerer refuses —
    the caller's mistake, as opposed to a failure inside answering."""


class Strategy(enum.Enum):
    """The query answering techniques the demo compares."""

    SAT = "sat"
    REF_UCQ = "ref-ucq"
    REF_SCQ = "ref-scq"
    REF_JUCQ = "ref-jucq"
    REF_GCOV = "ref-gcov"
    DATALOG = "datalog"
    REF_VIRTUOSO = "ref-virtuoso"
    REF_ALLEGRO = "ref-allegrograph"


#: Strategies guaranteed to compute the complete answer.
COMPLETE_STRATEGIES = frozenset(
    {
        Strategy.SAT,
        Strategy.REF_UCQ,
        Strategy.REF_SCQ,
        Strategy.REF_JUCQ,
        Strategy.REF_GCOV,
        Strategy.DATALOG,
    }
)


#: The UCQ-shaped strategies and the policy each reformulates under
#: (None: the answerer's own).
_UCQ_POLICIES = {
    Strategy.REF_UCQ: None,
    Strategy.REF_VIRTUOSO: VIRTUOSO_STYLE,
    Strategy.REF_ALLEGRO: ALLEGROGRAPH_STYLE,
}


class AnswerReport:
    """An answer plus how it was obtained."""

    def __init__(
        self,
        strategy: Strategy,
        answer: Answer,
        elapsed_seconds: float,
        details: Optional[Dict] = None,
        execution: Optional[ExecutionResult] = None,
    ):
        self.strategy = strategy
        self.answer = answer
        self.elapsed_seconds = elapsed_seconds
        self.details = details or {}
        self.execution = execution

    @property
    def cardinality(self) -> int:
        return len(self.answer)

    @property
    def diagnostics(self) -> Dict:
        """Strategy-specific diagnostics; when the answerer carries a
        cache this includes a ``"cache"`` entry with the hit/miss
        outcome of this call and a counter snapshot."""
        return self.details

    def __repr__(self) -> str:
        return "AnswerReport(%s, %d rows, %.1f ms)" % (
            self.strategy.value,
            self.cardinality,
            self.elapsed_seconds * 1000.0,
        )


class QueryAnswerer:
    """Answers conjunctive queries over one dataset with any strategy.

    >>> from repro.datasets import books_dataset
    >>> graph, schema, query = books_dataset()
    >>> answerer = QueryAnswerer(graph, schema)
    >>> sorted(answerer.answer(query, Strategy.SAT).answer)[0][0].value
    'J. L. Borges'
    """

    def __init__(
        self,
        graph: Graph,
        schema: Optional[Schema] = None,
        backend: BackendProfile = HASH_BACKEND,
        policy: ReformulationPolicy = COMPLETE,
        engine: str = DEFAULT_ENGINE,
        cache: Optional[QueryCache] = None,
        interval_encoding: bool = False,
    ):
        """``engine`` selects the evaluation engine for the relational
        strategies: ``"columnar"`` (the default: the vectorized executor
        of :mod:`repro.columnar.engine` over sorted integer-run indexes,
        with per-operator metrics and mid-stream budget enforcement) or
        ``"sqlite"`` (generated SQL on a real RDBMS — answers are
        identical, per the test-suite, but plan metrics are the
        engine's own and not reported).

        ``cache`` (opt-in) amortizes repeated answering: reformulations
        and answers are served from a :class:`~repro.cache.QueryCache`
        and invalidated through the live-update hooks — see
        :mod:`repro.cache.cache`.  One cache may be shared by several
        answerers.

        ``interval_encoding`` (opt-in) dictionary-encodes the schema's
        class and property hierarchies *before* the data, so every
        covered subtree occupies one contiguous id interval; the
        reformulation strategies then collapse subclass/subproperty
        unions into single interval atoms executed as range scans —
        see :mod:`repro.encoding.hierarchy`.  Answers are identical to
        the classic unions (uncovered nodes keep them); only plan
        shape and speed change."""
        if engine not in ANSWERER_ENGINES:
            raise OptionError("unknown engine %r" % (engine,))
        self.graph = graph
        merged = Schema.from_graph(graph)
        if schema is not None:
            for constraint in schema.direct_constraints():
                merged.add(constraint)
        self.schema = merged
        self.backend = backend
        self.policy = policy
        self.engine = engine
        self.interval_encoding = interval_encoding
        if interval_encoding:
            # Hierarchy ids must be assigned before any data term grabs
            # one, so the store is built empty, pre-encoded from the
            # merged schema, and only then loaded.
            store = TripleStore()
            self.encoding = preencode_hierarchy(store, merged)
            store.load(graph, merged)
            self.store = store
        else:
            self.encoding = None
            self.store = TripleStore.from_graph(graph, merged)
        self._encoding_token = (
            None if self.encoding is None else self.encoding.token()
        )
        self.executor = Executor(self.store, backend)
        self._sql_backend: Optional[SqliteBackend] = None
        self._saturated_sql_backend: Optional[SqliteBackend] = None
        self._saturated_store: Optional[TripleStore] = None
        self._saturator = None
        self._saturation_seconds: Optional[float] = None
        self.cache = cache
        self._dataset_token: Optional[int] = None
        if cache is not None:
            self._dataset_token = dataset_token()
            # Invalidation hook: every mutation of the logical graph
            # (the answerer's own insert/delete included) bumps the
            # cache's epochs — schema triples purge reformulations,
            # data triples retire answers only.
            cache.watch_graph(self.graph)

    def _evaluate(self, query, saturated: bool = False, budget=None):
        """Run a relational query on the selected engine; returns
        (answer, execution-or-None).  ``budget`` (columnar engine
        only; :meth:`answer` refuses it on SQLite) bounds the
        evaluation's intermediate results — see
        :class:`~repro.resilience.budget.ExecutionBudget`."""
        if self.engine == "sqlite":
            if saturated:
                if self._saturated_sql_backend is None:
                    self._saturated_sql_backend = SqliteBackend(
                        self.saturated_store()
                    )
                return self._saturated_sql_backend.run(query), None
            if self._sql_backend is None:
                self._sql_backend = SqliteBackend(self.store)
            return self._sql_backend.run(query), None
        executor = (
            Executor(self.saturated_store(), self.backend)
            if saturated
            else self.executor
        )
        execution = executor.run(query, budget=budget)
        return execution.answer(), execution

    # ------------------------------------------------------------------
    # Data updates (live maintenance, the E7 machinery behind a facade)

    def insert(self, triple) -> bool:
        """Insert one data triple; every strategy sees it immediately.

        The base store is extended in place; the saturated store (when
        already built) is maintained incrementally through the support-
        counting saturator, not rebuilt.  Returns False when the triple
        was already present.
        """
        if triple in self.graph:
            return False
        self.graph.add(triple)
        self.store.insert(triple)
        self._sql_backend = None
        if self._saturator is not None:
            for added in self._saturator.insert(triple):
                self._saturated_store.insert(added)
            self._saturated_sql_backend = None
        return True

    def delete(self, triple) -> bool:
        """Delete one data triple everywhere; returns False if absent."""
        if triple not in self.graph:
            return False
        self.graph.discard(triple)
        self.store.delete(triple)
        self._sql_backend = None
        if self._saturator is not None:
            for removed in self._saturator.delete(triple):
                self._saturated_store.delete(removed)
            self._saturated_sql_backend = None
        return True

    # ------------------------------------------------------------------
    # Saturation management

    def saturated_store(self) -> TripleStore:
        """The store over ``G∞``, built (and timed) on first use and
        maintained incrementally by :meth:`insert`/:meth:`delete`.

        Unless the engine is SQLite, the timed build includes the three
        sorted runs: Sat pays its preparation up front, and each later
        write patches the runs instead of leaving a sort to the next
        read."""
        if self._saturated_store is None:
            from ..saturation.incremental import IncrementalSaturator

            start = time.perf_counter()
            saturator = IncrementalSaturator(
                self.schema, self.graph.data_triples()
            )
            store = TripleStore.from_graph(saturator.saturated(), self.schema)
            if self.engine != "sqlite":
                indexes = store.columnar()
                for name in ORDER_PERMUTATIONS:
                    indexes.order(name)
            self._saturation_seconds = time.perf_counter() - start
            self._saturator = saturator
            self._saturated_store = store
        return self._saturated_store

    @property
    def saturation_seconds(self) -> Optional[float]:
        """Time spent saturating (None until Sat is first used)."""
        return self._saturation_seconds

    # ------------------------------------------------------------------
    # Caching plumbing

    def _cached_reformulation(self, kind, query, policy, compute, extra=None):
        """Serve *compute*'s result from the cache's reformulation tier
        when possible; returns (value, hit) with hit None when no cache
        is configured.  Goes through the cache's single-flight gate, so
        concurrent misses on one key (answerers sharing a cache across
        threads) run *compute* once, not once per thread."""
        if self.cache is None:
            return compute(), None
        if self._encoding_token is not None:
            # Interval-encoded reformulations mention encoding-specific
            # ids; never trade them with classic (or differently
            # encoded) entries.
            extra = (extra, self._encoding_token)
        key = self.cache.reformulation_key(kind, query, self.schema, policy, extra)
        return self.cache.get_or_compute("reformulation", key, compute)

    def _interval_stats(self, reformulation) -> Optional[Dict]:
        """How much the hierarchy encoding collapsed in a materialized
        reformulation: interval atoms emitted, and the union branches
        they replaced (summed).  None without interval encoding."""
        if self.encoding is None:
            return None
        from ..query.algebra import JoinOfUnions

        unions = (
            reformulation.fragments
            if isinstance(reformulation, JoinOfUnions)
            else (reformulation,)
        )
        atoms = 0
        collapsed = 0
        for union in unions:
            for disjunct in union.disjuncts:
                for atom in disjunct.atoms:
                    for term in atom.as_tuple():
                        if isinstance(term, HierarchyInterval):
                            atoms += 1
                            collapsed += max(0, term.branches - 1)
        return {"interval_atoms": atoms, "branches_collapsed": collapsed}

    # ------------------------------------------------------------------

    def answer(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy = Strategy.REF_GCOV,
        cover: Optional[Cover] = None,
        max_disjuncts: Optional[int] = None,
        row_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        budget_fallbacks: int = 3,
        allow_partial: bool = False,
        budget_owner: Optional[str] = None,
    ) -> AnswerReport:
        """Answer *query* with *strategy*.

        ``cover`` is required by ``REF_JUCQ`` and ignored elsewhere.
        ``max_disjuncts`` optionally caps UCQ materialization over the
        backend's own parse limit.  Raises
        :class:`~repro.reformulation.engine.ReformulationTooLarge` or
        :class:`~repro.storage.backends.QueryTooLargeError` when the
        strategy genuinely cannot run — the failure modes the paper
        demonstrates, surfaced rather than hidden.

        ``row_budget`` / ``time_budget`` (columnar engine only)
        bound the evaluation's cumulative intermediate rows and wall
        time; an overrun raises
        :class:`~repro.resilience.errors.BudgetExceeded` — with one
        escape hatch: for the cover strategies (``REF_SCQ``,
        ``REF_JUCQ``, ``REF_GCOV``) up to ``budget_fallbacks``
        cheaper-estimated covers from the greedy search are retried,
        each under a *fresh* budget, before giving up.  A budget-capped
        run that completes (directly or via fallback) still returns the
        complete answer — budgets never truncate, they only refuse.
        Budget-exceeded runs are never cached.

        ``allow_partial`` (columnar engine) turns a final budget
        overrun into a *degraded* answer instead of an exception: the
        rows the engine had produced before the abort are decoded and
        returned, with ``details["partial"]`` set, the overrun
        diagnostics attached, and a
        :class:`~repro.resilience.report.CompletenessReport` marking
        the local evaluation ``DEGRADED``.  Partial answers are never
        cached.

        ``budget_owner`` (only meaningful with a budget) stamps the
        minted budgets, so every overrun carries the originating caller
        identity (the query service passes its ``tenant/request-id``
        here).
        """
        if strategy is Strategy.REF_JUCQ and cover is None:
            raise OptionError("REF_JUCQ requires a cover")
        budget_factory = None
        if row_budget is not None or time_budget is not None:
            if self.engine == "sqlite":
                raise OptionError(
                    "execution budgets require the columnar engine, not %r"
                    % (self.engine,)
                )
            if strategy is Strategy.DATALOG:
                raise OptionError(
                    "the DATALOG strategy does not support execution budgets"
                )
            if budget_fallbacks < 0:
                raise OptionError("budget_fallbacks must be >= 0")
            # Validate eagerly (and once): the factory then mints a
            # fresh budget per evaluation attempt, so a fallback cover
            # gets the full allowance, not the failed attempt's dregs.
            # ``budget_owner`` stamps every minted budget, so overruns
            # stay attributable to the caller — e.g. the query
            # service's ``tenant/request-id``.
            ExecutionBudget(max_rows=row_budget, max_seconds=time_budget)

            def budget_factory():
                return ExecutionBudget(
                    max_rows=row_budget,
                    max_seconds=time_budget,
                    owner=budget_owner,
                )

        start = time.perf_counter()
        answer_key = None
        if self.cache is not None:
            answer_key = self.cache.answer_key(
                self._dataset_token,
                query,
                self.schema,
                self.policy,
                strategy.value,
                cover=cover if strategy is Strategy.REF_JUCQ else None,
                extra=(
                    self.engine,
                    self.backend.name,
                    max_disjuncts,
                    self._encoding_token,
                ),
            )
            cached = self.cache.lookup_answer(answer_key)
            if cached is not None:
                answer, details = cached
                details = dict(details)
                details["cache"] = {
                    "answer": "hit",
                    "reformulation": None,
                    "stats": self.cache.stats(),
                }
                return AnswerReport(
                    strategy, answer, time.perf_counter() - start, details
                )
        try:
            report = self._answer_uncached(
                query,
                strategy,
                cover,
                max_disjuncts,
                start,
                budget_factory,
                budget_fallbacks,
            )
        except BudgetExceeded as exc:
            partial = self._partial_report(strategy, exc, start, allow_partial)
            if partial is None:
                raise
            return partial  # degraded answers are never cached
        if self.cache is not None:
            reformulation_hit = report.details.pop("_reformulation_cache", None)
            self.cache.store_answer(answer_key, (report.answer, dict(report.details)))
            report.details["cache"] = {
                "answer": "miss",
                "reformulation": (
                    None
                    if reformulation_hit is None
                    else ("hit" if reformulation_hit else "miss")
                ),
                "stats": self.cache.stats(),
            }
        else:
            report.details.pop("_reformulation_cache", None)
        return report

    def _partial_report(
        self,
        strategy: Strategy,
        exc: BudgetExceeded,
        start: float,
        allow_partial: bool,
    ) -> Optional[AnswerReport]:
        """Build the degraded :class:`AnswerReport` for a budget
        overrun, or None when the caller did not opt in (or the error
        carries no partial rows)."""
        if not allow_partial:
            return None
        partial_answer = getattr(exc, "partial_answer", None)
        if partial_answer is None:
            return None
        completeness = CompletenessReport(["local"])
        entry = completeness["local"]
        entry.note_status(DEGRADED)
        entry.note_error(exc)
        entry.rows = len(partial_answer)
        entry.elapsed_seconds = time.perf_counter() - start
        completeness.elapsed_seconds = entry.elapsed_seconds
        details = {
            "partial": True,
            "budget_exceeded": exc.diagnostics(),
            "completeness": completeness.as_dict(),
        }
        return AnswerReport(
            strategy,
            frozenset(partial_answer),
            time.perf_counter() - start,
            details,
        )

    def cover_search(self, query: ConjunctiveQuery):
        """One greedy cover search (GCov) for *query*, as ``REF_GCOV``
        runs it; returns ``(result, seconds)``."""
        start = time.perf_counter()
        search = gcov(
            query, self.schema, self.store, self.backend, self.policy,
            encoding=self.encoding,
        )
        return search, time.perf_counter() - start

    def _fallback_evaluate(
        self,
        jucq,
        ranked_covers,
        budget_factory,
        fallbacks: int,
        details: Dict,
        exclude_repr: Optional[str],
    ):
        """Evaluate *jucq* under a fresh budget; on
        :class:`~repro.resilience.errors.BudgetExceeded`, retry up to
        *fallbacks* next-best covers from the greedy search (cheapest
        estimated cost first, the failed cover excluded), each under a
        fresh budget.  *ranked_covers* is called only then: it yields
        the ``(cover, cost)`` list of the search that chose *jucq* when
        there was one — an overrun never searches twice.  Exhausting
        the fallbacks re-raises the original overrun — with every
        attempt's cover recorded in *details*."""
        try:
            return self._evaluate(jucq, budget=budget_factory())
        except BudgetExceeded as primary:
            if fallbacks <= 0:
                raise
            details["budget_exceeded"] = primary.diagnostics()
            excluded = {exclude_repr} if exclude_repr is not None else set()
            failed: list = []
            for candidate, _cost in ranked_covers():
                shown = repr(candidate)
                if shown in excluded:
                    continue
                excluded.add(shown)
                candidate_jucq = jucq_for_cover(
                    candidate, self.schema, self.policy,
                    encoding=self.encoding,
                )
                try:
                    answer, execution = self._evaluate(
                        candidate_jucq, budget=budget_factory()
                    )
                except BudgetExceeded:
                    failed.append(shown)
                    if len(failed) >= fallbacks:
                        break
                    continue
                details["budget_fallback_cover"] = shown
                details["budget_fallback_attempts"] = len(failed) + 1
                if failed:
                    details["budget_fallback_failed"] = failed
                return answer, execution
            details["budget_fallback_failed"] = failed
            raise primary

    def _rewrite(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy,
        cover: Optional[Cover],
        max_disjuncts: Optional[int],
    ):
        """The rewrite step of the six reformulation strategies: each
        one is a cache kind, a policy, a builder and the cover a budget
        fallback must not retry.  Returns ``(reformulation, details,
        failed_cover, ranked_covers)`` — the UCQ or JUCQ to evaluate,
        the strategy's diagnostics, that cover's repr (None for the UCQ
        family, which has no cover to fall back from) and what
        :meth:`_fallback_evaluate` ranks its fallbacks from."""

        def ranked_covers():
            return _ranked(self.cover_search(query)[0])

        policy = self.policy
        extra = None
        if strategy in _UCQ_POLICIES:
            policy = _UCQ_POLICIES[strategy] or policy
            size, _ = self._cached_reformulation(
                "ucq-size",
                query,
                policy,
                lambda: ucq_size(query, self.schema, policy, self.encoding),
            )
            # A UCQ of n disjuncts over an α-atom query has ~n·α atoms;
            # refuse before materializing what the backend cannot parse.
            projected_atoms = size * len(query.atoms)
            if projected_atoms > self.backend.max_query_atoms:
                raise QueryTooLargeError(
                    projected_atoms, self.backend.max_query_atoms, self.backend.name
                )
            kind, extra = "ucq", max_disjuncts

            def build():
                return reformulate(
                    query,
                    self.schema,
                    policy,
                    max_disjuncts=max_disjuncts,
                    encoding=self.encoding,
                )

            def describe(union):
                details = {"ucq_disjuncts": size, "policy": policy.name}
                return union, details, None, None

        elif strategy is Strategy.REF_SCQ:
            kind = "scq"

            def build():
                return scq_reformulation(
                    query, self.schema, policy, encoding=self.encoding
                )

            def describe(jucq):
                details = {
                    "fragments": jucq.fragment_count(),
                    "atom_count": jucq.atom_count(),
                }
                # The SCQ *is* the per-atom cover's JUCQ.
                return jucq, details, repr(Cover.per_atom(query)), ranked_covers

        elif strategy is Strategy.REF_JUCQ:
            kind = "jucq-cover"
            extra = None if self.cache is None else cover_key(cover)

            def build():
                return jucq_for_cover(
                    cover, self.schema, policy, encoding=self.encoding
                )

            def describe(jucq):
                details = {"cover": repr(cover), "atom_count": jucq.atom_count()}
                return jucq, details, details["cover"], ranked_covers

        elif strategy is Strategy.REF_GCOV:
            # The cover choice is cost-based, hence data-dependent: the
            # entry carries the dataset token so answerers sharing one
            # cache never trade covers tuned to each other's data.
            kind, extra = "gcov", (self._dataset_token, self.backend.name)

            def build():
                search, seconds = self.cover_search(query)
                jucq = jucq_for_cover(
                    search.cover, self.schema, policy, encoding=self.encoding
                )
                return (
                    jucq,
                    {
                        "cover": repr(search.cover),
                        "estimated_cost": search.cost,
                        "explored_covers": search.explored_count,
                        "search_seconds": seconds,
                    },
                    _ranked(search),
                )

            def describe(built):
                jucq, gcov_details, ranked = built
                return (
                    jucq,
                    dict(gcov_details),
                    gcov_details["cover"],
                    lambda: ranked,
                )

        else:
            raise ValueError("unknown strategy %r" % (strategy,))

        built, reformulation_hit = self._cached_reformulation(
            kind, query, policy, build, extra
        )
        reformulation, details, failed_cover, ranked_covers = describe(built)
        details["_reformulation_cache"] = reformulation_hit
        return reformulation, details, failed_cover, ranked_covers

    def _answer_uncached(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy,
        cover: Optional[Cover],
        max_disjuncts: Optional[int],
        start: float,
        budget_factory=None,
        budget_fallbacks: int = 0,
    ) -> AnswerReport:
        def budget():
            return None if budget_factory is None else budget_factory()

        if strategy == Strategy.SAT:
            answer, execution = self._evaluate(
                query, saturated=True, budget=budget()
            )
            elapsed = time.perf_counter() - start
            return AnswerReport(
                strategy,
                answer,
                elapsed,
                {"saturation_seconds": self._saturation_seconds},
                execution,
            )

        if strategy == Strategy.DATALOG:
            answer = datalog_answer(self.graph, self.schema, query)
            return AnswerReport(
                strategy, answer, time.perf_counter() - start
            )

        reformulation, details, failed_cover, ranked_covers = self._rewrite(
            query, strategy, cover, max_disjuncts
        )
        interval_stats = self._interval_stats(reformulation)
        if interval_stats is not None:
            details["interval"] = interval_stats
        if budget_factory is None or failed_cover is None:
            answer, execution = self._evaluate(reformulation, budget=budget())
        else:
            # The fallback ranking excludes failed_cover: by the time
            # it is consulted, that cover has just overrun.
            answer, execution = self._fallback_evaluate(
                reformulation,
                ranked_covers,
                budget_factory,
                budget_fallbacks,
                details,
                failed_cover,
            )
        return AnswerReport(
            strategy,
            answer,
            time.perf_counter() - start,
            details,
            execution,
        )

    # ------------------------------------------------------------------

    def answer_all(
        self,
        query: ConjunctiveQuery,
        strategies: Optional[Tuple[Strategy, ...]] = None,
        cover: Optional[Cover] = None,
    ) -> Dict[Strategy, AnswerReport]:
        """Run several strategies on *query*, skipping the ones that
        legitimately fail (too-large reformulations) — the demo's
        "answer it through all the available systems" button.

        ``REF_JUCQ`` participates only when a *cover* is supplied (it
        has no default cover by definition).
        """
        if strategies is None:
            strategies = tuple(Strategy)
        reports: Dict[Strategy, AnswerReport] = {}
        for strategy in strategies:
            if strategy is Strategy.REF_JUCQ and cover is None:
                continue
            try:
                reports[strategy] = self.answer(query, strategy, cover=cover)
            except (ReformulationTooLarge, QueryTooLargeError):
                continue
        return reports
