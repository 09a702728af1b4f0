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

Answering is two steps: :meth:`QueryAnswerer.compile` minimises the
query (every strategy but ``REF_JUCQ`` drops the atoms the schema
implies, :func:`~repro.reformulation.pruning.minimize_under_schema`;
reported covers name the atoms of the query that remains), searches a
cover and rewrites it into one :class:`CompiledQuery`, and
:meth:`QueryAnswerer.execute` evaluates that record.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Sequence
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Tuple, Union

from ..cache import QueryCache, cover_key, dataset_token
from ..cache.cache import bind_footprint, footprint_of
from ..cache.keys import lifted_constants, shape_of
from ..columnar.indexes import ORDER_PERMUTATIONS
from ..datalog.encoding import answer_query as datalog_answer
from ..encoding.hierarchy import HierarchyInterval, preencode_hierarchy
from ..optimizer.gcov import gcov
from ..query.algebra import ConjunctiveQuery
from ..query.cover import Cover
from ..rdf.graph import Graph
from ..rdf.terms import Literal, Term
from ..reformulation.engine import reformulate, ucq_size
from ..reformulation.jucq import jucq_for_cover
from ..reformulation.policy import (
    ALLEGROGRAPH_STYLE,
    COMPLETE,
    ReformulationPolicy,
    VIRTUOSO_STYLE,
)
from ..reformulation.pruning import minimize_under_schema
from ..resilience.budget import ExecutionBudget
from ..resilience.errors import BudgetExceeded
from ..resilience.report import CompletenessReport, DEGRADED
from ..schema.schema import Schema
from ..storage.backends import BackendProfile, HASH_BACKEND, QueryTooLargeError
from ..storage.executor import ExecutionResult, Executor
from ..storage.planner import Planner
from ..storage.sql import SqliteBackend
from ..storage.store import TripleStore

Answer = FrozenSet[Tuple[Term, ...]]

#: Engines the answerer accepts: ``"columnar"``, the in-process
#: executor of :mod:`repro.columnar.engine`, and ``"sqlite"``, the
#: same plans lowered to SQL on a real RDBMS (the external cross-check).
ANSWERER_ENGINES = ("columnar", "sqlite")

#: The engine every front door — answerer, service, CLI — uses unless
#: told otherwise.
DEFAULT_ENGINE = "columnar"


def _ranked(search):
    """A search's explored ``(cover, cost)`` pairs, cheapest first (ties
    in exploration order)."""
    return tuple(sorted(search.explored, key=lambda pair: pair[1]))


def _mapped_cover(query, order, fragments) -> Cover:
    """The cover of *query* whose fragments are *fragments* over the
    atom positions of its shape (*order*: :func:`shape_of`'s)."""
    return Cover(query, [[order[i] for i in fragment] for fragment in fragments])


class _MappedRanking(Sequence):
    """A ranking the reformulation tier served: ``(cover, cost)`` pairs
    whose covers are fragments over the shape's atom positions, each
    mapped onto *query* (and validated) when the ranking is first
    read.  Only a budget fallback and the CLI's cover table read it,
    so an answer miss builds none of them."""

    __slots__ = ("_query", "_order", "_lifted", "_costs", "_pairs")

    def __init__(self, query, order, lifted, costs):
        self._query, self._order = query, order
        self._lifted, self._costs = lifted, costs
        self._pairs = None

    def _bound(self) -> Tuple[Tuple[Cover, float], ...]:
        if self._pairs is None:
            covers = [
                _mapped_cover(self._query, self._order, fragments)
                for fragments in self._lifted
            ]
            self._pairs = tuple(zip(covers, self._costs))
        return self._pairs

    def __len__(self) -> int:
        return len(self._costs)

    def __getitem__(self, index):
        return self._bound()[index]

    def __iter__(self):
        return iter(self._bound())


class OptionError(ValueError):
    """An engine/strategy/option combination the answerer refuses —
    the caller's mistake, as opposed to a failure inside answering."""


def check_data_triple(triple) -> None:
    """Refuse a schema triple with ``ValueError``: a constraint changes
    the closed schema, the entailed schema triples and the saturation
    together, which a triple write would only half apply."""
    if triple.is_schema_triple():
        raise ValueError(
            "%s is a schema triple: insert/delete take data triples only; "
            "change constraints with DurableStore.add_constraint / "
            "remove_constraint" % triple.n3()
        )


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


class CompiledQuery(NamedTuple):
    """What :meth:`QueryAnswerer.compile` decided for one query and
    strategy: all :meth:`QueryAnswerer.execute` evaluates.  Runs never
    write into plans, so a record may share ``plan`` with others."""

    strategy: Strategy
    #: The caller's query, the query minimisation left and the indices
    #: (in the caller's query) of the atoms it dropped.
    query: ConjunctiveQuery
    minimised: ConjunctiveQuery
    dropped: Tuple[int, ...]
    #: What is evaluated: the minimised CQ for ``SAT``/``DATALOG``, the
    #: UCQ or JUCQ otherwise; None when the tier served ``plan``.
    relational: object
    #: The strategy's diagnostics, ``"minimised"`` included.
    details: Mapping
    #: The cover the JUCQ came from (``REF_SCQ``: the per-atom cover);
    #: None for the UCQ family, ``SAT`` and ``DATALOG``.
    cover: Optional[Cover] = None
    #: ``REF_GCOV``'s explored ``(cover, cost)`` pairs, cheapest first
    #: (through the reformulation tier, a sequence built on first read).
    ranked: Optional[Sequence] = None
    #: Whether the reformulation tier served the rewrite (None: no
    #: cache, or nothing rewritten).
    reformulation_hit: Optional[bool] = None
    #: ``REF_GCOV`` through the tier: the shape's plan, run with its
    #: slots bound to ``binding`` (``relational`` is not planned).
    plan: Optional[object] = None
    binding: Tuple[Optional[int], ...] = ()
    #: With a cache, a Ref rewrite's scan patterns
    #: (:func:`~repro.cache.cache.footprint_of`), which the answer tier
    #: retires its entry by; None matches every write.
    footprint: Optional[Tuple[Tuple, ...]] = None


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
        """Strategy-specific diagnostics; when the answer went through a
        cache this includes a ``"cache"`` entry with the outcome of this
        call: ``{"answer": "hit"}``, or ``{"answer": "miss",
        "reformulation": ...}`` with the reformulation tier's outcome
        (None when nothing was rewritten).  No counter snapshot: read
        :meth:`~repro.cache.QueryCache.stats` for those."""
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

    :meth:`answer` is :meth:`execute` of :meth:`compile` behind the
    cache's answer tier:

    >>> compiled = answerer.compile(query, Strategy.REF_SCQ)
    >>> compiled.cover, compiled.details["fragments"]
    (Cover({t1}, {t2}, {t3}), 3)
    >>> report = answerer.execute(compiled)
    >>> report.answer == answerer.answer(query, Strategy.REF_SCQ).answer
    True
    """

    def __init__(
        self,
        graph: Union[Graph, TripleStore],
        schema: Optional[Schema] = None,
        backend: BackendProfile = HASH_BACKEND,
        policy: ReformulationPolicy = COMPLETE,
        engine: str = DEFAULT_ENGINE,
        cache: Optional[QueryCache] = None,
        interval_encoding: bool = False,
    ):
        """``graph`` is a :class:`~repro.rdf.graph.Graph`, loaded into a
        fresh store with its constraints and *schema*'s, or a
        :class:`~repro.storage.store.TripleStore`, answered over as-is
        (no copy; ``schema`` and ``interval_encoding`` are refused, as
        the store carries its closed schema and ids).  The store is the
        answerer's only copy of the data.

        ``engine`` selects the evaluation engine for the relational
        strategies: ``"columnar"`` (the default: the vectorized executor
        of :mod:`repro.columnar.engine` over sorted integer-run indexes,
        with per-operator metrics and mid-stream budget enforcement) or
        ``"sqlite"`` (generated SQL on a real RDBMS — answers are
        identical, per the test-suite, but plan metrics are the
        engine's own and not reported).

        ``cache`` (opt-in) amortizes repeated answering: reformulations
        and answers are served from a :class:`~repro.cache.QueryCache`
        and invalidated through the store's write hooks — see
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
        self.encoding = None
        if isinstance(graph, TripleStore):
            if schema is not None or interval_encoding:
                raise OptionError(
                    "a TripleStore carries its own closed schema and ids: "
                    "pass neither schema nor interval_encoding with one"
                )
            store = graph
        else:
            merged = Schema.from_graph(graph)
            if schema is not None:
                for constraint in schema.direct_constraints():
                    merged.add(constraint)
            if interval_encoding:
                # Hierarchy ids must be assigned before any data term
                # grabs one, so the store is built empty, pre-encoded
                # from the merged schema, and only then loaded.
                store = TripleStore()
                self.encoding = preencode_hierarchy(store, merged)
                store.load(graph, merged)
            else:
                store = TripleStore.from_graph(graph, merged)
        self.store = store
        self.schema = store.schema
        self.backend = backend
        self.policy = policy
        self.engine = engine
        self.interval_encoding = interval_encoding
        self._encoding_token = (
            None if self.encoding is None else self.encoding.token()
        )
        self.executor = Executor(self.store, backend)
        self._sql_backend: Optional[SqliteBackend] = None
        self._saturated_sql_backend: Optional[SqliteBackend] = None
        self._saturator = None
        self._saturation_seconds: Optional[float] = None
        self.cache = cache
        self._dataset_token: Optional[int] = None
        if cache is not None:
            # Invalidation hook: every write to the store (the
            # answerer's own insert/delete included) bumps the cache's
            # epochs — schema triples purge reformulations, data
            # triples retire the answers whose footprint they match.
            cache.watch_store(self.store)

    def _evaluate(self, compiled: CompiledQuery, budget=None):
        """Run *compiled*'s relational query on the selected engine (the
        Datalog program for ``DATALOG``); returns (answer,
        execution-or-None).  ``budget`` (columnar engine only;
        :meth:`answer` refuses it on SQLite and for ``DATALOG``) bounds
        the evaluation's intermediate results — see
        :class:`~repro.resilience.budget.ExecutionBudget`."""
        query = compiled.relational
        if compiled.strategy is Strategy.DATALOG:
            return datalog_answer(self.store.data_triples(), self.schema, query), None
        saturated = compiled.strategy is Strategy.SAT
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
        if compiled.plan is not None:
            execution = self.executor.run(compiled.plan, budget, compiled.binding)
            return execution.answer(), execution
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
        was already present.  A schema triple is refused with
        ``ValueError`` before anything changes (see
        :func:`check_data_triple`).
        """
        check_data_triple(triple)
        if not self.store.insert(triple):
            return False
        self._sql_backend = None
        if self._saturator is not None:
            self._saturator.insert(triple)
            self._saturated_sql_backend = None
        return True

    def delete(self, triple) -> bool:
        """Delete one data triple everywhere; returns False if absent.
        A schema triple is refused like :meth:`insert` refuses it."""
        check_data_triple(triple)
        if not self.store.delete(triple):
            return False
        self._sql_backend = None
        if self._saturator is not None:
            self._saturator.delete(triple)
            self._saturated_sql_backend = None
        return True

    # ------------------------------------------------------------------
    # Saturation management

    def saturated_store(self) -> TripleStore:
        """The store over ``G∞``, built (and timed) on first use and
        maintained incrementally by :meth:`insert`/:meth:`delete`.

        It is the saturator's, the only copy of ``G∞``: a fork of the
        base store's runs, same ids, plus the derived triples.  Unless
        the engine is SQLite, the timed build includes the three sorted
        runs: Sat pays its preparation up front, and each later write
        patches the runs instead of leaving a sort to the next read."""
        if self._saturator is None:
            from ..saturation.incremental import IncrementalSaturator

            start = time.perf_counter()
            self._saturator = IncrementalSaturator.over(self.store)
            if self.engine != "sqlite":
                indexes = self._saturator.store.columnar()
                for name in ORDER_PERMUTATIONS:
                    indexes.order(name)
            self._saturation_seconds = time.perf_counter() - start
        return self._saturator.store

    @property
    def saturation_seconds(self) -> Optional[float]:
        """Time spent saturating (None until Sat is first used)."""
        return self._saturation_seconds

    # ------------------------------------------------------------------
    # Caching plumbing

    def _token(self) -> int:
        """This answerer's dataset token, drawn on first use."""
        if self._dataset_token is None:
            self._dataset_token = dataset_token()
        return self._dataset_token

    def _cached_reformulation(self, cache, kind, query, policy, compute, extra=None):
        """Serve *compute*'s result from *cache*'s reformulation tier
        when possible; returns (value, hit) with hit None when *cache*
        is None.  *query* is a CQ or a :class:`~repro.cache.keys.Shape`.
        Goes through the cache's single-flight gate, so concurrent
        misses on one key (answerers sharing a cache across threads)
        run *compute* once, not once per thread."""
        if cache is None:
            return compute(), None
        if self._encoding_token is not None:
            # Interval-encoded reformulations mention encoding-specific
            # ids; never trade them with classic (or differently
            # encoded) entries.
            extra = (extra, self._encoding_token)
        key = cache.reformulation_key(kind, query, self.schema, policy, extra)
        return cache.get_or_compute("reformulation", key, compute)

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
        row_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        budget_fallbacks: int = 3,
        allow_partial: bool = False,
        budget_owner: Optional[str] = None,
        cache: Optional[QueryCache] = None,
    ) -> AnswerReport:
        """Answer *query* with *strategy*: :meth:`execute` of
        :meth:`compile`, served from the cache's answer tier when it can.

        ``cover`` is required by ``REF_JUCQ``, must be a cover of
        *query* (:class:`OptionError` otherwise), and is ignored
        elsewhere.
        Raises :class:`~repro.storage.backends.QueryTooLargeError` when
        the strategy genuinely cannot run — the failure modes the paper
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

        ``cache`` answers through that cache's answer and reformulation
        tiers in place of the answerer's own (the query service passes
        each tenant's partition).
        """
        budget = None
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
            # Built (and so validated) eagerly and once; each fallback
            # cover runs under a fresh copy, with the full allowance.
            # ``budget_owner`` makes overruns attributable to the
            # caller — e.g. the query service's ``tenant/request-id``.
            budget = ExecutionBudget(
                max_rows=row_budget, max_seconds=time_budget, owner=budget_owner
            )

        start = time.perf_counter()
        cache = self.cache if cache is None else cache
        key = None
        if cache is not None:
            key = self.answer_cache_key(cache, query, strategy, cover)
            cached = cache.lookup_answer(key)
            if cached is not None:
                answer, details = cached
                details = dict(details, cache={"answer": "hit"})
                return AnswerReport(
                    strategy, answer, time.perf_counter() - start, details
                )
            epoch = cache.data_epoch  # before computing: a write meanwhile retires it
        compiled = self.compile(query, strategy, cover, cache)
        try:
            report = self.execute(compiled, budget, budget_fallbacks)
        except BudgetExceeded as exc:
            report = self._partial_report(strategy, exc, start, allow_partial)
            if report is None:
                raise
        else:
            report.elapsed_seconds = time.perf_counter() - start
            if key is not None:  # only complete answers are stored
                cache.store_answer(
                    key, (report.answer, dict(report.details)), epoch, compiled.footprint
                )
        if key is not None:
            hit = compiled.reformulation_hit
            report.details["cache"] = {
                "answer": "miss",
                "reformulation": None if hit is None else ("hit" if hit else "miss"),
            }
        return report

    def answer_cache_key(
        self,
        cache: QueryCache,
        query: ConjunctiveQuery,
        strategy: Strategy,
        cover: Optional[Cover] = None,
    ):
        """The key :meth:`answer` stores *query*'s answer under in
        *cache*'s answer tier."""
        return cache.answer_key(
            self._token(),
            query,
            self.schema,
            self.policy,
            strategy.value,
            cover=cover if strategy is Strategy.REF_JUCQ else None,
            extra=(self.engine, self.backend.name, self._encoding_token),
        )

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

    def compile(
        self,
        query: ConjunctiveQuery,
        strategy: Strategy = Strategy.REF_GCOV,
        cover: Optional[Cover] = None,
        cache: Optional[QueryCache] = None,
    ) -> CompiledQuery:
        """Everything answering *query* with *strategy* decides before
        evaluating: the minimisation, the cover search and the rewrite,
        as one :class:`CompiledQuery` for :meth:`execute`.

        ``cover`` is required by ``REF_JUCQ`` — a cover of *query*
        itself, else :class:`OptionError` — and ignored elsewhere;
        ``cache`` is as in :meth:`answer`.  The rewrite goes through the
        cache's reformulation tier, keyed on the minimised query
        (``REF_GCOV``: its covers, keyed on its shape,
        :meth:`_compile_gcov`)."""
        if not isinstance(strategy, Strategy):
            raise ValueError("unknown strategy %r" % (strategy,))
        cache = self.cache if cache is None else cache
        policy = _UCQ_POLICIES.get(strategy) or self.policy
        if strategy is Strategy.REF_JUCQ:
            if cover is None:
                raise OptionError("REF_JUCQ requires a cover")
            if cover.query != query:
                raise OptionError(
                    "the cover covers %r, not the query answered, %r"
                    % (cover.query, query)
                )
            minimised, dropped = query, ()  # its cover names the caller's atoms
        else:
            minimised, dropped = minimize_under_schema(query, self.schema, policy)
        if strategy in (Strategy.SAT, Strategy.DATALOG):
            return CompiledQuery(
                strategy, query, minimised, dropped, minimised,
                MappingProxyType({"minimised": dropped}),
            )
        size = None
        extra = None
        if strategy in _UCQ_POLICIES:
            size, _ = self._cached_reformulation(
                cache,
                "ucq-size",
                minimised,
                policy,
                lambda: ucq_size(minimised, self.schema, policy, self.encoding),
            )
            # A UCQ of n disjuncts over an α-atom query has ~n·α atoms;
            # refuse before materializing what the backend cannot parse.
            projected_atoms = size * len(minimised.atoms)
            if projected_atoms > self.backend.max_query_atoms:
                raise QueryTooLargeError(
                    projected_atoms, self.backend.max_query_atoms, self.backend.name
                )
            kind = "ucq"
        elif strategy is Strategy.REF_SCQ:
            kind = "scq"
        elif strategy is Strategy.REF_JUCQ:
            kind = "jucq-cover"
            extra = None if cache is None else cover_key(cover)
        if strategy is Strategy.REF_GCOV:
            built, hit = self._compile_gcov(minimised, policy, cache)
        else:
            built, hit = self._cached_reformulation(
                cache,
                kind,
                minimised,
                policy,
                lambda: self._reformulate(
                    strategy, minimised, policy, cover, size, cache is not None
                ),
                extra,
            )
        details = dict(built.details, minimised=dropped)
        interval_stats = self._interval_stats(built.relational)
        if interval_stats is not None:
            details["interval"] = interval_stats
        return built._replace(
            strategy=strategy,
            query=query,
            dropped=dropped,
            details=MappingProxyType(details),
            reformulation_hit=hit,
        )

    def _reformulate(self, strategy, query, policy, cover, size, with_footprint):
        """The rewrite of the minimised *query* with one of the five
        cover-free or fixed-cover strategies, as the reformulation tier
        caches it: a :class:`CompiledQuery` of *query* itself, nothing
        dropped, with its footprint if *with_footprint* is set."""
        if strategy in _UCQ_POLICIES:
            relational = reformulate(query, self.schema, policy, encoding=self.encoding)
            return CompiledQuery(
                strategy, query, query, (), relational,
                MappingProxyType({"ucq_disjuncts": size, "policy": policy.name}),
                footprint=footprint_of(relational) if with_footprint else None,
            )
        if strategy is Strategy.REF_SCQ:
            cover = Cover.per_atom(query)  # the SCQ *is* its JUCQ
            relational = jucq_for_cover(cover, self.schema, policy, encoding=self.encoding)
            details = {
                "fragments": relational.fragment_count(),
                "atom_count": relational.atom_count(),
            }
        else:
            relational = jucq_for_cover(cover, self.schema, policy, encoding=self.encoding)
            details = {"cover": repr(cover), "atom_count": relational.atom_count()}
        return CompiledQuery(
            strategy, query, query, (), relational, MappingProxyType(details), cover,
            footprint=footprint_of(relational) if with_footprint else None,
        )

    def _compile_gcov(self, query, policy, cache):
        """``REF_GCOV``'s rewrite of the minimised *query*, as
        :meth:`_reformulate` returns one, and the tier's hit flag.
        *cache* keeps one search per query shape (:func:`shape_of`):
        cover and ranking as fragments over the shape's atom positions,
        mapped onto each query of the shape.  Sound, as any cover
        answers completely; only the cost, priced on the shape's first
        query, can be stale, and it is not re-priced.  The entry's plan
        (:meth:`_define_plan`) spares later queries JUCQ and planning (DESIGN §8)."""
        hit = plan = constants = None
        binding = ()
        if cache is None:
            cover, ranked, search = self._timed_search(query)
        else:
            shape, order = shape_of(query)

            def search_shape():
                position = {atom: index for index, atom in enumerate(order)}
                cover, ranked, search = self._timed_search(query)
                lifted = tuple(
                    tuple(frozenset(position[atom] for atom in f) for f in c.fragments)
                    for c in [cover] + [other for other, _ in ranked]
                )
                # The last item holds the shape's plan once one is defined.
                return lifted, tuple(cost for _, cost in ranked), search, [None]

            # The cover choice is cost-based, hence data-dependent: the
            # entry carries the dataset token so answerers sharing one
            # cache never trade covers tuned to each other's data.
            (lifted, costs, search, shared), hit = self._cached_reformulation(
                cache, "gcov", shape, policy, search_shape,
                (self._token(), self.backend.name),
            )
            cover = _mapped_cover(query, order, lifted[0])
            ranked = _MappedRanking(query, order, lifted[1:], costs)
            if self.engine == "columnar" and self.encoding is None:  # else the JUCQ is read
                constants = lifted_constants(query, order)
                defined = shared[0]
                if defined is not None and all(
                    constant not in defined[2] and isinstance(constant, Literal) is literal
                    for constant, literal in zip(constants, defined[1])
                ):
                    plan, binding = defined[0], tuple(map(self.store.term_id, constants))
        relational = footprint = None
        if plan is None:
            relational = jucq_for_cover(cover, self.schema, policy, encoding=self.encoding)
            if constants is not None and shared[0] is None:
                plan, binding = self._define_plan(shared, query, constants, relational)
            if cache is not None:
                footprint = footprint_of(relational)
        else:
            footprint = bind_footprint(defined[3], constants)
        return CompiledQuery(
            Strategy.REF_GCOV, query, query, (), relational, {"cover": repr(cover), **search},
            cover, ranked, None, plan, binding, footprint,
        ), hit

    def _define_plan(self, shared, query, constants, relational):
        """*relational*'s plan with a slot per constant and the ids binding
        them, or ``(None, ())`` unless each constant is stored, once in
        *query* and not in the schema; shared, with *relational*'s slot
        footprint, unless planned over an absent constant, which a later
        write could store."""
        schema_terms = self.schema.classes() | self.schema.properties()
        terms = [term for atom in query.atoms for term in atom.as_tuple()] + list(query.head)
        binding = tuple(map(self.store.term_id, constants))
        if None in binding or any(
            constant in schema_terms or terms.count(constant) != 1 for constant in constants
        ):
            return None, ()
        slots = {c: k for k, c in enumerate(constants)}
        planner = Planner(self.store, self.backend, slots=slots)
        plan = planner.plan(relational)
        if not planner.absent:
            kinds = tuple(isinstance(c, Literal) for c in constants)
            shared[0] = (plan, kinds, schema_terms, footprint_of(relational, slots))
        return plan, binding

    def _timed_search(self, query: ConjunctiveQuery):
        """One :meth:`_search` of *query*: cover, ranking, diagnostics."""
        start = time.perf_counter()
        search = self._search(query)
        seconds = time.perf_counter() - start
        ranked = _ranked(search)
        return search.cover, ranked, MappingProxyType({
            "estimated_cost": search.cost,
            "runner_up_cost": ranked[1][1] if len(ranked) > 1 else None,
            "explored_covers": search.explored_count,
            "fragments_priced": search.fragments_priced,
            "estimates_computed": search.estimates_computed,
            "search_seconds": seconds,
        })

    def _search(self, query: ConjunctiveQuery):
        """One greedy cover search (GCov) of *query*."""
        return gcov(
            query, self.schema, self.store, self.backend, self.policy,
            encoding=self.encoding,
        )

    def execute(
        self,
        compiled: CompiledQuery,
        budget: Optional[ExecutionBudget] = None,
        budget_fallbacks: int = 0,
    ) -> AnswerReport:
        """Evaluate *compiled* on the selected engine, planning it on the
        way, and report it with the record's details.

        ``budget`` (columnar engine only) bounds the evaluation.  When
        it overruns the JUCQ of a cover strategy, up to
        ``budget_fallbacks`` next-ranked covers are compiled and
        executed in turn, each under a fresh copy of ``budget``.  The
        ranking is the record's own for ``REF_GCOV`` and one search of
        the minimised query otherwise, run on the first overrun only.
        The overrun cover is never retried; exhausting the fallbacks
        re-raises the first overrun."""
        start = time.perf_counter()
        details = dict(compiled.details)
        try:
            answer, execution = self._evaluate(compiled, budget)
        except BudgetExceeded as overrun:
            if compiled.cover is None or budget_fallbacks <= 0:
                raise
            details["budget_exceeded"] = overrun.diagnostics()
            answer, execution = self._fall_back(
                compiled, budget, budget_fallbacks, details, overrun
            )
        if compiled.strategy is Strategy.SAT:
            details = {"saturation_seconds": self._saturation_seconds, **details}
        return AnswerReport(
            compiled.strategy,
            answer,
            time.perf_counter() - start,
            details,
            execution,
        )

    def _fall_back(self, compiled, budget, fallbacks, details, overrun):
        """The budget fallbacks of :meth:`execute`; *details* records
        the cover that answered and the attempts it took."""
        ranked = compiled.ranked
        if ranked is None:
            ranked = _ranked(self._search(compiled.minimised))
        tried = {repr(compiled.cover)}
        failed: list = []
        for candidate, _cost in ranked:
            shown = repr(candidate)
            if shown in tried:
                continue
            tried.add(shown)
            fresh = ExecutionBudget(
                budget.max_rows, budget.max_seconds, budget.clock, budget.owner
            )
            try:
                report = self.execute(
                    self.compile(compiled.minimised, Strategy.REF_JUCQ, candidate),
                    fresh,
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
            return report.answer, report.execution
        raise overrun
