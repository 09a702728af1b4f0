"""SQL generation and a real-RDBMS backend (SQLite).

The paper evaluates reformulations "through performant relational
database management systems": the UCQ/SCQ/JUCQ is translated to SQL
over a triple table and handed to the engine.  This module does the
same against SQLite (in the standard library), making the repository's
central claims checkable on a *real* SQL engine:

* the dictionary-encoded triple table ``t(s, p, o)`` of
  :class:`TripleStore`, with ``(p, s)`` / ``(p, o)`` indexes;
* CQ → ``SELECT``: one self-join of ``t`` per atom, constants in the
  ``WHERE`` clause, shared variables as join predicates, non-literal
  guards as a ``kind`` filter via the dictionary table;
* UCQ → ``UNION`` of the disjunct SELECTs (set semantics for free);
* JUCQ → fragment UCQs as CTEs joined in an outer SELECT.

SQLite even reproduces the paper's parse failure genuinely: its
default compound-SELECT limit is 500 terms, so a union of thousands of
CQs is rejected by the real parser exactly as the 318,096-CQ
reformulation was by the paper's engines (experiment E12).
"""

from __future__ import annotations

import sqlite3
from typing import FrozenSet, List, Tuple

from ..engine.ir import EmptyNode
from ..engine.lowering import fragment_column_map, fragment_leaves, lower
from ..rdf.io import parse_term
from ..query.algebra import (
    ConjunctiveQuery,
    JoinOfUnions,
    UnionQuery,
)
from ..rdf.terms import Literal, Term
from .planner import Planner
from .store import TripleStore

#: SQLite's default SQLITE_MAX_COMPOUND_SELECT.
SQLITE_COMPOUND_SELECT_LIMIT = 500


class SqlGenerationError(ValueError):
    """The query cannot be translated (e.g. constant not in store)."""


def _lowering_planner(store: TripleStore) -> Planner:
    """A syntactic planner for SQL generation: no cost annotation (the
    target RDBMS replans anyway) and no simulated parse limit — the
    real engine's parser is the limit here."""
    from .backends import BackendProfile

    profile = BackendProfile("sql-lowering", max_query_atoms=10**9)
    return Planner(store, profile, annotate=False)


def _cq_to_sql(
    query: ConjunctiveQuery, store: TripleStore
) -> Tuple[str, List[int]]:
    """One SELECT over self-joins of ``t``; returns (sql, parameters).

    Compiled through the plan IR and lowered
    (:mod:`repro.engine.lowering`).  Raises
    :class:`SqlGenerationError` when a constant is absent from the
    dictionary (the CQ matches nothing; callers may skip it).
    """
    plan = _lowering_planner(store).plan(query)
    if isinstance(plan, EmptyNode):
        raise SqlGenerationError(
            "a constant of %r is not in the store" % (query,)
        )
    return lower(plan)


def ucq_to_sql(
    union: UnionQuery, store: TripleStore
) -> Tuple[str, List[int]]:
    """The UNION of the disjunct SELECTs (disjuncts whose constants are
    absent from the store lower to empty plans and are dropped)."""
    return lower(_lowering_planner(store).plan(union))


def jucq_to_sql(
    jucq: JoinOfUnions, store: TripleStore
) -> Tuple[str, List[int]]:
    """Fragment UCQs as CTEs, joined on shared variables, projected."""
    return lower(_lowering_planner(store).plan(jucq))


class SqliteBackend:
    """A genuine RDBMS evaluating this library's reformulations.

    Loads a :class:`TripleStore` into an in-memory SQLite database —
    triple table plus a dictionary table carrying each id's kind — and
    runs the generated SQL.  Answers must (and, per the test-suite, do)
    match the built-in executor's row for row.
    """

    def __init__(self, store: TripleStore):
        self.store = store
        self.connection = sqlite3.connect(":memory:")
        #: High-water mark of dictionary ids already synced to ``dict``
        #: (COUNT(*) would drift: hole ids — reserved by the hierarchy
        #: encoder, not yet assigned a term — get no row).
        self._synced_terms = 0
        self._load()

    def _dict_rows(self, start: int, stop: int) -> List[Tuple[int, str]]:
        dictionary = self.store.dictionary
        rows = []
        for term_id in range(start, stop):
            if dictionary.is_hole(term_id):
                continue
            term = dictionary.decode(term_id)
            kind = "literal" if isinstance(term, Literal) else "resource"
            rows.append((term_id, kind))
        return rows

    def _load(self) -> None:
        cursor = self.connection.cursor()
        cursor.execute("CREATE TABLE t (s INTEGER, p INTEGER, o INTEGER)")
        cursor.execute("CREATE TABLE dict (id INTEGER PRIMARY KEY, kind TEXT)")
        cursor.executemany(
            "INSERT INTO t VALUES (?, ?, ?)", list(self.store.scan_all())
        )
        dictionary = self.store.dictionary
        cursor.executemany(
            "INSERT INTO dict VALUES (?, ?)",
            self._dict_rows(0, len(dictionary)),
        )
        self._synced_terms = len(dictionary)
        cursor.execute("CREATE INDEX idx_ps ON t (p, s)")
        cursor.execute("CREATE INDEX idx_po ON t (p, o)")
        # Without ANALYZE, SQLite's planner guesses and routinely scans
        # a whole property extent through the (p, s) index where the
        # (p, o) lookup is selective — 100x slowdowns on the UCQ
        # disjuncts.  A real deployment would ANALYZE too.
        cursor.execute("ANALYZE")
        self.connection.commit()

    def _refresh_dictionary(self) -> None:
        """Sync dictionary rows added since load."""
        dictionary = self.store.dictionary
        if len(dictionary) <= self._synced_terms:
            return
        cursor = self.connection.cursor()
        cursor.executemany(
            "INSERT INTO dict VALUES (?, ?)",
            self._dict_rows(self._synced_terms, len(dictionary)),
        )
        self._synced_terms = len(dictionary)
        self.connection.commit()

    # ------------------------------------------------------------------

    def to_sql(self, query) -> Tuple[str, List[int]]:
        """The SQL text + parameters for any supported query form."""
        if isinstance(query, ConjunctiveQuery):
            return _cq_to_sql(query, store=self.store)
        if isinstance(query, UnionQuery):
            return ucq_to_sql(query, self.store)
        if isinstance(query, JoinOfUnions):
            return jucq_to_sql(query, self.store)
        raise TypeError("cannot translate %r" % (query,))

    def run(self, query) -> FrozenSet[Tuple[Term, ...]]:
        """Translate, execute on SQLite, decode.

        JUCQs are executed the way the authors' EDBT'15 system runs
        them on its RDBMSs: each fragment UCQ is materialized into an
        indexed temporary table, then the fragments are joined — a
        single CTE statement leaves the engine joining unindexed
        subquery results, which scales badly (measured in E12).

        Raises ``sqlite3.OperationalError`` when the engine's own
        limits reject the statement (e.g. >500 compound SELECT terms) —
        the real-parser analogue of the paper's failure.
        """
        if isinstance(query, JoinOfUnions):
            rows = self._run_jucq_materialized(query)
        else:
            sql, parameters = self.to_sql(query)
            self._refresh_dictionary()
            rows = self.connection.execute(sql, parameters).fetchall()
        if query.arity == 0:
            return frozenset({()} if rows else set())
        decode = self.store.dictionary.decode

        def as_term(value):
            # ("term", Term) projection constants travel as N3 text
            # (the dictionary never stored them); everything else is a
            # term id.
            if isinstance(value, str):
                return parse_term(value)
            return decode(value)

        return frozenset(
            tuple(as_term(value) for value in row) for row in rows
        )

    def _run_jucq_materialized(self, jucq: JoinOfUnions) -> List[Tuple[int, ...]]:
        """Fragment-by-fragment materialization with join-column
        indexes (the paper's JUCQ execution strategy), then one join.

        Works on the compiled plan IR: the JUCQ plan is a distinct over
        a projection over a join chain whose leaves are the fragment
        union plans — each leaf is lowered to SQL and materialized into
        an indexed temp table, then the outer projection runs as one
        join statement.
        """
        plan = _lowering_planner(self.store).plan(jucq)
        project = plan.child  # DistinctNode(ProjectNode(...))
        fragments = fragment_leaves(project.child)
        self._refresh_dictionary()
        cursor = self.connection.cursor()
        table_names: List[str] = []
        try:
            for index, fragment in enumerate(fragments):
                sql, parameters = lower(fragment)
                name = "frag%d" % index
                table_names.append(name)
                cursor.execute(
                    "CREATE TEMP TABLE %s AS %s" % (name, sql), parameters
                )
            column_of, joins = fragment_column_map(
                fragments, lambda i: "frag%d" % i
            )
            for name, position, _condition in joins:
                cursor.execute(
                    "CREATE INDEX idx_%s_c%d ON %s (c%d)"
                    % (name, position, name, position)
                )

            select_items: List[str] = []
            outer_parameters: List = []
            for position, (kind, value) in enumerate(project.specs):
                if kind == "var":
                    select_items.append(
                        "%s AS c%d" % (column_of[value], position)
                    )
                elif kind == "term":
                    select_items.append("? AS c%d" % position)
                    outer_parameters.append(value.n3())
                else:
                    select_items.append("%d AS c%d" % (value, position))
            if not select_items:
                select_items.append("1 AS c0")
            sql = "SELECT DISTINCT %s FROM %s" % (
                ", ".join(select_items),
                ", ".join(table_names),
            )
            conditions = [condition for _, _, condition in joins]
            if conditions:
                sql += " WHERE " + " AND ".join(conditions)
            return cursor.execute(sql, outer_parameters).fetchall()
        finally:
            for name in table_names:
                cursor.execute("DROP TABLE IF EXISTS %s" % name)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
