"""Unit tests for the cache subsystem: LRU bounds, key
canonicalization, epoch invalidation, and the invalidation hooks'
schema/data granularity."""

import pytest

from repro.cache import LRUCache, QueryCache, cover_key, policy_key, query_key
from repro.core import QueryAnswerer, Strategy
from repro.datasets import books_dataset
from repro.query import ConjunctiveQuery, Cover, TriplePattern, Variable
from repro.rdf import Graph, Literal, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple, URI
from repro.rdf.namespaces import XSD_NS
from repro.reformulation import COMPLETE, VIRTUOSO_STYLE, ReformulationPolicy
from repro.saturation import IncrementalSaturator
from repro.schema import Constraint, Schema
from repro.storage import TripleStore

EX = Namespace("http://example.org/")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def books_data_triple():
    """A data triple of the books dataset, read from its model graph
    (the answerer keeps no graph of its own)."""
    return min(books_dataset()[0].data_triples())


class TestLRUCache:
    def test_bound_is_enforced(self):
        cache = LRUCache(capacity=3)
        for index in range(10):
            cache.put(index, index)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_least_recently_used_goes_first(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not grow
        cache.put("c", 3)  # evicts "b"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_invalidate_counts_dropped_entries(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 2
        assert cache.stats.evictions == 0  # distinct counters

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestKeyCanonicalization:
    def test_alpha_equivalent_queries_share_a_key(self):
        a = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, y), TriplePattern(y, RDF_TYPE, EX.C)]
        )
        renamed = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, z), TriplePattern(z, RDF_TYPE, EX.C)]
        )
        reordered = ConjunctiveQuery(
            [x], [TriplePattern(y, RDF_TYPE, EX.C), TriplePattern(x, EX.p, y)]
        )
        assert query_key(a) == query_key(renamed) == query_key(reordered)

    def test_different_queries_differ(self):
        a = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        b = ConjunctiveQuery([x], [TriplePattern(x, EX.q, y)])
        head_differs = ConjunctiveQuery([y], [TriplePattern(x, EX.p, y)])
        assert query_key(a) != query_key(b)
        assert query_key(a) != query_key(head_differs)

    def test_policy_key_is_semantic_not_nominal(self):
        renamed = ReformulationPolicy(name="renamed-complete")
        assert policy_key(renamed) == policy_key(COMPLETE)
        assert policy_key(VIRTUOSO_STYLE) != policy_key(COMPLETE)

    def test_cover_key_ignores_variable_names(self):
        def make(var):
            query = ConjunctiveQuery(
                [x], [TriplePattern(x, EX.p, var), TriplePattern(var, EX.q, x)]
            )
            return Cover(query, [[0], [0, 1]])

        assert cover_key(make(y)) == cover_key(make(z))

    def test_cover_key_separates_fragmentations(self):
        query = ConjunctiveQuery(
            [x], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, x)]
        )
        assert cover_key(Cover(query, [[0], [1]])) != cover_key(
            Cover(query, [[0, 1]])
        )

    def test_ucq_key_ignores_disjunct_order(self):
        a = ConjunctiveQuery([x], [TriplePattern(x, EX.p, y)])
        b = ConjunctiveQuery([x], [TriplePattern(x, EX.q, y)])
        from repro.query import UnionQuery

        assert query_key(UnionQuery([a, b])) == query_key(UnionQuery([b, a]))

    def test_schema_fingerprint_tracks_constraints(self):
        schema = Schema([Constraint.subclass(EX.B, EX.A)])
        original = schema.fingerprint()
        assert original == schema.fingerprint()  # stable
        schema.add(Constraint.subclass(EX.C, EX.A))
        changed = schema.fingerprint()
        assert changed != original
        schema.remove(Constraint.subclass(EX.C, EX.A))
        assert schema.fingerprint() == original  # content-derived

    def test_fingerprint_independent_of_insertion_order(self):
        first = Schema([Constraint.subclass(EX.B, EX.A),
                        Constraint.domain(EX.p, EX.A)])
        second = Schema([Constraint.domain(EX.p, EX.A),
                         Constraint.subclass(EX.B, EX.A)])
        assert first.fingerprint() == second.fingerprint()


class TestLiteralDatatypeKeys:
    """``"1"`` and ``"1"^^xsd:integer`` are distinct values: their
    queries key apart, so one cached answerer never serves one query's
    rows for the other."""

    INTEGER = XSD_NS.term("integer")

    def _queries(self):
        return [
            ConjunctiveQuery([x], [TriplePattern(x, EX.p, literal)])
            for literal in (Literal("1"), Literal("1", self.INTEGER))
        ]

    def test_canonical_keys_differ(self):
        plain, typed = self._queries()
        assert plain.canonical() != typed.canonical()
        assert query_key(plain) != query_key(typed)

    @pytest.mark.parametrize("strategy", [Strategy.REF_GCOV, Strategy.SAT])
    def test_cached_answers_differ(self, strategy):
        graph = Graph([
            Triple(EX.a, EX.p, Literal("1")),
            Triple(EX.b, EX.p, Literal("1", self.INTEGER)),
        ])
        answerer = QueryAnswerer(graph, Schema(), cache=QueryCache())
        plain, typed = self._queries()
        assert answerer.answer(plain, strategy).answer == {(EX.a,)}
        typed_report = answerer.answer(typed, strategy)
        assert typed_report.details["cache"]["answer"] == "miss"
        assert typed_report.answer == {(EX.b,)}


class TestEpochInvalidation:
    def _answerer(self):
        graph, schema, query = books_dataset()
        cache = QueryCache()
        return QueryAnswerer(graph, schema, cache=cache), query, cache

    def test_warm_answer_is_a_hit(self):
        answerer, query, cache = self._answerer()
        cold = answerer.answer(query, Strategy.REF_GCOV)
        warm = answerer.answer(query, Strategy.REF_GCOV)
        assert cold.details["cache"]["answer"] == "miss"
        assert warm.details["cache"]["answer"] == "hit"
        assert warm.answer == cold.answer

    def test_alpha_equivalent_query_hits(self):
        graph, schema, _ = books_dataset()
        cache = QueryCache()
        answerer = QueryAnswerer(graph, schema, cache=cache)
        AUTHOR = Namespace("http://example.org/books/").hasAuthor
        first = ConjunctiveQuery([x], [TriplePattern(y, AUTHOR, x)])
        renamed = ConjunctiveQuery([x], [TriplePattern(z, AUTHOR, x)])
        cold = answerer.answer(first, Strategy.REF_UCQ)
        warm = answerer.answer(renamed, Strategy.REF_UCQ)
        assert warm.details["cache"]["answer"] == "hit"
        assert warm.answer == cold.answer

    def test_insert_bumps_epoch_and_retires_answers(self):
        answerer, query, cache = self._answerer()
        answerer.answer(query, Strategy.REF_GCOV)
        epoch = cache.data_epoch
        # A triple the query's ``?x1 hasAuthor ?x2`` reads (writtenBy
        # is a subproperty of hasAuthor).
        assert answerer.insert(
            Triple(EX.fresh, Namespace("http://example.org/books/").writtenBy, EX.someone)
        )
        assert cache.data_epoch == epoch + 1
        after = answerer.answer(query, Strategy.REF_GCOV)
        assert after.details["cache"]["answer"] == "miss"
        # ... but the reformulation survived the data change.
        assert after.details["cache"]["reformulation"] == "hit"

    @pytest.mark.parametrize(
        "strategy", [Strategy.REF_GCOV, Strategy.REF_UCQ, Strategy.REF_SCQ]
    )
    def test_a_write_no_scan_pattern_matches_keeps_answers(self, strategy):
        answerer, query, cache = self._answerer()
        cold = answerer.answer(query, strategy)
        # No atom of the query's reformulation reads rdf:type.
        assert answerer.insert(
            Triple(EX.fresh, RDF_TYPE, Namespace("http://example.org/books/").Book)
        )
        assert cache.data_epoch == 1
        warm = answerer.answer(query, strategy)
        assert warm.details["cache"]["answer"] == "hit"
        assert warm.answer == cold.answer
        assert cache.stats()["retired_lookups"] == 0

    def test_a_sat_entry_retires_on_any_write(self):
        answerer, query, cache = self._answerer()
        answerer.answer(query, Strategy.SAT)
        answerer.answer(query, Strategy.REF_GCOV)
        assert answerer.insert(Triple(EX.a, EX.unread, EX.b))
        assert answerer.answer(query, Strategy.SAT).details["cache"]["answer"] == "miss"
        assert answerer.answer(query, Strategy.REF_GCOV).details["cache"]["answer"] == "hit"
        assert cache.stats()["retired_lookups"] == 1

    def test_delete_bumps_epoch(self):
        answerer, query, cache = self._answerer()
        triple = books_data_triple()
        answerer.answer(query, Strategy.SAT)
        epoch = cache.data_epoch
        assert answerer.delete(triple)
        assert cache.data_epoch == epoch + 1
        assert (
            answerer.answer(query, Strategy.SAT).details["cache"]["answer"]
            == "miss"
        )

    def test_noop_mutations_do_not_invalidate(self):
        answerer, query, cache = self._answerer()
        answerer.answer(query, Strategy.REF_GCOV)
        epoch = cache.data_epoch
        triple = books_data_triple()
        assert not answerer.insert(triple)  # already present
        assert not answerer.delete(
            Triple(EX.absent, RDF_TYPE, EX.Nothing)
        )
        assert cache.data_epoch == epoch
        assert (
            answerer.answer(query, Strategy.REF_GCOV).details["cache"]["answer"]
            == "hit"
        )

    def test_answers_computed_after_update_reflect_it(self):
        graph, schema, query = books_dataset()
        cache = QueryCache()
        answerer = QueryAnswerer(graph, schema, cache=cache)
        baseline = answerer.answer(query, Strategy.REF_UCQ).answer
        from repro.rdf import Literal

        BOOKS = Namespace("http://example.org/books/")
        answerer.insert(Triple(BOOKS.doi9, BOOKS.hasAuthor, BOOKS.author9))
        answerer.insert(Triple(BOOKS.author9, BOOKS.hasName, Literal("A. New")))
        answerer.insert(Triple(BOOKS.doi9, BOOKS.publishedIn, Literal("1949")))
        updated = answerer.answer(query, Strategy.REF_UCQ).answer
        assert updated != baseline
        assert answerer.answer(query, Strategy.REF_UCQ).answer == updated


class TestFootprints:
    """The answer tier's retirement rule, on the cache alone."""

    KEY = ("answer", "k")

    def _cache(self, footprint, data_epoch=None):
        cache = QueryCache()
        cache.store_answer(self.KEY, "value", data_epoch, footprint)
        return cache

    def test_a_write_retires_exactly_the_entries_it_matches(self):
        cache = self._cache(((None, EX.p, EX.b), (EX.a, EX.q, None)))
        for unmatched in [
            Triple(EX.a, EX.p, EX.c),  # other object
            Triple(EX.c, EX.q, EX.b),  # other subject
            Triple(EX.a, EX.r, EX.b),  # other property
        ]:
            cache.note_data_change(unmatched)
            assert cache.lookup_answer(self.KEY) == "value"
        cache.note_data_change(Triple(EX.z, EX.p, EX.b))
        assert cache.lookup_answer(self.KEY) is None
        assert cache.stats()["retired_lookups"] == 1
        assert cache.data_invalidations == 4

    def test_a_variable_property_pattern_matches_every_property(self):
        cache = self._cache(((None, None, Literal("1949")),))
        cache.note_data_change(Triple(EX.a, EX.p, Literal("1950")))
        assert cache.holds_answer(self.KEY)
        cache.note_data_change(Triple(EX.a, EX.q, Literal("1949")))
        assert not cache.holds_answer(self.KEY)

    def test_a_literal_matches_only_its_own_datatype(self):
        typed = Literal("1", URI("http://www.w3.org/2001/XMLSchema#integer"))
        cache = self._cache(((None, EX.p, Literal("1")),))
        cache.note_data_change(Triple(EX.a, EX.p, typed))
        assert cache.holds_answer(self.KEY)
        cache.note_data_change(Triple(EX.a, EX.p, Literal("1")))
        assert not cache.holds_answer(self.KEY)

    def test_an_entry_without_footprint_retires_on_any_write(self):
        cache = self._cache(None)
        cache.note_data_change(Triple(EX.a, EX.unread, EX.b))
        assert cache.lookup_answer(self.KEY) is None

    def test_a_write_during_the_computation_retires_the_entry(self):
        cache = QueryCache()
        epoch = cache.data_epoch  # read before computing
        cache.note_data_change(Triple(EX.a, EX.p, EX.b))
        cache.store_answer(self.KEY, "value", epoch, ((None, EX.p, None),))
        assert cache.lookup_answer(self.KEY) is None

    def test_a_data_change_without_a_triple_retires_everything(self):
        cache = self._cache(((None, EX.p, None),))
        cache.note_data_change()
        assert cache.lookup_answer(self.KEY) is None
        cache.store_answer(self.KEY, "fresh", footprint=((None, EX.p, None),))
        assert cache.lookup_answer(self.KEY) == "fresh"

    def test_restore_epochs_retires_everything(self):
        cache = self._cache(((None, EX.p, None),))
        cache.restore_epochs(3, 0)
        assert cache.lookup_answer(self.KEY) is None
        assert cache.data_epoch == 3

    def test_a_schema_write_purges(self):
        cache = self._cache(((None, EX.p, None),))
        store = TripleStore()
        cache.watch_store(store)
        assert store.insert(Triple(EX.B, RDFS_SUBCLASSOF, EX.A))
        assert len(cache.answers) == 0

    def test_a_full_write_map_retires_everything(self, monkeypatch):
        from repro.cache import cache as module

        monkeypatch.setattr(module, "_WRITE_KEYS", 12)
        cache = self._cache(((None, EX.p, None),))
        # 8 keys, then 4 more (the second shares the first's property
        # and object); the third write finds 12 and clears the map.
        for index in range(3):
            cache.note_data_change(Triple(EX["s%d" % index], EX.q, EX.b))
            assert cache.holds_answer(self.KEY) is (index < 2)
        assert len(cache._written) == 0

    def test_a_stale_lookup_reads_the_age(self):
        cache = self._cache(((None, EX.p, None),))
        cache.note_data_change(Triple(EX.a, EX.q, EX.b))
        cache.note_data_change(Triple(EX.a, EX.p, EX.b))
        assert cache.lookup_stale(self.KEY, 1) is None
        assert cache.lookup_stale(self.KEY, 2) == ("value", 2)


class TestInvalidationGranularity:
    def test_schema_triple_purges_reformulations(self):
        cache = QueryCache()
        store = TripleStore.from_graph(Graph([Triple(EX.a, RDF_TYPE, EX.B)]))
        cache.watch_store(store)
        cache.store_reformulation(("k",), "value")
        cache.store_answer(("a",), "value")
        assert store.insert(Triple(EX.B, RDFS_SUBCLASSOF, EX.A))
        assert cache.schema_invalidations == 1
        assert len(cache.reformulations) == 0
        assert len(cache.answers) == 0

    def test_data_triple_keeps_reformulations(self):
        cache = QueryCache()
        store = TripleStore()
        cache.watch_store(store)
        cache.store_reformulation(("k",), "value")
        assert store.insert(Triple(EX.a, RDF_TYPE, EX.B))
        assert cache.data_invalidations == 1
        assert cache.schema_invalidations == 0
        assert len(cache.reformulations) == 1  # still there
        assert cache.data_epoch == 1  # answers keyed out lazily

    def test_store_hook(self):
        cache = QueryCache()
        store = TripleStore()
        cache.watch_store(store)
        store.insert(Triple(EX.a, EX.p, EX.b))
        assert cache.data_epoch == 1
        store.insert(Triple(EX.a, EX.p, EX.b))  # duplicate: no event
        assert cache.data_epoch == 1
        store.delete(Triple(EX.a, EX.p, EX.b))
        assert cache.data_epoch == 2
        store.insert(Triple(EX.B, RDFS_SUBCLASSOF, EX.A))
        assert cache.schema_epoch == 1

    def test_saturator_hook_distinguishes_constraint_changes(self):
        cache = QueryCache()
        saturator = IncrementalSaturator(
            Schema([Constraint.subclass(EX.Manager, EX.Employee)])
        )
        cache.watch_saturator(saturator)
        saturator.insert(Triple(EX.ann, RDF_TYPE, EX.Manager))
        assert cache.data_epoch == 1
        assert cache.schema_epoch == 0
        saturator.add_constraint(Constraint.subclass(EX.Employee, EX.Person))
        assert cache.schema_epoch == 1
        # Resaturation's internal re-inserts are not data events.
        assert cache.data_epoch == 1
        saturator.delete(Triple(EX.ann, RDF_TYPE, EX.Manager))
        assert cache.data_epoch == 2

    def test_shared_cache_keeps_datasets_apart(self):
        cache = QueryCache()
        graph_a, schema, query = books_dataset()
        graph_b = Graph(graph_a)  # same triples minus one author link
        removed = next(iter(graph_b.match(property=Namespace(
            "http://example.org/books/").writtenBy)))
        graph_b.discard(removed)
        first = QueryAnswerer(graph_a, schema, cache=cache)
        second = QueryAnswerer(graph_b, schema, cache=cache)
        answer_a = first.answer(query, Strategy.REF_UCQ)
        answer_b = second.answer(query, Strategy.REF_UCQ)
        # Same query + schema, different datasets: both must miss the
        # answer tier and disagree, while sharing the reformulation.
        assert answer_b.details["cache"]["answer"] == "miss"
        assert answer_b.details["cache"]["reformulation"] == "hit"
        assert answer_a.answer != answer_b.answer

    def test_stats_snapshot_shape(self):
        cache = QueryCache(reformulation_capacity=7, answer_capacity=9)
        stats = cache.stats()
        assert stats["reformulation"]["capacity"] == 7
        assert stats["answer"]["capacity"] == 9
        for tier in ("reformulation", "answer"):
            for counter in ("hits", "misses", "evictions", "invalidations"):
                assert stats[tier][counter] == 0


class TestExecutionResultMemoization:
    def test_answer_is_memoized(self):
        from repro.storage import Executor

        graph, schema, query = books_dataset()
        store = TripleStore.from_graph(graph, schema)
        execution = Executor(store).run(
            ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, y)])
        )
        first = execution.answer()
        assert execution.answer() is first  # same frozenset object

    def test_memoized_answer_matches_rows(self):
        from repro.storage import Executor

        graph, schema, _ = books_dataset()
        store = TripleStore.from_graph(graph, schema)
        execution = Executor(store).run(
            ConjunctiveQuery([x], [TriplePattern(x, RDF_TYPE, y)])
        )
        assert len(execution.answer()) <= execution.row_count
