"""Hierarchy-aware interval encoding (the LiteMat-style layout).

Three layers of guarantees:

* **Layout**: DFS-preorder interval labeling covers exactly the nodes
  whose entailed subtree fills a contiguous id region (single-parent
  chains and trees), and declines multi-parent extras, cycle members,
  and class/property homonyms — coverage is an optimization, never a
  correctness requirement.
* **Growth**: a new leaf lands in a spare hole while the slack lasts
  (``extend``); exhausted slack refuses, and the re-encode path
  (``rebuild_with_hierarchy``) restores full coverage.
* **Semantics** (hypothesis): under random schema DAGs and interleaved
  hierarchy/data mutations, matching by interval equals the explicit
  transitive-closure union.

Plus the query-side no-mutation rule: answering — including pricing
covers and planning constants the data never stored — must not grow
the store's dictionary; and Example 1's counts, where the encoding
turns a UCQ every backend refuses into one that answers.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryAnswerer, Strategy
from repro.datasets import example1_query, generate_lubm
from repro.encoding import preencode_hierarchy, rebuild_with_hierarchy
from repro.encoding.hierarchy import detect_encoding
from repro.query import ConjunctiveQuery, Cover, TriplePattern, Variable
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.reformulation import ReformulationPolicy, ucq_size
from repro.schema import Constraint, Schema
from repro.core.answerer import ANSWERER_ENGINES
from repro.storage import QueryTooLargeError, TripleStore
from repro.storage.executor import Executor

EX = Namespace("http://example.org/")
x, y = Variable("x"), Variable("y")


def _tree_schema():
    """A 3-level class tree plus a 2-level property chain."""
    return Schema(
        [
            Constraint.subclass(EX.B1, EX.A),
            Constraint.subclass(EX.B2, EX.A),
            Constraint.subclass(EX.C1, EX.B1),
            Constraint.subclass(EX.C2, EX.B1),
            Constraint.subproperty(EX.q1, EX.p),
            Constraint.subproperty(EX.q2, EX.p),
        ]
    )


class TestLayout:
    def test_tree_is_fully_covered(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema)
        for klass in (EX.A, EX.B1):
            interval = encoding.type_interval(klass)
            assert interval is not None, klass
            members = {klass} | schema.subclasses(klass)
            ids = {store.dictionary.lookup(m) for m in members}
            assert all(interval.lo <= i < interval.hi for i in ids)
            # Every non-hole id inside the window is a member.
            inside = {
                i
                for i in range(interval.lo, interval.hi)
                if not store.dictionary.is_hole(i)
            }
            assert inside == ids
        assert encoding.property_interval(EX.p) is not None
        # Leaves have no union to collapse, hence no interval.
        assert encoding.type_interval(EX.C1) is None
        assert encoding.property_interval(EX.q1) is None

    def test_branches_count_the_collapsed_union(self):
        schema = _tree_schema()
        encoding = preencode_hierarchy(TripleStore(), schema)
        assert encoding.type_interval(EX.A).branches == 5  # A,B1,B2,C1,C2
        assert encoding.type_interval(EX.B1).branches == 3
        assert encoding.property_interval(EX.p).branches == 3

    def test_multi_parent_extra_parent_uncovered(self):
        # D has two parents; it lives in one region, so the other
        # parent cannot be contiguous — and must come out uncovered.
        schema = Schema(
            [
                Constraint.subclass(EX.D, EX.P1),
                Constraint.subclass(EX.D, EX.P2),
                Constraint.subclass(EX.E, EX.P2),
            ]
        )
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema)
        covered = [
            k for k in (EX.P1, EX.P2) if encoding.type_interval(k) is not None
        ]
        uncovered = [
            k for k in (EX.P1, EX.P2) if encoding.type_interval(k) is None
        ]
        assert len(covered) == 1 and len(uncovered) == 1
        # The covered parent's window really contains D.
        interval = encoding.type_interval(covered[0])
        assert interval.lo <= store.dictionary.lookup(EX.D) < interval.hi

    def test_cycle_members_uncovered(self):
        schema = Schema(
            [
                Constraint.subclass(EX.X, EX.Y),
                Constraint.subclass(EX.Y, EX.X),
            ]
        )
        encoding = preencode_hierarchy(TripleStore(), schema)
        assert encoding.type_interval(EX.X) is None
        assert encoding.type_interval(EX.Y) is None

    def test_detect_agrees_with_preencode(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema)
        detected = detect_encoding(store.dictionary, schema)
        for node, interval in encoding.class_intervals.items():
            other = detected.type_interval(node)
            assert other is not None
            # Same membership semantics: identical non-hole content.
            def content(iv):
                return {
                    i
                    for i in range(iv.lo, iv.hi)
                    if not store.dictionary.is_hole(i)
                }

            assert content(other) == content(interval)

    def test_token_distinguishes_versions(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema)
        before = encoding.token()
        schema.add(Constraint.subclass(EX.New, EX.B1))
        assert encoding.extend(store.dictionary, schema, EX.New, EX.B1)
        assert encoding.token() != before


class TestExtendAndRebuild:
    def test_extend_lands_in_ancestor_intervals(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema)
        schema.add(Constraint.subclass(EX.C3, EX.B1))
        assert encoding.extend(store.dictionary, schema, EX.C3, EX.B1)
        new_id = store.dictionary.lookup(EX.C3)
        assert new_id is not None
        for ancestor in (EX.B1, EX.A):
            interval = encoding.type_interval(ancestor)
            assert interval.lo <= new_id < interval.hi

    def test_extend_refuses_when_slack_exhausted(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema, spare=1)
        schema.add(Constraint.subclass(EX.C3, EX.B1))
        assert encoding.extend(store.dictionary, schema, EX.C3, EX.B1)
        schema.add(Constraint.subclass(EX.C4, EX.B1))
        assert not encoding.extend(store.dictionary, schema, EX.C4, EX.B1)

    def test_extend_refuses_non_leaf_and_multi_parent(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema)
        # Multi-parent child: ancestors exceed one parent's chain.
        schema.add(Constraint.subclass(EX.M, EX.B1))
        schema.add(Constraint.subclass(EX.M, EX.B2))
        assert not encoding.extend(store.dictionary, schema, EX.M, EX.B1)

    def test_rebuild_restores_coverage_and_triples(self):
        schema = _tree_schema()
        store = TripleStore()
        encoding = preencode_hierarchy(store, schema, spare=0)
        graph = Graph()
        graph.add(Triple(EX.i1, RDF_TYPE, EX.C1))
        graph.add(Triple(EX.i1, EX.q1, EX.i2))
        store.load(graph, schema)
        schema.add(Constraint.subclass(EX.C3, EX.B1))
        assert not encoding.extend(store.dictionary, schema, EX.C3, EX.B1)
        rebuilt, fresh = rebuild_with_hierarchy(store, schema)
        assert set(rebuilt.to_graph().data_triples()) == set(
            store.to_graph().data_triples()
        )
        interval = fresh.type_interval(EX.B1)
        assert interval is not None
        assert (
            interval.lo <= rebuilt.dictionary.lookup(EX.C3) < interval.hi
        )


def _type_members(store, schema, klass):
    members = {klass} | schema.subclasses(klass)
    return frozenset(
        (t.subject,)
        for t in store.to_graph().data_triples()
        if t.property == RDF_TYPE and t.object in members
    )


def _edge_members(store, schema, prop):
    members = {prop} | schema.subproperties(prop)
    return frozenset(
        (t.subject, t.object)
        for t in store.to_graph().data_triples()
        if t.property in members
    )


def _assert_intervals_match_closure(store, schema, encoding):
    """Every covered node's interval atom matches exactly its explicit
    transitive-closure union (SQLite's interval legs are in
    ``test_engine_equivalence.py``)."""
    executor = Executor(store)
    for klass, interval in encoding.class_intervals.items():
        query = ConjunctiveQuery(
            [x], [TriplePattern(x, RDF_TYPE, interval)]
        )
        expected = _type_members(store, schema, klass)
        assert executor.run(query).answer() == expected, klass
    for prop, interval in encoding.property_intervals.items():
        query = ConjunctiveQuery([x, y], [TriplePattern(x, interval, y)])
        expected = _edge_members(store, schema, prop)
        assert executor.run(query).answer() == expected, prop


class TestIntervalSemantics:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_dag_and_mutations_match_closure(self, data):
        n_classes = data.draw(st.integers(2, 7), label="classes")
        classes = [EX.term("K%d" % i) for i in range(n_classes)]
        n_props = data.draw(st.integers(1, 4), label="properties")
        props = [EX.term("r%d" % i) for i in range(n_props)]
        schema = Schema()
        for i in range(1, n_classes):
            for parent in data.draw(
                st.sets(st.sampled_from(classes[:i]), max_size=2),
                label="class parents",
            ):
                schema.add(Constraint.subclass(classes[i], parent))
        for i in range(1, n_props):
            for parent in data.draw(
                st.sets(st.sampled_from(props[:i]), max_size=2),
                label="property parents",
            ):
                schema.add(Constraint.subproperty(props[i], parent))

        store = TripleStore()
        encoding = preencode_hierarchy(store, schema, spare=1)
        instances = [EX.term("inst%d" % i) for i in range(5)]
        graph = Graph()
        for _ in range(data.draw(st.integers(0, 12), label="triples")):
            subject = data.draw(st.sampled_from(instances))
            if data.draw(st.booleans()):
                graph.add(
                    Triple(
                        subject, RDF_TYPE, data.draw(st.sampled_from(classes))
                    )
                )
            else:
                graph.add(
                    Triple(
                        subject,
                        data.draw(st.sampled_from(props)),
                        data.draw(st.sampled_from(instances)),
                    )
                )
        store.load(graph, schema)
        _assert_intervals_match_closure(store, schema, encoding)

        # Interleaved mutations: grow the hierarchy (spare slack first,
        # re-encode when it refuses) and the data, re-checking closure
        # equality after every step.
        for step in range(data.draw(st.integers(1, 4), label="mutations")):
            if data.draw(st.booleans(), label="mutate hierarchy"):
                new = EX.term("grown%d" % step)
                parent = data.draw(st.sampled_from(classes), label="parent")
                schema.add(Constraint.subclass(new, parent))
                classes.append(new)
                if not encoding.extend(
                    store.dictionary, schema, new, parent
                ):
                    store, encoding = rebuild_with_hierarchy(store, schema)
                store.insert(
                    Triple(
                        data.draw(st.sampled_from(instances)), RDF_TYPE, new
                    )
                )
            else:
                store.insert(
                    Triple(
                        data.draw(st.sampled_from(instances)),
                        data.draw(st.sampled_from(props)),
                        data.draw(st.sampled_from(instances)),
                    )
                )
            _assert_intervals_match_closure(store, schema, encoding)


class TestNoDictionaryMutation:
    """Answering must never grow the store's dictionary — planner
    projection specs and estimator head specs resolve constants via
    lookup and carry unknown ones as ready terms."""

    def _fixture(self):
        schema = _tree_schema()
        graph = Graph()
        graph.add(Triple(EX.i1, RDF_TYPE, EX.C1))
        graph.add(Triple(EX.i1, EX.q1, EX.i2))
        return graph, schema

    @pytest.mark.parametrize("engine", ANSWERER_ENGINES)
    @pytest.mark.parametrize("interval", [False, True])
    def test_answering_never_grows_dictionary(self, engine, interval):
        graph, schema = self._fixture()
        answerer = QueryAnswerer(
            graph, schema, engine=engine, interval_encoding=interval
        )
        before = len(answerer.store.dictionary)
        # A head constant and an atom constant the data never stored.
        query = ConjunctiveQuery(
            [x, EX.NeverStored],
            [
                TriplePattern(x, RDF_TYPE, EX.A),
                TriplePattern(x, EX.p, EX.AlsoNeverStored),
            ],
        )
        for strategy in (
            Strategy.REF_UCQ,
            Strategy.REF_SCQ,
            Strategy.REF_GCOV,
        ):
            report = answerer.answer(query, strategy)
            assert report.answer == frozenset()
        assert len(answerer.store.dictionary) == before

    def test_unstored_head_constant_is_returned(self):
        graph, schema = self._fixture()
        answerer = QueryAnswerer(graph, schema)
        before = len(answerer.store.dictionary)
        query = ConjunctiveQuery(
            [x, EX.NeverStored], [TriplePattern(x, RDF_TYPE, EX.A)]
        )
        report = answerer.answer(query, Strategy.REF_UCQ)
        assert report.answer == frozenset({(EX.i1, EX.NeverStored)})
        assert len(answerer.store.dictionary) == before


class TestExample1:
    """Example 1 on one LUBM university.  Under hierarchy-only
    reasoning — the subclass/subproperty unions the layout encodes —
    its classic UCQ is past every backend's atom limit, while the
    interval UCQ answers."""

    HIERARCHY = ReformulationPolicy(subclass=True, subproperty=True, domain_range=False)

    @pytest.fixture(scope="class")
    def answerers(self):
        graph = generate_lubm(universities=1, seed=1)
        return {
            interval: QueryAnswerer(
                graph, engine="columnar", policy=self.HIERARCHY, interval_encoding=interval
            )
            for interval in (False, True)
        }

    def test_full_reasoning_ucq_size(self, answerers):
        encoded = answerers[True]
        query = example1_query()
        assert ucq_size(query, encoded.schema) == 186_624
        assert ucq_size(query, encoded.schema, encoding=encoded.encoding) == 19_044

    def test_hierarchy_only_type_side_collapses(self, answerers):
        """Example 1's x side — its open type atom, the degree constant
        and memberOf — is where enumeration is the whole cost."""
        full = example1_query()
        x_side = ConjunctiveQuery(
            (full.atoms[0].subject, full.atoms[0].object),
            (full.atoms[0], full.atoms[2], full.atoms[4]),
        )
        encoded = answerers[True]
        assert ucq_size(x_side, encoded.schema, self.HIERARCHY) == 264
        assert ucq_size(x_side, encoded.schema, self.HIERARCHY, encoded.encoding) == 26

    def test_hierarchy_only_classic_ucq_is_refused(self, answerers):
        classic = answerers[False]
        query = example1_query()
        assert ucq_size(query, classic.schema, self.HIERARCHY) == 69_696
        with pytest.raises(QueryTooLargeError):
            classic.answer(query, Strategy.REF_UCQ)

    def test_hierarchy_only_interval_ucq_answers_like_the_jucq(self, answerers):
        encoded = answerers[True]
        query = example1_query()
        assert ucq_size(query, encoded.schema, self.HIERARCHY, encoded.encoding) == 676
        report = encoded.answer(query, Strategy.REF_UCQ)
        reference = answerers[False].answer(
            query, Strategy.REF_JUCQ, cover=Cover.per_atom(query)
        )
        assert report.answer == reference.answer
