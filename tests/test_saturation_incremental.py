"""Unit tests for incremental saturation maintenance (E7's machinery)."""

import pytest

from repro.rdf import Graph, Namespace, RDF_TYPE, RDFS_SUBCLASSOF, Triple
from repro.saturation import IncrementalSaturator, saturate
from repro.schema import Constraint, Schema
from repro.storage import TripleStore

EX = Namespace("http://example.org/")


def employee_schema():
    return Schema(
        [
            Constraint.subclass(EX.Manager, EX.Employee),
            Constraint.subclass(EX.Employee, EX.Person),
            Constraint.subproperty(EX.manages, EX.worksWith),
            Constraint.domain(EX.manages, EX.Manager),
            Constraint.range(EX.manages, EX.Employee),
        ]
    )


class TestInsert:
    def test_insert_derives(self):
        sat = IncrementalSaturator(employee_schema())
        sat.insert(Triple(EX.ann, EX.manages, EX.bob))
        graph = sat.saturated()
        assert Triple(EX.ann, EX.worksWith, EX.bob) in graph
        assert Triple(EX.ann, RDF_TYPE, EX.Manager) in graph
        assert Triple(EX.ann, RDF_TYPE, EX.Person) in graph
        assert Triple(EX.bob, RDF_TYPE, EX.Employee) in graph

    def test_insert_matches_full_saturation(self):
        schema = employee_schema()
        data = [
            Triple(EX.ann, EX.manages, EX.bob),
            Triple(EX.bob, RDF_TYPE, EX.Manager),
            Triple(EX.carol, EX.worksWith, EX.ann),
        ]
        incremental = IncrementalSaturator(schema, data)
        full = saturate(Graph(data), schema)
        assert set(incremental.saturated()) == set(full)

    def test_duplicate_insert_noop(self):
        sat = IncrementalSaturator(employee_schema())
        triple = Triple(EX.ann, EX.manages, EX.bob)
        sat.insert(triple)
        size = len(sat)
        sat.insert(triple)
        assert len(sat) == size

    def test_schema_triple_insert_rejected(self):
        sat = IncrementalSaturator(employee_schema())
        with pytest.raises(ValueError):
            sat.insert(Constraint.subclass(EX.A, EX.B).to_triple())


class TestDelete:
    def test_delete_evicts_unsupported(self):
        sat = IncrementalSaturator(employee_schema())
        triple = Triple(EX.ann, EX.manages, EX.bob)
        sat.insert(triple)
        sat.delete(triple)
        assert Triple(EX.ann, RDF_TYPE, EX.Manager) not in sat.saturated()
        assert len(sat.saturated()) == len(
            list(employee_schema().entailed_triples())
        )

    def test_delete_keeps_multiply_supported(self):
        sat = IncrementalSaturator(employee_schema())
        first = Triple(EX.ann, EX.manages, EX.bob)
        second = Triple(EX.ann, EX.manages, EX.carol)
        sat.insert(first)
        sat.insert(second)
        sat.delete(first)
        # ann is still a Manager thanks to the second triple.
        assert Triple(EX.ann, RDF_TYPE, EX.Manager) in sat.saturated()

    def test_delete_keeps_explicit_derived_duplicates(self):
        sat = IncrementalSaturator(employee_schema())
        sat.insert(Triple(EX.ann, EX.manages, EX.bob))
        # worksWith is both derivable and explicitly inserted.
        explicit = Triple(EX.ann, EX.worksWith, EX.bob)
        sat.insert(explicit)
        sat.delete(Triple(EX.ann, EX.manages, EX.bob))
        assert explicit in sat.saturated()
        sat.delete(explicit)
        assert explicit not in sat.saturated()

    def test_delete_absent_noop(self):
        sat = IncrementalSaturator(employee_schema())
        sat.delete(Triple(EX.ann, EX.manages, EX.bob))
        assert len(sat.explicit_triples()) == 0

    def test_random_insert_delete_matches_full(self):
        import random

        rng = random.Random(5)
        schema = employee_schema()
        people = [EX.term("p%d" % index) for index in range(6)]
        pool = [
            Triple(rng.choice(people), EX.manages, rng.choice(people))
            for _ in range(20)
        ] + [
            Triple(rng.choice(people), RDF_TYPE, EX.Manager) for _ in range(5)
        ]
        sat = IncrementalSaturator(schema)
        live = set()
        for _ in range(60):
            triple = rng.choice(pool)
            if triple in live and rng.random() < 0.5:
                sat.delete(triple)
                live.discard(triple)
            else:
                sat.insert(triple)
                live.add(triple)
            expected = saturate(Graph(live), schema)
            assert set(sat.saturated()) == set(expected)


class TestSchemaUpdates:
    def test_add_constraint_resaturates(self):
        sat = IncrementalSaturator(Schema())
        sat.insert(Triple(EX.ann, RDF_TYPE, EX.Manager))
        assert Triple(EX.ann, RDF_TYPE, EX.Employee) not in sat.saturated()
        sat.add_constraint(Constraint.subclass(EX.Manager, EX.Employee))
        assert Triple(EX.ann, RDF_TYPE, EX.Employee) in sat.saturated()

    def test_remove_constraint_resaturates(self):
        schema = Schema([Constraint.subclass(EX.Manager, EX.Employee)])
        sat = IncrementalSaturator(schema)
        sat.insert(Triple(EX.ann, RDF_TYPE, EX.Manager))
        sat.remove_constraint(Constraint.subclass(EX.Manager, EX.Employee))
        assert Triple(EX.ann, RDF_TYPE, EX.Employee) not in sat.saturated()

    def test_derived_count(self):
        sat = IncrementalSaturator(employee_schema())
        sat.insert(Triple(EX.ann, EX.manages, EX.bob))
        # worksWith, Manager, Employee(ann), Person(ann), Employee(bob),
        # Person(bob)
        assert sat.derived_count == 6


class TestTypeSuperproperty:
    """``p rdfs:subPropertyOf rdf:type``: (s p o) types s with o and,
    through o's superclasses, with more — the one chase the tables
    need."""

    def schema(self):
        return Schema(
            [
                Constraint.subproperty(EX.hasRole, RDF_TYPE),
                Constraint.subclass(EX.Manager, EX.Employee),
            ]
        )

    def test_insert_chases_the_object_superclasses(self):
        sat = IncrementalSaturator(self.schema())
        triple = Triple(EX.ann, EX.hasRole, EX.Manager)
        added = sat.insert(triple)
        assert set(added) == {
            triple,
            Triple(EX.ann, RDF_TYPE, EX.Manager),
            Triple(EX.ann, RDF_TYPE, EX.Employee),
        }
        assert set(sat.saturated()) == set(saturate(Graph([triple]), self.schema()))
        assert set(sat.delete(triple)) == set(added)

    def test_build_chases_the_object_superclasses(self):
        data = [Triple(EX.ann, EX.hasRole, EX.Manager)]
        sat = IncrementalSaturator(self.schema(), data)
        assert set(sat.saturated()) == set(saturate(Graph(data), self.schema()))
        assert sat.derived_count == 2


class TestOverAStore:
    """:meth:`IncrementalSaturator.over` saturates a store its owner
    writes: the saturated store shares the store's ids and leaves no
    listener on it."""

    def test_shares_ids_and_leaves_no_listener(self):
        store = TripleStore.from_graph(
            Graph([Triple(EX.ann, EX.manages, EX.bob)]), employee_schema()
        )
        sat = IncrementalSaturator.over(store)
        assert sat.store.dictionary is store.dictionary
        assert store._listeners == [] and store._pre_listeners == []
        assert all(map(sat.store.contains, store.scan_all()))
        assert sat.derived_count == len(sat.store) - len(store) == 6

    def test_owner_writes_the_store_first(self):
        schema = employee_schema()
        store = TripleStore.from_graph(Graph(), schema)
        sat = IncrementalSaturator.over(store)
        triple = Triple(EX.ann, EX.manages, EX.bob)
        assert store.insert(triple)
        added = sat.insert(triple)
        assert triple in added and len(added) == 7
        assert set(sat.store.triples()) == set(saturate(Graph([triple]), schema))
        assert store.delete(triple)
        assert set(sat.delete(triple)) == set(added)
        assert set(sat.store.triples()) == set(store.triples())

    def test_schema_rows_derive_nothing(self):
        """The store's schema rows are not data: even under a
        constraint over the built-in vocabulary (which the engines
        ignore), they derive nothing."""
        schema = Schema(
            [
                Constraint.subclass(EX.Manager, EX.Employee),
                Constraint.subproperty(RDFS_SUBCLASSOF, EX.related),
            ]
        )
        data = Graph([Triple(EX.ann, RDF_TYPE, EX.Manager)])
        sat = IncrementalSaturator.over(TripleStore.from_graph(data, schema))
        assert set(sat.store.triples()) == set(saturate(data, schema))

    def test_over_adds_no_term_to_the_store(self):
        """A domain types the subjects of data that states no type; the
        store gave rdf:type an id when it took the domain, so saturating
        it adds nothing to the dictionary the two stores share."""
        schema = Schema([Constraint.domain(EX.manages, EX.Manager)])
        store = TripleStore.from_graph(
            Graph([Triple(EX.ann, EX.manages, EX.bob)]), schema
        )
        terms = store.dictionary.terms()
        assert RDF_TYPE in terms
        sat = IncrementalSaturator.over(store)
        assert store.dictionary.terms() == terms
        assert Triple(EX.ann, RDF_TYPE, EX.Manager) in sat.saturated()
        assert sat.store.statistics.class_count(store.term_id(EX.Manager)) == 1


#: Prints the standalone saturator's runs (ids) and the CRC of the
#: checkpoint a saturating durable store writes, for inputs in sorted
#: order.
_SEED_SCRIPT = """
import tempfile, zlib
from repro.durability import DurableStore
from repro.rdf import Namespace, RDF_TYPE, Triple
from repro.saturation import IncrementalSaturator
from repro.schema import Constraint, Schema

EX = Namespace("http://example.org/")
constraints = sorted(
    [
        Constraint.subclass(EX.C0, EX.C1),
        Constraint.subclass(EX.C1, EX.C2),
        Constraint.subproperty(EX.p0, EX.p1),
        Constraint.subproperty(EX.p2, RDF_TYPE),
        Constraint.domain(EX.p1, EX.C0),
        Constraint.range(EX.p0, EX.C1),
    ],
    key=lambda constraint: constraint.to_triple(),
)
data = sorted(
    Triple(EX["i%d" % (index % 5)], prop, obj)
    for index in range(12)
    for prop, obj in ((EX.p0, EX["i%d" % (index % 3)]), (EX.p2, EX.C0))
)
sat = IncrementalSaturator(Schema(constraints), data)
print(list(sat.store.scan_all()))
with tempfile.TemporaryDirectory() as directory:
    durable = DurableStore.open(directory, sync="never", with_saturator=True)
    for constraint in constraints:
        durable.add_constraint(constraint)
    for triple in data:
        durable.insert(triple)
    with open(durable.checkpoint(), "rb") as handle:
        print(zlib.crc32(handle.read()), len(durable.saturator))
    durable.close()
"""


def test_saturation_and_checkpoint_do_not_depend_on_the_hash_seed():
    """The consequence tables come from Schema's set-valued accessors;
    given inputs in a fixed order, neither the saturated runs nor the
    checkpoint bytes may change with PYTHONHASHSEED."""
    import os
    import subprocess
    import sys

    source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", _SEED_SCRIPT],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout
        )
    assert len(outputs) == 1
