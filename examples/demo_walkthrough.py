"""The demonstration scenario of Section 5, as a terminal walkthrough.

Follows the attendee experience the paper describes:

1. pick an RDF graph and visualize its statistics;
2. select a query and answer it through all available systems,
   comparing performance and completeness;
3. inspect the runtime: the chosen plan, (sub)query cardinalities and
   costs, and the space of covers GCov explored;
4. modify the constraints and re-run to see the impact.

Run:  python examples/demo_walkthrough.py [lubm|geo|bib]
"""

from __future__ import annotations

import sys

from repro import QueryAnswerer, Strategy
from repro.datasets import (
    UB,
    bib_queries,
    generate_bib,
    generate_geo,
    generate_lubm,
    geo_queries,
    lubm_queries,
)
from repro.optimizer import gcov
from repro.query.visualize import format_table
from repro.rdf import shorten
from repro.reformulation import ReformulationTooLarge, ucq_size
from repro.schema import Constraint
from repro.storage import QueryTooLargeError

SCENARIOS = {
    "lubm": (
        lambda: generate_lubm(universities=2, seed=1),
        lambda: lubm_queries()["Q9"],
    ),
    "geo": (lambda: generate_geo(seed=1), lambda: geo_queries()["G2"]),
    "bib": (lambda: generate_bib(seed=1), lambda: bib_queries()["B3"]),
}


def step1_statistics(answerer: QueryAnswerer) -> None:
    print("\n== Step 1: dataset statistics " + "=" * 38)
    summary = answerer.store.statistics.summary()
    print(format_table(list(summary), [list(summary.values())]))
    stats = answerer.store.statistics
    rows = [
        [
            shorten(answerer.store.dictionary.decode(property_id)),
            property_stats.triples,
            property_stats.distinct_subjects,
            property_stats.distinct_objects,
        ]
        for property_id, property_stats in sorted(
            stats.per_property.items(), key=lambda item: -item[1].triples
        )[:6]
    ]
    print()
    print(format_table(["property", "triples", "#s", "#o"], rows))


def step2_compare(answerer: QueryAnswerer, query) -> None:
    print("\n== Step 2: answer through all systems " + "=" * 30)
    print("query:", query)
    rows = []
    for strategy in (
        Strategy.SAT,
        Strategy.REF_UCQ,
        Strategy.REF_SCQ,
        Strategy.REF_GCOV,
        Strategy.DATALOG,
        Strategy.REF_VIRTUOSO,
        Strategy.REF_ALLEGRO,
    ):
        try:
            report = answerer.answer(query, strategy)
            rows.append(
                [
                    strategy.value,
                    "%.1f" % (report.elapsed_seconds * 1e3),
                    report.cardinality,
                ]
            )
        except (QueryTooLargeError, ReformulationTooLarge) as exc:
            rows.append([strategy.value, "FAIL", str(exc)[:48]])
    print(format_table(["system", "ms", "answers"], rows))


def step3_inspect(answerer: QueryAnswerer, query) -> None:
    print("\n== Step 3: inspect plan, costs and the explored space " + "=" * 13)
    search = gcov(query, answerer.schema, answerer.store, answerer.backend)
    print("GCov chose %r (estimated cost %.0f)" % (search.cover, search.cost))
    explored = sorted(search.explored, key=lambda pair: pair[1])[:6]
    print(
        format_table(
            ["explored cover", "estimated cost"],
            [[repr(cover), "%.0f" % cost] for cover, cost in explored],
        )
    )
    report = answerer.answer(query, Strategy.REF_GCOV)
    print("\nplan cardinalities (operator, estimated, actual):")
    for operator, estimated, actual in report.execution.node_cardinalities()[:6]:
        print("    %-28s %10.0f %10d" % (operator[:28], estimated, actual))


def step4_modify(answerer: QueryAnswerer, query) -> None:
    print("\n== Step 4: modify the constraints and re-run " + "=" * 23)
    before = ucq_size(query, answerer.schema)
    amended = answerer.schema.copy()
    amended.add(Constraint.subclass(UB.term("Emeritus"), UB.FullProfessor))
    amended.add(Constraint.domain(UB.term("mentors"), UB.Professor))
    after = ucq_size(query, amended)
    print(
        "UCQ reformulation size: %d disjuncts -> %d after adding two "
        "constraints" % (before, after)
    )
    print("(constraint modifications 'may have a dramatic impact' — §5)")


def main(scenario: str = "lubm") -> None:
    build_graph, build_query = SCENARIOS[scenario]
    graph = build_graph()
    query = build_query()
    answerer = QueryAnswerer(graph)
    print("Scenario %r: %d triples" % (scenario, len(graph)))
    step1_statistics(answerer)
    step2_compare(answerer, query)
    step3_inspect(answerer, query)
    if scenario == "lubm":
        step4_modify(answerer, query)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "lubm")
