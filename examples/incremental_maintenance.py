"""Sat vs Ref under updates: the maintenance penalty of Section 1.

The paper motivates Ref with the cost of keeping a saturation current:
"the saturation needs to be maintained after changes in the data
and/or constraints".  This example runs a small update workload —
triple insertions, triple deletions, then a constraint change — and
shows what each technique pays:

* Sat: incremental maintenance per data update (support counting), and
  a full resaturation on the constraint change;
* Ref: nothing on data updates, one re-reformulation on the
  constraint change.

Run:  python examples/incremental_maintenance.py
"""

from __future__ import annotations

import time

from repro.datasets import UB, generate_lubm, lubm_queries
from repro.query.visualize import format_table
from repro.rdf import RDF_TYPE, Triple, URI
from repro.saturation import IncrementalSaturator
from repro.schema import Constraint, Schema
from repro.reformulation import reformulate


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = (time.perf_counter() - start) * 1e3
    return label, elapsed, result


def main() -> None:
    graph = generate_lubm(universities=2, seed=1)
    schema = Schema.from_graph(graph)
    data = list(graph.data_triples())
    query = lubm_queries()["Q6"]

    rows = []

    label, ms, saturator = timed(
        "Sat: initial saturation (%d triples)" % len(data),
        lambda: IncrementalSaturator(schema, data),
    )
    rows.append([label, "%.1f" % ms])
    print(
        "saturation holds %d triples (%d derived)"
        % (len(saturator), saturator.derived_count)
    )

    # A batch of new graduate students joins.
    dept = URI("http://www.Department0.University0.edu")
    newcomers = []
    for index in range(200):
        student = URI("http://www.Department0.University0.edu/NewStudent%d" % index)
        newcomers.append(Triple(student, RDF_TYPE, UB.GraduateStudent))
        newcomers.append(Triple(student, UB.memberOf, dept))

    label, ms, _ = timed(
        "Sat: insert 400-triple batch (incremental)",
        lambda: saturator.insert_all(newcomers),
    )
    rows.append([label, "%.1f" % ms])

    label, ms, _ = timed(
        "Sat: delete the same batch (support counting)",
        lambda: saturator.delete_all(newcomers),
    )
    rows.append([label, "%.1f" % ms])

    rows.append(["Ref: data updates", "0.0 (nothing to maintain)"])

    # A constraint change hits both techniques differently.
    new_constraint = Constraint.subclass(UB.Lecturer, UB.Professor)
    label, ms, _ = timed(
        "Sat: add 'Lecturer ⊑ Professor' (full resaturation)",
        lambda: saturator.add_constraint(new_constraint),
    )
    rows.append([label, "%.1f" % ms])

    amended = schema.copy()
    amended.add(new_constraint)
    label, ms, _ = timed(
        "Ref: re-reformulate the next query",
        lambda: reformulate(query, amended),
    )
    rows.append([label, "%.2f" % ms])

    print()
    print(format_table(["operation", "time (ms)"], rows,
                       title="Sat vs Ref under updates"))


if __name__ == "__main__":
    main()
