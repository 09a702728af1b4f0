"""E21 — the columnar engine against the materialized interpreter on
Example 1.

The columnar engine's claim: over the same plan IR, SPO/POS/OSP
sorted-run scans plus merge joins and merge unions beat the
interpreter on the reformulation blowup — the per-atom SCQ cover whose
unions multiply through the joins — while never buffering more rows
than the interpreter's largest operator output (merge operators hold
only the current equal-key groups; the hash fallback buffers only its
build side).

Measured here, per cover and per engine: wall time (best of N), peak
rows held, and answer identity across both engines.  The deep
run uses a ~10^6-triple LUBM fragment (``--universities 540``) where
the vectorized scans' constant-factor win compounds; CI smoke
(``--quick``) runs one university and asserts the ordering only.

Runs two ways: under pytest alongside the other benchmarks, and as a
script (``python benchmarks/bench_e21_columnar.py --quick``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_REPO_ROOT = os.path.dirname(_SRC)

from repro import QueryAnswerer, Strategy
from repro.bench import format_table, write_json_report
from repro.datasets import example1_best_cover, example1_query, generate_lubm
from repro.query import Cover

ROUNDS = 3

#: ~10^6 triples at LUBM's ~1.85k triples per university.
DEEP_UNIVERSITIES = 540


def cover_spectrum(query) -> List[Tuple[str, Cover]]:
    """Example 1's covers, worst to best: the blowup (per-atom SCQ)
    and the paper's hand-picked best."""
    return [
        ("per-atom (SCQ)", Cover.per_atom(query)),
        ("paper best", example1_best_cover(query)),
    ]


def _best_report(answerer, query, cover, rounds=ROUNDS):
    reports = [
        answerer.answer(query, Strategy.REF_JUCQ, cover=cover)
        for _ in range(rounds)
    ]
    return min(reports, key=lambda report: report.elapsed_seconds)


def _peak(report) -> int:
    if report.execution.engine == "materialized":
        return report.execution.max_intermediate_rows()
    return report.execution.peak_buffered_rows


def run_engine_comparison(
    graph, query, rounds: int = ROUNDS
) -> List[Tuple[str, object, object]]:
    """(cover label, materialized, columnar report) per cover, answers
    asserted identical."""
    answerers = {
        engine: QueryAnswerer(graph, engine=engine)
        for engine in ("materialized", "columnar")
    }
    results = []
    for label, cover in cover_spectrum(query):
        rm = _best_report(answerers["materialized"], query, cover, rounds)
        rc = _best_report(answerers["columnar"], query, cover, rounds)
        assert rc.answer == rm.answer, label
        results.append((label, rm, rc))
    return results


def _table(results) -> str:
    rows = [
        [
            label,
            "%.1f" % (rm.elapsed_seconds * 1e3),
            "%.1f" % (rc.elapsed_seconds * 1e3),
            _peak(rm),
            _peak(rc),
            "%.2fx" % (rm.elapsed_seconds / max(rc.elapsed_seconds, 1e-9)),
        ]
        for label, rm, rc in results
    ]
    return format_table(
        ["cover", "mat ms", "col ms", "mat peak", "col peak", "col speedup"],
        rows,
        title="E21: both engines across Example 1's cover spectrum",
    )


def emit_report(graph) -> str:
    return _table(run_engine_comparison(graph, example1_query()))


# ---------------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)


def test_engines_agree_across_cover_spectrum(lubm_graph):
    query = example1_query()
    results = run_engine_comparison(lubm_graph, query, rounds=1)
    assert len(results) == 2
    for _label, rm, rc in results:
        assert rm.execution.engine == "materialized"
        assert rc.execution.engine == "columnar"
        assert rc.execution.metrics is not None


def test_columnar_peak_no_worse_than_materialized_on_scq(lubm_graph):
    """The memory half of the claim: on the blowup cover the columnar
    engine's high-water mark never exceeds the interpreter's largest
    operator output."""
    query = example1_query()
    label, rm, rc = run_engine_comparison(lubm_graph, query, rounds=1)[0]
    assert label == "per-atom (SCQ)"
    assert _peak(rc) <= _peak(rm)


def test_benchmark_columnar_scq(benchmark, lubm_graph):
    answerer = QueryAnswerer(lubm_graph, engine="columnar")
    query = example1_query()
    cover = Cover.per_atom(query)
    report = benchmark.pedantic(
        lambda: answerer.answer(query, Strategy.REF_JUCQ, cover=cover),
        rounds=3,
        iterations=1,
    )
    assert report.cardinality > 0


def test_report_emits(lubm_graph):
    report = emit_report(lubm_graph)
    assert "col speedup" in report
    print("\n" + report)


# ---------------------------------------------------------------------------
# script entry point (CI smoke: python benchmarks/bench_e21_columnar.py --quick)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-university instance, assert answer identity and the "
             "peak-rows ordering only (speedup needs scale), exit "
             "non-zero on miss",
    )
    parser.add_argument("--universities", type=int, default=DEEP_UNIVERSITIES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="best-of-N per engine per cover; N>=2 lets the columnar "
             "engine's first round pay the one-time lazy index build "
             "so the best round measures steady-state evaluation",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_E21.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)
    universities = 1 if args.quick else args.universities
    graph = generate_lubm(universities=universities, seed=args.seed)
    print("%d universities, %d triples" % (universities, len(graph)))
    query = example1_query()
    results = run_engine_comparison(graph, query, rounds=args.rounds)
    print(_table(results))
    payload = {
        "experiment": "E21",
        "claim": "the columnar engine beats the materialized interpreter "
                 ">=3x on the reformulation-blowup cover at scale, with "
                 "peak buffered rows no worse than the interpreter's "
                 "largest operator output",
        "universities": universities,
        "triples": len(graph),
        "seed": args.seed,
        "covers": {
            label: {
                "materialized_seconds": rm.elapsed_seconds,
                "columnar_seconds": rc.elapsed_seconds,
                "materialized_peak_rows": _peak(rm),
                "columnar_peak_rows": _peak(rc),
                "columnar_speedup_vs_materialized":
                    rm.elapsed_seconds / max(rc.elapsed_seconds, 1e-9),
                "rows": rm.cardinality,
            }
            for label, rm, rc in results
        },
    }
    written = write_json_report(args.output, payload)
    print("\nwrote %s" % written)
    label, rm, rc = results[0]  # the per-atom (SCQ) blowup cover
    if _peak(rc) > _peak(rm):
        print(
            "FAIL: columnar peak %d rows > materialized peak %d on %s"
            % (_peak(rc), _peak(rm), label),
            file=sys.stderr,
        )
        return 1
    speedup = rm.elapsed_seconds / max(rc.elapsed_seconds, 1e-9)
    if not args.quick and speedup < 3.0:
        print(
            "FAIL: columnar speedup %.2fx < 3x over materialized on %s"
            % (speedup, label),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
