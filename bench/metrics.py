"""Turning latencies and spans into the named metrics.

The names, units, directions and bounds live in ``BENCHMARK.json``;
this module only computes values.  ``bench/README.md`` defines each
metric and says which end-to-end number it is expected to move.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

from spans import Trace


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """The smallest sample with at least *fraction* of the samples at
    or below it — no interpolation, so a percentile of a two-mode
    latency distribution is always a latency that occurred."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def end_to_end(
    kinds: Sequence[str],
    latencies: Sequence[float],
    correct_ops: int,
    wall_seconds: float,
    setups: Sequence[float],
    warmups: Sequence[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run; *kinds* and
    *latencies* are per timed op, in order."""
    per_kind: Dict[str, List[float]] = {}
    for kind, seconds in zip(kinds, latencies):
        per_kind.setdefault(kind, []).append(seconds)
    return {
        "setup_s": statistics.median(setups),
        "warmup_s": statistics.median(warmups),
        "ops_per_s": correct_ops / wall_seconds,
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * nearest_rank(latencies, 0.90),
        "kind_ms_geomean": 1e3
        * geomean([statistics.median(group) for group in per_kind.values()]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    trace: Trace,
    untraced_seconds: float,
    cpu_share: float,
    service: Optional[Dict] = None,
    absent_layers: Sequence[str] = (),
) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one traced run.

    ``*_ms`` is the time spent in that layer's spans divided by the
    number of traced ops (``*_ms_p50`` is the median span), so a layer
    a workload bypasses reads 0.  *untraced_seconds* is what the same
    ops took through the front door; *service* carries the numbers only
    the service itself can report; a layer in *absent_layers* (an
    engine no longer registered) reports None.
    """
    root_ids = {i for i, span in enumerate(trace.spans) if span["name"] == "op"}
    roots = trace.named("op")
    ops = len(roots)
    traced_seconds = trace.seconds("op")
    covered_seconds = sum(
        span["end"] - span["start"]
        for span in trace.spans
        if span["parent"] in root_ids
    )

    def per_op_ms(name: str) -> float:
        return 1e3 * trace.seconds(name) / ops

    def median_ms(durations: Sequence[float]) -> float:
        return 1e3 * statistics.median(durations) if durations else 0.0

    def peak(name: str, attribute: str) -> float:
        return max((span[attribute] for span in trace.named(name)), default=0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    searches = trace.named("optimizer.search")
    inserts = trace.named("saturation.insert")
    metrics: Dict[str, Optional[float]] = {
        "query.parse_ms": per_op_ms("query.parse"),
        "optimizer.search_ms": per_op_ms("optimizer.search"),
        "optimizer.covers_explored": trace.total("optimizer.search", "covers_explored"),
        "optimizer.cover_fragments": trace.total("optimizer.search", "cover_fragments"),
        "optimizer.est_cost": share(
            trace.total("optimizer.search", "est_cost"), len(searches)
        ),
        "reformulation.build_ms": per_op_ms("reformulation.build"),
        "reformulation.disjuncts": trace.total("reformulation.build", "disjuncts"),
        "reformulation.atoms": trace.total("reformulation.build", "atoms"),
        "reformulation.ucq_size": trace.total("reformulation.build", "ucq_size"),
        "encoding.preencode_ms": 1e3 * trace.seconds("encoding.preencode"),
        "encoding.search_ms": per_op_ms("encoding.search"),
        "encoding.disjuncts": trace.total("encoding.search", "disjuncts"),
        "storage.load_s": trace.seconds("storage.load"),
        "storage.plan_ms": per_op_ms("storage.plan"),
        "storage.plan_nodes": trace.total("storage.plan", "plan_nodes"),
        "storage.execute_ms": per_op_ms("storage.execute"),
        "storage.max_intermediate_rows": peak(
            "storage.execute", "max_intermediate_rows"
        ),
        "storage.rows_per_result": share(
            trace.total("storage.execute", "operator_rows"),
            trace.total("storage.execute", "result_rows"),
        ),
        "storage.decode_ms": per_op_ms("storage.decode"),
        "storage.insert_ms_p50": median_ms(trace.durations("storage.insert")),
        "storage.delete_ms_p50": median_ms(trace.durations("storage.delete")),
        "engine.execute_ms": per_op_ms("engine.execute"),
        "engine.peak_buffered_rows": peak("engine.execute", "peak_buffered_rows"),
        "columnar.execute_ms": per_op_ms("columnar.execute"),
        "columnar.peak_buffered_rows": peak(
            "columnar.execute", "peak_buffered_rows"
        ),
        "columnar.index_build_ms": 1e3 * trace.seconds("columnar.index_build"),
        "cache.answer_hit_ratio": 0.0,
        "cache.reformulation_hit_ratio": 0.0,
        "cache.invalidations": 0,
        "cache.lookup_ms": per_op_ms("cache.lookup"),
        "service.submit_ms": per_op_ms("service.submit"),
        "service.step_ms": per_op_ms("service.step"),
        "service.read_ms_p50": 0.0,
        "service.write_ms_p50": 0.0,
        "service.hit_overhead_ms": 0.0,
        "service.shed": 0,
        "saturation.build_s": trace.seconds("saturation.build"),
        "saturation.derived_triples": trace.total(
            "saturation.build", "derived_triples"
        ),
        "saturation.insert_ms_p50": median_ms(trace.durations("saturation.insert")),
        "saturation.delete_ms_p50": median_ms(trace.durations("saturation.delete")),
        "saturation.derived_per_insert": share(
            trace.total("saturation.insert", "derived"), len(inserts)
        ),
        "durability.load_s": trace.seconds("durability.load"),
        "durability.wal_bytes_per_triple": share(
            trace.total("durability.load", "wal_bytes"),
            trace.total("durability.load", "triples"),
        ),
        "durability.checkpoint_s": trace.seconds("durability.checkpoint"),
        "durability.recover_s": trace.seconds("durability.recover"),
        "rdf.parse_s": trace.seconds("rdf.parse"),
        "trace.coverage": share(covered_seconds, traced_seconds),
        "trace.overhead_share": share(
            traced_seconds - untraced_seconds, untraced_seconds
        ),
        "runner.cpu_share": cpu_share,
    }
    if service is not None:
        reads = [s for s in roots if s["action"] == "read"]
        hits = [s for s in reads if s.get("cache") == "hit"]
        direct_hits = [
            s["end"] - s["start"] for s in trace.named("cache.lookup") if s["hit"]
        ]

        def spans_ms(spans) -> float:
            return median_ms([s["end"] - s["start"] for s in spans])

        answer, rewrite = service["answer"], service["reformulation"]
        metrics.update(
            {
                "cache.answer_hit_ratio": share(
                    answer["hits"], answer["hits"] + answer["misses"]
                ),
                "cache.reformulation_hit_ratio": share(
                    rewrite["hits"], rewrite["hits"] + rewrite["misses"]
                ),
                "cache.invalidations": service["data_invalidations"],
                "service.read_ms_p50": spans_ms(reads),
                "service.write_ms_p50": spans_ms(
                    [s for s in roots if s["action"] != "read"]
                ),
                "service.hit_overhead_ms": spans_ms(hits) - median_ms(direct_hits),
                "service.shed": service["shed"],
            }
        )
    for layer in absent_layers:
        for name in metrics:
            if name.startswith(layer + "."):
                metrics[name] = None
    return metrics
