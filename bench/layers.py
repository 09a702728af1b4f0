"""The answering chain, replayed layer by layer with a span per call.

``QueryAnswerer.answer`` runs parse → cover search → reformulate →
plan → execute → decode as one opaque call.  The traced run rebuilds
that chain here from each layer's public function, on state this module
builds itself from the same graph, so every link gets its own span and
counts.  The answers must equal the front door's; the runner checks.

Side replays price what the front door does not run today — the other
registered engines on the same plan, and the same rewrite under the
hierarchy interval encoding.  They sit outside the operation's root
span, so they never count towards coverage or overhead.
"""

from __future__ import annotations

import importlib
import io
import shutil
from typing import Dict, List, Optional, Tuple

from repro.cache import QueryCache, dataset_token
from repro.durability.manager import DurableStore
from repro.encoding.hierarchy import preencode_hierarchy
from repro.optimizer.gcov import gcov
from repro.query.algebra import JoinOfUnions
from repro.query.cover import Cover
from repro.query.parser import parse_query
from repro.rdf.io import graph_to_string, read_ntriples
from repro.reformulation.engine import reformulate, ucq_size
from repro.reformulation.jucq import jucq_for_cover, scq_reformulation
from repro.reformulation.policy import COMPLETE
from repro.saturation.incremental import IncrementalSaturator
from repro.schema.schema import Schema
from repro.storage.backends import HASH_BACKEND
from repro.storage.executor import ENGINES, execute_plan
from repro.storage.planner import Planner
from repro.storage.store import TripleStore

from spans import Trace
from workloads import Op

#: Engines priced beside the default one: registered name → (layer,
#: module, entry point).  Resolved lazily, so a retired engine reports
#: no number instead of breaking the import.
SIDE_ENGINES = {
    "pipelined": ("engine", "repro.engine.pipeline", "run_on_store"),
    "columnar": ("columnar", "repro.columnar.engine", "run_columnar"),
}


def absent_layers() -> List[str]:
    """Layers whose engine is no longer registered."""
    return [
        layer
        for engine, (layer, _, _) in SIDE_ENGINES.items()
        if engine not in ENGINES
    ]


class LayerChain:
    """What ``QueryAnswerer`` composes, one public call at a time."""

    def __init__(
        self,
        trace: Trace,
        graph,
        schema: Schema,
        saturated: bool = False,
        side_replays: bool = False,
    ):
        self.trace = trace
        self.graph = graph
        self.backend = HASH_BACKEND
        self.policy = COMPLETE
        with trace.span("storage.load"):
            self.store = TripleStore.from_graph(graph, schema)
        #: The graph's constraints merged with *schema*, as the store
        #: (like the answerer) derives them on load.
        self.schema = self.store.schema
        self.saturator: Optional[IncrementalSaturator] = None
        self.read_store = self.store
        if saturated:
            with trace.span("saturation.build") as span:
                self.saturator = IncrementalSaturator(
                    self.schema, graph.data_triples()
                )
            span["derived_triples"] = self.saturator.derived_count
            with trace.span("storage.load"):
                self.read_store = TripleStore.from_graph(
                    self.saturator.saturated(), self.schema
                )
        self.planner = Planner(self.read_store, self.backend)
        #: Answers of side replays that differed from the chain's.
        self.side_mismatches = 0
        self.encoding = None
        self.side_engines: Dict[str, object] = {}
        if side_replays:
            self._prepare_side_replays()

    # ------------------------------------------------------------------
    # Reads

    def read(self, op: Op):
        """Replay one read; returns ``(answer, query, plan, rows)``."""
        trace = self.trace
        with trace.span("query.parse"):
            query = parse_query(op.text)
        rewritten = self._rewrite(
            op, query, self.store, None, "optimizer.search", "reformulation.build"
        )
        with trace.span("storage.plan") as span:
            plan = self.planner.plan(rewritten)
        span["plan_nodes"] = sum(1 for _ in plan.walk())
        with trace.span("storage.execute") as span:
            rows = execute_plan(plan, self.read_store)
        produced = [node.actual_rows or 0 for node in plan.walk()]
        span["operator_rows"] = sum(produced)
        span["max_intermediate_rows"] = max(produced)
        span["result_rows"] = len(rows)
        with trace.span("storage.decode"):
            answer = frozenset(self.read_store.decode_row(row) for row in rows)
        return answer, query, plan, rows

    def _rewrite(self, op, query, store, encoding, search_name, build_name):
        """The strategy's reformulation of *query* — what the answerer's
        strategy branches do, minus caching and budgets."""
        strategy = op.strategy
        if strategy == "sat":
            return query
        trace = self.trace
        cover = None
        if strategy == "ref-gcov":
            with trace.span(search_name) as span:
                search = gcov(
                    query, self.schema, store, self.backend, self.policy,
                    encoding=encoding,
                )
            span["covers_explored"] = search.explored_count
            span["cover_fragments"] = len(search.cover.fragments)
            span["est_cost"] = search.cost
            span["cover"] = repr(search.cover)
            cover = search.cover
        elif strategy == "ref-jucq":
            cover = Cover(query, op.cover)
        size = 0
        with trace.span(build_name) as span:
            if strategy == "ref-ucq":
                size = ucq_size(query, self.schema, self.policy, encoding)
                rewritten = reformulate(
                    query, self.schema, self.policy, encoding=encoding
                )
            elif strategy == "ref-scq":
                rewritten = scq_reformulation(
                    query, self.schema, self.policy, encoding=encoding
                )
            else:
                rewritten = jucq_for_cover(
                    cover, self.schema, self.policy, encoding=encoding
                )
        unions = (
            rewritten.fragments
            if isinstance(rewritten, JoinOfUnions)
            else (rewritten,)
        )
        span["disjuncts"] = sum(len(union) for union in unions)
        span["atoms"] = rewritten.atom_count()
        span["ucq_size"] = size
        return rewritten

    # ------------------------------------------------------------------
    # Writes (what ``QueryAnswerer.insert/delete`` do, per layer)

    def insert(self, triple) -> bool:
        if triple in self.graph:
            return False
        self.graph.add(triple)
        with self.trace.span("storage.insert"):
            self.store.insert(triple)
        if self.saturator is not None:
            with self.trace.span("saturation.insert") as span:
                added = self.saturator.insert(triple)
            span["derived"] = sum(1 for item in added if item != triple)
            with self.trace.span("storage.insert_derived"):
                for item in added:
                    self.read_store.insert(item)
        return True

    def delete(self, triple) -> bool:
        if triple not in self.graph:
            return False
        self.graph.discard(triple)
        with self.trace.span("storage.delete"):
            self.store.delete(triple)
        if self.saturator is not None:
            with self.trace.span("saturation.delete"):
                removed = self.saturator.delete(triple)
            with self.trace.span("storage.delete_derived"):
                for item in removed:
                    self.read_store.delete(item)
        return True

    # ------------------------------------------------------------------
    # Side replays

    def _prepare_side_replays(self) -> None:
        for name, (layer, module, entry) in SIDE_ENGINES.items():
            if name in ENGINES:
                self.side_engines[layer] = getattr(
                    importlib.import_module(module), entry
                )
        if "columnar" in self.side_engines:
            with self.trace.span("columnar.index_build"):
                indexes = self.store.columnar()
                for order in ("spo", "pos", "osp"):
                    indexes.order(order)
        self.encoded_store = TripleStore()
        with self.trace.span("encoding.preencode"):
            self.encoding = preencode_hierarchy(self.encoded_store, self.schema)
        self.encoded_store.load(self.graph, self.schema)

    def side_replay(self, op: Op, query, plan, rows: List[Tuple]) -> None:
        """The same plan on every other registered engine, then the
        same rewrite under the interval encoding."""
        expected = set(rows)
        for layer, run in self.side_engines.items():
            with self.trace.span(layer + ".execute") as span:
                side_rows, metrics = run(plan, self.store)
            span["peak_buffered_rows"] = metrics.peak_buffered_rows
            if set(side_rows) != expected:
                self.side_mismatches += 1
        self._rewrite(
            op, query, self.encoded_store, self.encoding,
            "encoding.search", "encoding.search",
        )


# ----------------------------------------------------------------------
# The service's cache tier, priced without the service around it


class DirectCache:
    """A ``QueryCache`` of the service's own tier sizes, fed the same
    reads and invalidated by the same writes: the cost of a bare
    ``answer_key`` + ``lookup_answer``, which a hit through the service
    is then compared with."""

    def __init__(self, trace: Trace, schema: Schema, tiers: Dict):
        """*tiers* is one tenant's entry of ``service.cache_stats()``."""
        self.trace = trace
        self.schema = schema
        self.cache = QueryCache(
            tiers["reformulation"]["capacity"], tiers["answer"]["capacity"]
        )
        self.token = dataset_token()

    def lookup(self, query, answer) -> None:
        with self.trace.span("cache.lookup") as span:
            key = self.cache.answer_key(
                self.token, query, self.schema, COMPLETE, "ref-gcov"
            )
            found = self.cache.lookup_answer(key)
        span["hit"] = found is not None
        if found is None:
            self.cache.store_answer(key, (answer, {}))

    def invalidate(self) -> None:
        self.cache.note_data_change()


# ----------------------------------------------------------------------
# Durability and parsing: no end-to-end workload pays these yet


def durability_probe(trace: Trace, graph, schema: Schema, directory: str) -> None:
    """Load *graph* durably, recover it from the log alone, checkpoint.
    Everything is written under *directory*, which is removed again."""
    text = graph_to_string(graph)
    with trace.span("rdf.parse"):
        parsed = read_ntriples(io.StringIO(text))
    if len(parsed) != len(graph):
        raise RuntimeError("N-Triples round trip lost triples")
    shutil.rmtree(directory, ignore_errors=True)
    try:
        durable = DurableStore.open(directory)
        try:
            with trace.span("durability.load") as span:
                durable.load(graph, schema)
            span["wal_bytes"] = durable.wal.size
            span["triples"] = durable.store.triple_count
        finally:
            durable.close()
        with trace.span("durability.recover"):
            recovered = DurableStore.open(directory)
        try:
            if recovered.store.triple_count != span["triples"]:
                raise RuntimeError("recovery lost triples")
            with trace.span("durability.checkpoint"):
                recovered.checkpoint()
        finally:
            recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
