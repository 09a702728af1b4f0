"""Columnar storage and execution: sorted ID-run indexes + vectorized
operators.

The paper's reformulated UCQs explode into hundreds of single-triple
scans unioned and joined, so per-row Python object overhead dominates
exactly where the paper measures its bottleneck.  This package keeps
triples as dense integer IDs end to end:

* :mod:`repro.columnar.indexes` — SPO/POS/OSP sorted integer runs
  over ``array('q')`` columns with binary-search range probes: the
  triple store's table itself, patched or merged on every write;
* :mod:`repro.columnar.chunks` — the column-batch exchange format and
  its sortedness metadata;
* :mod:`repro.columnar.engine` — the streaming execution engine: operators
  over the shared plan IR (index-range scans, k-way sorted-run unions,
  merge joins, mask selections) streaming column chunks, with
  :class:`~repro.engine.metrics.PipelineMetrics` accounting and
  mid-stream :class:`~repro.resilience.budget.ExecutionBudget`
  charging.
"""
