"""The execution engine's shared parts: plan IR, metrics, SQL lowering.

One backend-neutral operator algebra (:mod:`repro.engine.ir`) shared
by the planner, the cost model, EXPLAIN, the columnar executor and
the SQL lowering; the per-operator metrics the streaming executor
reports (:mod:`repro.engine.metrics`); and an IR→SQL lowering
(:mod:`repro.engine.lowering`) for real RDBMSs.
"""
