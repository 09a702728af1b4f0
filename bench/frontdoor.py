"""The two public front doors, in their default configuration.

End-to-end numbers are taken through exactly these calls:
``QueryAnswerer(graph, schema)`` and ``QueryService(graph, schema,
tenants=…)`` with no ``engine=``, no ``interval_encoding=`` and no cache
sizes — so a later change that flips a default or retires an engine
shows up as a gain or a regression in the numbers, not as a broken
benchmark.
"""

from __future__ import annotations

from repro import QueryAnswerer, QueryRequest, QueryService, Strategy
from repro.query.cover import Cover
from repro.query.parser import parse_query
from repro.service.request import DONE

from workloads import Op, Workload

TENANT = "bench"


class OperationFailed(RuntimeError):
    """An operation the workload expected to succeed did not."""


class AnswererDoor:
    """``QueryAnswerer``; set-up includes the saturated store when the
    workload answers with ``Strategy.SAT``."""

    def __init__(self, workload: Workload, graph):
        self.answerer = QueryAnswerer(graph, workload.schema)
        if workload.saturated:
            self.answerer.saturated_store()

    def read(self, op: Op):
        query = parse_query(op.text)
        cover = None if op.cover is None else Cover(query, op.cover)
        report = self.answerer.answer(query, Strategy(op.strategy), cover=cover)
        return report.answer

    def insert(self, triple) -> bool:
        return self.answerer.insert(triple)

    def delete(self, triple) -> bool:
        return self.answerer.delete(triple)


class ServiceDoor:
    """``QueryService`` with one tenant, driven as a closed loop: each
    read is a ``submit`` followed by the ``step`` that executes it."""

    def __init__(self, workload: Workload, graph):
        self.service = QueryService(graph, workload.schema, tenants=[TENANT])

    def read(self, op: Op):
        ticket = self.service.submit(QueryRequest(TENANT, parse_query(op.text)))
        self.service.step()
        if ticket.status != DONE:
            raise OperationFailed(
                "request ended %s: %r" % (ticket.status, ticket.error)
            )
        return ticket.answer

    def insert(self, triple) -> bool:
        return self.service.insert(triple)

    def delete(self, triple) -> bool:
        return self.service.delete(triple)


def open_door(workload: Workload, graph):
    door = ServiceDoor if workload.door == "service" else AnswererDoor
    return door(workload, graph)


def perform(door, op: Op):
    """Run one operation; returns a read's answer, None for a write."""
    if op.action == "read":
        return door.read(op)
    done = door.insert(op.triple) if op.action == "insert" else door.delete(op.triple)
    if not done:
        raise OperationFailed("%s of %r changed nothing" % (op.action, op.triple))
    return None
