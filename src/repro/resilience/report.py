"""Completeness accounting for degraded federated answers.

The paper's federation is honest about truncation (a single bool).
Under the resilience layer an answer can additionally be *degraded*
(an endpoint failed past its retries or deadline) or computed with an
endpoint *skipped* entirely (open circuit).  A
:class:`CompletenessReport` replaces the single flag with per-endpoint
status, retry counts and elapsed budget — the contract the client,
CLI, benchmark and cache all share (degraded sub-answers are never
cached as complete).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: Per-endpoint terminal statuses, ordered by severity.
OK = "ok"
TRUNCATED = "truncated"
DEGRADED = "degraded"
SKIPPED_OPEN_CIRCUIT = "skipped-open-circuit"

_SEVERITY = {OK: 0, TRUNCATED: 1, DEGRADED: 2, SKIPPED_OPEN_CIRCUIT: 3}


class EndpointReport:
    """One endpoint's accounting across a single federated answer."""

    def __init__(self, name: str):
        self.name = name
        self.status = OK
        #: Requests actually sent (each retry attempt counts).
        self.requests = 0
        #: Attempts beyond the first, summed over this answer's atoms.
        self.retries = 0
        #: Rows this endpoint contributed (post-truncation, pre-dedup).
        self.rows = 0
        #: Sub-answers served from the cache instead of the network.
        self.cache_hits = 0
        #: Time attributed to this endpoint's calls (injected clock).
        self.elapsed_seconds = 0.0
        #: Messages of the failures observed (transient ones included).
        self.errors: List[str] = []

    def note_status(self, status: str) -> None:
        """Record an outcome; the endpoint keeps its *worst* status."""
        if _SEVERITY[status] > _SEVERITY[self.status]:
            self.status = status

    def note_error(self, error: BaseException) -> None:
        self.errors.append("%s: %s" % (type(error).__name__, error))

    @property
    def ok(self) -> bool:
        return self.status == OK

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "status": self.status,
            "requests": self.requests,
            "retries": self.retries,
            "rows": self.rows,
            "cache_hits": self.cache_hits,
            "elapsed_seconds": self.elapsed_seconds,
            "errors": list(self.errors),
        }

    def __repr__(self) -> str:
        return "EndpointReport(%r, %s, %d requests, %d retries)" % (
            self.name,
            self.status,
            self.requests,
            self.retries,
        )


class CompletenessReport:
    """Per-endpoint status for one federated answer.

    ``complete`` holds exactly when every endpoint finished ``ok`` —
    then (and only then) the answer is certified complete over the
    union of sources.  Any truncated/degraded/skipped endpoint makes
    the answer a sound *subset* of the complete one.
    """

    def __init__(self, endpoint_names: Iterable[str]):
        self.endpoints: Dict[str, EndpointReport] = {
            name: EndpointReport(name) for name in endpoint_names
        }
        #: Total answering time for the whole federated call.
        self.elapsed_seconds = 0.0

    def __getitem__(self, name: str) -> EndpointReport:
        return self.endpoints[name]

    def __iter__(self):
        return iter(self.endpoints.values())

    @property
    def complete(self) -> bool:
        return all(entry.ok for entry in self)

    @property
    def truncated(self) -> bool:
        return any(entry.status == TRUNCATED for entry in self)

    @property
    def degraded_endpoints(self) -> List[str]:
        return [entry.name for entry in self if entry.status == DEGRADED]

    @property
    def skipped_endpoints(self) -> List[str]:
        return [entry.name for entry in self
                if entry.status == SKIPPED_OPEN_CIRCUIT]

    def total_retries(self) -> int:
        return sum(entry.retries for entry in self)

    def as_dict(self) -> Dict:
        return {
            "complete": self.complete,
            "elapsed_seconds": self.elapsed_seconds,
            "endpoints": [entry.as_dict() for entry in self],
        }

    def summary(self) -> str:
        """A human-readable rendering, one endpoint per line."""
        lines = [
            "answer %s (%.1f ms)"
            % (
                "COMPLETE" if self.complete else "PARTIAL",
                self.elapsed_seconds * 1e3,
            )
        ]
        for entry in self:
            line = "  %-12s %-20s %d request(s), %d retr%s, %d row(s)" % (
                entry.name,
                entry.status,
                entry.requests,
                entry.retries,
                "y" if entry.retries == 1 else "ies",
                entry.rows,
            )
            if entry.errors:
                line += "  [last: %s]" % entry.errors[-1]
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "complete" if self.complete else (
            "partial: " + ",".join(
                "%s=%s" % (e.name, e.status) for e in self if not e.ok
            )
        )
        return "CompletenessReport(%s)" % status
