"""In-memory spans recorded by the benchmark around each layer call.

The program itself carries no spans yet (ROADMAP item 1), so the traced
run replays the answering chain from ``bench/`` and brackets every call
into a layer with :meth:`Trace.span`.  Spans stay in memory while the
run measures and are written out once, at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Trace:
    """A flat list of ``{name, op, kind, start, end, parent}`` records.

    ``parent`` is the index of the enclosing span (None for a root);
    every span opened while :meth:`op` is active carries that
    operation's index and kind, which is the identifier spans of one
    operation share.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[int] = []
        self._op: Optional[int] = None
        self._kind: Optional[str] = None

    @contextmanager
    def op(self, index: int, kind: str, name: str = "op") -> Iterator[Dict]:
        """The root span of one operation."""
        self._op, self._kind = index, kind
        try:
            with self.span(name) as record:
                yield record
        finally:
            self._op = self._kind = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        """Time the enclosed block; the yielded record takes extra
        attributes (counts measured at the same boundary)."""
        record = {
            "name": name,
            "op": self._op,
            "kind": self._kind,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def discard_since(self, mark: int) -> None:
        """Forget the spans recorded after ``len(spans)`` was *mark*
        (the warm-up pass); none may still be open."""
        del self.spans[mark:]

    # ------------------------------------------------------------------
    # Reading the trace

    def named(self, name: str) -> List[Dict]:
        return [span for span in self.spans if span["name"] == name]

    def durations(self, name: str) -> List[float]:
        return [span["end"] - span["start"] for span in self.named(name)]

    def seconds(self, name: str) -> float:
        """Total time spent in spans called *name*."""
        return sum(self.durations(name))

    def total(self, name: str, attribute: str) -> float:
        """Sum of a count attribute over the spans called *name*."""
        return sum(span.get(attribute, 0) for span in self.named(name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span, sort_keys=True) + "\n")
