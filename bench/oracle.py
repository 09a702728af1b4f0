"""Expected answers from a reference that shares no code with the
strategies under test: ``saturation.saturate`` then
``query.evaluation.evaluate`` (backtracking over the logical graph).

The reference is slow, so its answers are kept as ``{rows, sha256}``
per checked read: committed under ``bench/expected/`` for seed 42,
computed on first use and kept under ``bench/out/expected/`` for any
other seed.  A stored file is used only while the fingerprint of the
inputs it was computed from still matches.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.saturation.engine import saturate

from workloads import Workload, final_graph

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(HERE, "expected")
COMPUTED = os.path.join(HERE, "out", "expected")


def digest(answer) -> Dict:
    """``{rows, sha256}`` of an answer: the hash is over the sorted
    N3 rendering of its rows, so it is independent of set order."""
    lines = sorted(" ".join(term.n3() for term in row) for row in answer)
    return {
        "rows": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
    }


def _fingerprint(workload: Workload, graph) -> str:
    hasher = hashlib.sha256()
    for line in sorted(
        " ".join(term.n3() for term in triple.as_tuple()) for triple in graph
    ):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    for key, op in workload.samples:
        hasher.update(("%s %s\n" % (key, op.text)).encode("utf-8"))
    return hasher.hexdigest()


def _file_name(workload: Workload, seed: int, smoke: bool) -> str:
    return "%s%s-seed%d.json" % (workload.name, "-smoke" if smoke else "", seed)


def expected_answers(
    workload: Workload, seed: int, smoke: bool = False, regenerate: bool = False
) -> Dict[str, Dict]:
    """The reference ``{rows, sha256}`` of every checked read of
    *workload*, from a stored file when one matches, else computed and
    stored (``regenerate`` recomputes and writes the committed copy)."""
    graph = final_graph(workload)
    fingerprint = _fingerprint(workload, graph)
    name = _file_name(workload, seed, smoke)
    if not regenerate:
        for directory in (COMMITTED, COMPUTED):
            stored = _load(os.path.join(directory, name))
            if stored is not None and stored["fingerprint"] == fingerprint:
                return stored["answers"]
    saturated = saturate(graph, workload.schema)
    answers = {
        key: digest(evaluate(saturated, parse_query(op.text)))
        for key, op in workload.samples
    }
    directory = COMMITTED if regenerate else COMPUTED
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as sink:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "universities": workload.universities,
                "ops": len(workload.ops),
                "fingerprint": fingerprint,
                "answers": answers,
            },
            sink,
            indent=1,
            sort_keys=True,
        )
        sink.write("\n")
    return answers


def _load(path: str) -> Optional[Dict]:
    try:
        with open(path, encoding="utf-8") as source:
            return json.load(source)
    except FileNotFoundError:
        return None
