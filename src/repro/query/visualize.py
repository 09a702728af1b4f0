"""Text visualization of queries and covers.

"Our demo represents [UCQ and SCQ strategies] by the corresponding
covers, which are well suited to a graphical visualization"
(Section 5).  This module renders the two panels of that visualization
in plain text: the query's *join graph* (atoms as nodes, shared
variables as edges) and a cover's fragment grouping over it — plus
the aligned tables the CLI and the examples print results in.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .algebra import ConjunctiveQuery, Variable
from .cover import Cover


def join_graph(query: ConjunctiveQuery) -> Dict[Tuple[int, int], Set[Variable]]:
    """The query's join graph: (atom index pair) → shared variables."""
    edges: Dict[Tuple[int, int], Set[Variable]] = {}
    for first in range(len(query.atoms)):
        for second in range(first + 1, len(query.atoms)):
            shared = (
                query.atoms[first].variables()
                & query.atoms[second].variables()
            )
            if shared:
                edges[(first, second)] = shared
    return edges


def render_query(query: ConjunctiveQuery) -> str:
    """The atom list plus the join edges.

    >>> # print(render_query(example1_query()))
    """
    lines: List[str] = ["atoms:"]
    for index, atom in enumerate(query.atoms, start=1):
        lines.append("  t%d: %s" % (index, atom))
    edges = join_graph(query)
    if edges:
        lines.append("join edges:")
        for (first, second), shared in sorted(edges.items()):
            names = ", ".join(sorted("?%s" % v.name for v in shared))
            lines.append("  t%d -- t%d   on %s" % (first + 1, second + 1, names))
    else:
        lines.append("join edges: (none — cartesian)")
    return "\n".join(lines)


def render_cover(cover: Cover) -> str:
    """The cover as a fragment/atom matrix — the demo's grouping panel.

    Columns are atoms, rows are fragments; ``■`` marks membership, so
    overlaps (the paper's best cover shares t3 and t4) show up as
    columns with several marks.
    """
    atom_count = len(cover.query.atoms)
    header = "fragment " + " ".join(
        "t%-2d" % (index + 1) for index in range(atom_count)
    )
    lines = [header, "-" * len(header)]
    for number, fragment in enumerate(cover.fragments, start=1):
        cells = " ".join(
            " ■ " if index in fragment else " · "
            for index in range(atom_count)
        )
        lines.append("F%-7d %s" % (number, cells))
    overlap = defaultdict(int)
    for fragment in cover.fragments:
        for index in fragment:
            overlap[index] += 1
    shared = [index + 1 for index, count in sorted(overlap.items()) if count > 1]
    if shared:
        lines.append(
            "overlapping atoms: %s" % ", ".join("t%d" % i for i in shared)
        )
    return "\n".join(lines)


def render_strategy(cover: Cover) -> str:
    """Both panels plus the classical-strategy labels."""
    label = "JUCQ cover"
    if len(cover.fragments) == 1:
        label = "UCQ (single-fragment cover)"
    elif all(len(fragment) == 1 for fragment in cover.fragments):
        label = "SCQ (one-atom-per-fragment cover)"
    return "%s\n\n%s\n\n%s" % (
        render_query(cover.query),
        render_cover(cover),
        "strategy: %s" % label,
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table.

    >>> print(format_table(["a", "b"], [[1, "x"], [22, "yy"]]))
    a  | b
    ---+---
    1  | x
    22 | yy
    """
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            " | ".join(value.ljust(widths[i]) for i, value in enumerate(row))
        )
    return "\n".join(lines)
