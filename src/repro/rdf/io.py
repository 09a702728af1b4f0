"""Reading and writing graphs in an N-Triples-style line format.

The demo lets attendees load datasets from files; this module provides
the minimal, dependency-free serialization used for that: one triple
per line, terms in N-Triples syntax, ``#`` comments and blank lines
ignored.  Parsing is strict by default — malformed lines raise
:class:`ParseError` carrying the offending line number *and text*,
because silently dropping data would corrupt every experiment built on
top.  Bulk loads that prefer resilience over abortion pass
``strict=False`` to :func:`read_ntriples`/:func:`load_file`: bad lines
are skipped and collected (into a caller-supplied ``errors`` list)
instead of aborting a multi-gigabyte load on its first typo.
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, List, Optional, Union

from .graph import Graph
from .terms import BlankNode, Literal, Term, URI
from .triples import Triple


class ParseError(ValueError):
    """Raised when a serialized triple cannot be parsed.

    ``line_number`` (1-based, 0 when unknown) and ``line_text`` (the
    offending input line, None when unknown) let callers report *what*
    failed, not just where; ``reason`` keeps the bare message.
    """

    def __init__(
        self,
        message: str,
        line_number: int = 0,
        line_text: Optional[str] = None,
    ):
        self.reason = message
        self.line_number = line_number
        self.line_text = line_text
        if line_text is not None:
            message = "%s: %r" % (message, line_text)
        if line_number:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"""
    \s*(
      <[^>]*>                                   # URI
      | _:[A-Za-z0-9_.-]+                       # blank node
      | "(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>)?       # literal, optional datatype
      | \.                                      # end-of-statement dot
    )
    """,
    re.VERBOSE,
)

#: N-Triples ECHAR escapes; :meth:`Literal.n3` writes five of them.
_LITERAL_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}

#: One backslash sequence: ECHAR, UCHAR (``\uXXXX``, ``\UXXXXXXXX``),
#: or anything else, which is an error.
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)

#: A complete literal token: quoted body (escape-aware, so a ``\"``
#: inside the value cannot close it), optional ``^^<datatype>``.
#: Splitting on ``^^`` textually is wrong — the *value* may contain it.
_LITERAL_TOKEN_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:\^\^(<[^>]*>))?$')


def _unescape_literal(raw: str) -> str:
    """Decode literal escapes in one left-to-right pass.

    A sequential ``str.replace`` chain is wrong here: ``\\\\n`` (an
    escaped backslash followed by ``n``) must decode to backslash+n,
    not to a newline, so each escape has to be consumed exactly once.
    A backslash sequence N-Triples does not define is a
    :class:`ParseError`.
    """
    if "\\" not in raw:
        return raw
    return _ESCAPE_RE.sub(_decode_escape, raw)


def _decode_escape(match: re.Match) -> str:
    hex4, hex8, char = match.groups()
    if char is not None:
        if char in _LITERAL_ESCAPES:
            return _LITERAL_ESCAPES[char]
        raise ParseError("invalid escape %r in literal" % match.group(0))
    code = int(hex4 or hex8, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ParseError("escape %r is not a code point" % match.group(0))
    return chr(code)


def parse_term(token: str) -> Term:
    """Parse a single N-Triples term token.

    >>> parse_term('<http://example.org/a>')
    URI('http://example.org/a')
    >>> parse_term('_:b1')
    BlankNode('b1')
    >>> parse_term('"1949"')
    Literal('1949')
    """
    if token.startswith("<") and token.endswith(">"):
        inner = token[1:-1]
        if not inner:
            raise ParseError("empty URI token")
        return URI(inner)
    if token.startswith("_:"):
        label = token[2:]
        if not label:
            raise ParseError("empty blank node label")
        return BlankNode(label)
    if token.startswith('"'):
        match = _LITERAL_TOKEN_RE.match(token)
        if match is None:
            raise ParseError("malformed literal token: %r" % token)
        datatype = None
        if match.group(2) is not None:
            datatype_term = parse_term(match.group(2))
            if not isinstance(datatype_term, URI):
                raise ParseError("literal datatype must be a URI: %r" % token)
            datatype = datatype_term
        return Literal(_unescape_literal(match.group(1)), datatype)
    raise ParseError("unrecognized term token: %r" % token)


def parse_line(line: str, line_number: int = 0) -> Triple:
    """Parse one ``s p o .`` line into a :class:`Triple`."""
    tokens: List[str] = []
    position = 0
    stripped = line.strip()
    while position < len(stripped):
        match = _TOKEN_RE.match(stripped, position)
        if match is None:
            raise ParseError(
                "cannot tokenize at offset %d" % position, line_number, stripped
            )
        tokens.append(match.group(1))
        position = match.end()
    if tokens and tokens[-1] == ".":
        tokens.pop()
    if len(tokens) != 3:
        raise ParseError(
            "expected 3 terms, found %d" % len(tokens), line_number, stripped
        )
    try:
        subject, prop, obj = (parse_term(token) for token in tokens)
        return Triple(subject, prop, obj)
    except ParseError as exc:
        raise ParseError(exc.reason, line_number, stripped) from None
    except ValueError as exc:
        raise ParseError(str(exc), line_number, stripped) from None


def read_ntriples(
    source: Union[str, IO[str]],
    strict: bool = True,
    errors: Optional[List[ParseError]] = None,
) -> Graph:
    """Parse a graph from a string or text stream.

    With ``strict=True`` (the default) the first malformed line raises
    :class:`ParseError`.  With ``strict=False`` malformed lines are
    *skipped*; each skipped line's :class:`ParseError` (with line
    number and text) is appended to *errors* when a list is supplied,
    so bulk loaders can report every bad line after the load finishes
    instead of aborting on the first one.

    >>> g = read_ntriples('<http://e/a> <http://e/p> "v" .')
    >>> len(g)
    1
    >>> bad = []
    >>> g = read_ntriples('junk !\\n<http://e/a> <http://e/p> "v" .',
    ...                   strict=False, errors=bad)
    >>> len(g), bad[0].line_number
    (1, 1)
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    graph = Graph()
    for line_number, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            graph.add(parse_line(stripped, line_number))
        except ParseError as exc:
            if strict:
                raise
            if errors is not None:
                errors.append(exc)
    return graph


def write_ntriples(graph: Iterable[Triple], sink: IO[str]) -> int:
    """Write triples in deterministic (sorted) order; return the count."""
    count = 0
    for triple in sorted(graph):
        sink.write(triple.n3())
        sink.write("\n")
        count += 1
    return count


def graph_to_string(graph: Iterable[Triple]) -> str:
    """Serialize a graph to an N-Triples string (sorted, reproducible)."""
    buffer = io.StringIO()
    write_ntriples(graph, buffer)
    return buffer.getvalue()


def load_file(
    path: str,
    strict: bool = True,
    errors: Optional[List[ParseError]] = None,
) -> Graph:
    """Read a graph from the file at *path* (see :func:`read_ntriples`
    for the ``strict``/``errors`` skip-and-collect contract)."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_ntriples(handle, strict=strict, errors=errors)


def save_file(graph: Iterable[Triple], path: str) -> int:
    """Write a graph to the file at *path*; return the triple count."""
    with open(path, "w", encoding="utf-8") as handle:
        return write_ntriples(graph, handle)
