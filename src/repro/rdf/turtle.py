"""A Turtle-lite reader and writer.

Real RDF datasets (the demo's INSEE/IGN/DBLP scenarios) ship as Turtle;
this module reads the practical core of the syntax:

* ``@prefix`` declarations and prefixed names (``ub:Student``);
* the ``a`` keyword for ``rdf:type``;
* predicate lists (``;``) and object lists (``,``);
* URIs, blank nodes, plain/typed literals, comments.

Out of scope (rejected, never silently misread): collections ``( )``,
anonymous blank nodes ``[ ]``, ``@base``-relative URIs, multi-line
literals, and numeric/boolean literal sugar.  The writer produces
deterministic, subject-grouped Turtle that round-trips through the
reader.
"""

from __future__ import annotations

import io
import re
from collections import defaultdict
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

from .graph import Graph
from .io import ParseError, parse_term
from .namespaces import RDF_TYPE, WELL_KNOWN_PREFIXES
from .terms import Literal, Term, URI
from .triples import Triple

_TOKEN_RE = re.compile(
    r"""
    \s*(
      @prefix | @base
      | <[^>]*>                               # URI
      | _:[A-Za-z0-9_.-]+                     # blank node
      | "(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>|\^\^[A-Za-z_][\w.-]*:[\w.-]+)?  # literal
      | [A-Za-z_][\w.-]*:[A-Za-z_][\w.-]*     # prefixed name
      | [A-Za-z_][\w.-]*:                     # bare prefix
      | :[A-Za-z_][\w.-]*                     # default-prefix name
      | \ba\b                                 # rdf:type keyword
      | [;,.]                                 # punctuation
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Tuple[List[str], List[int]]:
    """The document's tokens and, parallel to them, their line numbers."""
    tokens: List[str] = []
    lines: List[int] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(line)
        position = 0
        while position < len(stripped):
            match = _TOKEN_RE.match(stripped, position)
            if match is None:
                raise ParseError(
                    "cannot tokenize %r" % stripped[position:position + 30],
                    line_number,
                )
            tokens.append(match.group(1))
            lines.append(line_number)
            position = match.end()
    return tokens, lines


def _strip_comment(line: str) -> str:
    """Remove a trailing ``# comment``, respecting quoted strings and
    URI brackets."""
    in_string = False
    in_uri = False
    escaped = False
    for index, char in enumerate(line):
        if escaped:
            escaped = False
            continue
        if char == "\\" and in_string:
            escaped = True
        elif char == '"':
            in_string = not in_string
        elif char == "<" and not in_string:
            in_uri = True
        elif char == ">" and not in_string:
            in_uri = False
        elif char == "#" and not in_string and not in_uri:
            return line[:index].rstrip()
    return line.rstrip()


class _Parser:
    def __init__(self, tokens: List[str], lines: List[int]):
        self.tokens = tokens
        self.lines = lines
        self.index = 0
        self.prefixes: Dict[str, str] = {
            short: prefix for prefix, short in WELL_KNOWN_PREFIXES.items()
        }
        # WELL_KNOWN_PREFIXES maps prefix→short; invert it.
        self.prefixes = {
            short: prefix for prefix, short in WELL_KNOWN_PREFIXES.items()
        }

    def peek(self) -> Optional[str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of Turtle document")
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        found = self.next()
        if found != token:
            raise ParseError("expected %r, found %r" % (token, found))

    # ------------------------------------------------------------------

    def parse(self) -> Graph:
        graph = Graph()
        while self.peek() is not None:
            token = self.peek()
            if token == "@prefix":
                self._prefix_declaration()
            elif token == "@base":
                raise ParseError("@base is not supported by the Turtle-lite reader")
            else:
                self._statement(graph)
        return graph

    def _prefix_declaration(self) -> None:
        self.expect("@prefix")
        prefix_token = self.next()
        if not prefix_token.endswith(":"):
            raise ParseError("malformed @prefix: %r" % prefix_token)
        uri_token = self.next()
        if not (uri_token.startswith("<") and uri_token.endswith(">")):
            raise ParseError("@prefix needs a <URI>, found %r" % uri_token)
        self.prefixes[prefix_token[:-1]] = uri_token[1:-1]
        self.expect(".")

    def _term(self, token: str) -> Term:
        if token == "a":
            return RDF_TYPE
        if token.startswith("<") or token.startswith("_:"):
            return parse_term(token)
        if token.startswith('"'):
            if "^^" in token and not token.rpartition("^^")[2].startswith("<"):
                body, _, dt_name = token.rpartition("^^")
                datatype = self._term(dt_name)
                if not isinstance(datatype, URI):
                    raise ParseError("bad literal datatype %r" % dt_name)
                literal = parse_term(body)
                return Literal(literal.value, datatype)
            return parse_term(token)
        if ":" in token:
            prefix, _, local = token.partition(":")
            base = self.prefixes.get(prefix)
            if base is None:
                raise ParseError("undeclared prefix %r" % prefix)
            return URI(base + local)
        raise ParseError("unrecognized Turtle term %r" % token)

    def _statement(self, graph: Graph) -> None:
        subject = self._term(self.next())
        while True:
            predicate = self._term(self.next())
            while True:
                obj = self._term(self.next())
                try:
                    triple = Triple(subject, predicate, obj)
                except ValueError as exc:
                    # A literal subject or a non-URI property: typed
                    # like the N-Triples reader's, with the line.
                    raise ParseError(str(exc), self.lines[self.index - 1]) from None
                graph.add(triple)
                if self.peek() == ",":
                    self.next()
                    continue
                break
            token = self.next()
            if token == ";":
                # Tolerate trailing ';' before '.'
                if self.peek() == ".":
                    self.next()
                    return
                continue
            if token == ".":
                return
            raise ParseError("expected ';' or '.', found %r" % token)


def read_turtle(source: Union[str, IO[str]]) -> Graph:
    """Parse a Turtle-lite document into a graph.

    >>> g = read_turtle('@prefix ex: <http://e/> . ex:a a ex:C ; ex:p ex:b , ex:c .')
    >>> len(g)
    3
    """
    if not isinstance(source, str):
        source = source.read()
    return _Parser(*_tokenize(source)).parse()


def write_turtle(
    graph: Iterable[Triple],
    sink: IO[str],
    prefixes: Optional[Dict[str, str]] = None,
) -> int:
    """Write subject-grouped, deterministic Turtle; returns the count.

    *prefixes* maps short names to URI prefixes; the well-known
    ``rdf:``/``rdfs:``/``xsd:`` prefixes are always available.
    """
    table: Dict[str, str] = {
        short: prefix for prefix, short in WELL_KNOWN_PREFIXES.items()
    }
    if prefixes:
        table.update(prefixes)

    def render(term: Term) -> str:
        if isinstance(term, URI):
            if term == RDF_TYPE:
                return "a"
            for short, base in sorted(table.items()):
                local = term.value[len(base):]
                if (
                    term.value.startswith(base)
                    and local
                    and re.fullmatch(r"[A-Za-z_][\w.-]*", local)
                ):
                    return "%s:%s" % (short, local)
        return term.n3()

    count = 0
    for short, base in sorted(table.items()):
        sink.write("@prefix %s: <%s> .\n" % (short, base))
    sink.write("\n")

    by_subject: Dict[Term, List[Triple]] = defaultdict(list)
    for triple in graph:
        by_subject[triple.subject].append(triple)
    for subject in sorted(by_subject, key=lambda term: term.sort_key()):
        triples = sorted(by_subject[subject])
        parts: List[str] = []
        for triple in triples:
            parts.append(
                "%s %s" % (render(triple.property), render(triple.object))
            )
            count += 1
        sink.write("%s %s .\n" % (render(subject), " ;\n    ".join(parts)))
    return count


def turtle_to_string(
    graph: Iterable[Triple], prefixes: Optional[Dict[str, str]] = None
) -> str:
    buffer = io.StringIO()
    write_turtle(graph, buffer, prefixes)
    return buffer.getvalue()
