"""A SPARQL-lite parser for the conjunctive (BGP) dialect.

The demo lets attendees type queries; this parser accepts the
conjunctive subset of SPARQL the paper considers (Section 3):

    PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
    SELECT ?x ?z
    WHERE {
      ?x rdf:type ub:Student .
      ?x ub:memberOf ?z
    }

Supported: ``PREFIX`` declarations, ``SELECT`` with a variable list or
``*`` (all variables, in order of appearance), ``ASK`` (boolean
queries), and a ``WHERE`` block of dot-separated triple patterns whose
terms are variables (``?x``), URIs (``<...>``), prefixed names
(``ub:Student``, with ``rdf:``/``rdfs:``/``xsd:`` predeclared) and
literals (``"1949"``).  Anything beyond BGPs (OPTIONAL, FILTER, paths)
is out of scope — exactly as in the paper.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

from ..rdf.namespaces import RDF_NS, RDFS_NS, XSD_NS
from ..rdf.terms import URI
from .algebra import ConjunctiveQuery, PatternTerm, TriplePattern, Variable


class QueryParseError(ValueError):
    """Raised when a query string is not valid SPARQL-lite."""


_DEFAULT_PREFIXES = {
    "rdf": RDF_NS.prefix,
    "rdfs": RDFS_NS.prefix,
    "xsd": XSD_NS.prefix,
}

_TOKEN_RE = re.compile(
    r"""
    \s*(
      PREFIX | SELECT | ASK | WHERE          # keywords (case handled below)
      | \?[A-Za-z_][A-Za-z0-9_]*             # variable
      | <[^>]*>                              # URI
      | "(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>)?    # literal
      | [A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z_][A-Za-z0-9_.-]*   # prefixed name
      | [A-Za-z_][A-Za-z0-9_.-]*:            # bare prefix (in PREFIX decl)
      | [{}.*]                               # punctuation
    )
    """,
    re.VERBOSE | re.IGNORECASE,
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    stripped = text.strip()
    while position < len(stripped):
        match = _TOKEN_RE.match(stripped, position)
        if match is None:
            raise QueryParseError(
                "cannot tokenize query at offset %d: %r"
                % (position, stripped[position:position + 40])
            )
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: Sequence[str]):
        self._tokens = list(tokens)
        self._index = 0

    def peek(self) -> str:
        if self._index >= len(self._tokens):
            raise QueryParseError("unexpected end of query")
        return self._tokens[self._index]

    def next(self) -> str:
        token = self.peek()
        self._index += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        token = self.next()
        if token.upper() != keyword:
            raise QueryParseError("expected %s, found %r" % (keyword, token))

    def expect(self, token: str) -> None:
        found = self.next()
        if found != token:
            raise QueryParseError("expected %r, found %r" % (token, found))

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)


def _parse_term(token: str, prefixes: Dict[str, str]) -> PatternTerm:
    if token.startswith("?"):
        return Variable(token[1:])
    iri = token.startswith("<") and token.endswith(">")
    if iri and "\\" not in token:
        return URI(token[1:-1])
    if iri or token.startswith('"'):  # escapes decode as the data reader's
        from ..rdf.io import parse_term as parse_rdf_term

        return parse_rdf_term(token)
    if ":" in token:
        prefix, _, local = token.partition(":")
        base = prefixes.get(prefix)
        if base is None:
            raise QueryParseError("undeclared prefix %r" % prefix)
        return URI(base + local)
    raise QueryParseError("unrecognized term %r" % token)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a SPARQL-lite string into a :class:`ConjunctiveQuery`.

    >>> q = parse_query('SELECT ?x WHERE { ?x rdf:type <http://e/Book> }')
    >>> q.arity
    1
    """
    stream = _TokenStream(_tokenize(text))
    prefixes = dict(_DEFAULT_PREFIXES)

    while not stream.at_end() and stream.peek().upper() == "PREFIX":
        stream.next()
        prefix_token = stream.next()
        if not prefix_token.endswith(":"):
            raise QueryParseError("malformed PREFIX declaration: %r" % prefix_token)
        uri_token = stream.next()
        if not (uri_token.startswith("<") and uri_token.endswith(">")):
            raise QueryParseError("PREFIX needs a <URI>, found %r" % uri_token)
        prefixes[prefix_token[:-1]] = uri_token[1:-1]

    form = stream.next().upper()
    select_all = False
    head_variables: List[Variable] = []
    if form == "SELECT":
        while stream.peek().upper() != "WHERE":
            token = stream.next()
            if token == "*":
                select_all = True
            elif token.startswith("?"):
                head_variables.append(Variable(token[1:]))
            else:
                raise QueryParseError("bad SELECT item %r" % token)
        if not select_all and not head_variables:
            raise QueryParseError("SELECT needs variables or *")
    elif form == "ASK":
        pass
    else:
        raise QueryParseError("query must start with SELECT or ASK, found %r" % form)

    stream.expect_keyword("WHERE")
    stream.expect("{")
    atoms: List[TriplePattern] = []
    order_of_appearance: List[Variable] = []
    while stream.peek() != "}":
        terms: List[PatternTerm] = []
        for _ in range(3):
            term = _parse_term(stream.next(), prefixes)
            if isinstance(term, Variable) and term not in order_of_appearance:
                order_of_appearance.append(term)
            terms.append(term)
        atoms.append(TriplePattern(terms[0], terms[1], terms[2]))
        if stream.peek() == ".":
            stream.next()
    stream.expect("}")
    if not stream.at_end():
        raise QueryParseError("trailing tokens after WHERE block")
    if not atoms:
        raise QueryParseError("empty WHERE block")

    if form == "ASK":
        head: List[Variable] = []
    elif select_all:
        head = order_of_appearance
    else:
        head = head_variables
    return ConjunctiveQuery(head, atoms)
