"""Fuzz tests (hypothesis) for the two byte-level codecs the system's
durability rests on, and for the text parsers in front of it:

* the N-Triples reader/writer (``repro.rdf.io``) — arbitrary terms must
  survive serialize→parse, and arbitrary garbage must be *rejected*
  (strict mode) or *skipped-and-collected* (lenient mode), never
  silently misread;
* the WAL record framing (``repro.durability.wal``) — arbitrary payload
  sequences must round-trip, and arbitrary corruption (bit flips,
  truncation, garbage buffers) must never raise from
  :func:`decode_records` and always yields an exact *prefix* of the
  original records — the invariant crash recovery is built on;
* the SPARQL-lite and N-Triples parsers — arbitrary text
  raises their typed errors only.

Like the chaos tests, the exploration is seeded from
``REPRO_CHAOS_SEED`` so each CI matrix leg fuzzes a distinct but
reproducible example stream.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.durability import (
    HEADER_SIZE,
    MAGIC,
    decode_records,
    encode_record,
)
from repro.durability.ops import (
    OP_DELETE,
    OP_INSERT,
    decode_op,
    encode_op,
)
from repro.query import QueryParseError, parse_query
from repro.rdf import (
    BlankNode,
    Graph,
    Literal,
    ParseError,
    Triple,
    URI,
    graph_to_string,
    parse_line,
    parse_term,
    read_ntriples,
)

#: CI sets this per matrix leg; locally the default keeps runs stable.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

fuzz_settings = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# Strategies

#: URI contents: anything printable except ``>`` (the N-Triples token
#: delimiter, which ``URI.n3`` does not escape) and line breaks (the
#: serialization is line-based).
_uri_text = st.text(
    alphabet=st.characters(blacklist_characters=">\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=30,
)
uri_st = st.builds(URI, _uri_text)

#: Blank node labels: the tokenizer's label alphabet, minus ``.`` so a
#: label can never swallow the end-of-statement dot.
blank_st = st.builds(
    BlankNode,
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-",
        min_size=1,
        max_size=12,
    ),
)

#: Literal values: anything at all (including quotes, backslashes,
#: newlines, tabs and the ``^^`` datatype marker) — the escaping layer
#: must cope.  Surrogates are excluded because they cannot be encoded
#: to UTF-8 for the file round-trip.
_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=30,
)
literal_st = st.builds(
    Literal,
    _literal_text,
    st.one_of(st.none(), uri_st),
)

term_st = st.one_of(uri_st, blank_st, literal_st)

triple_st = st.builds(
    Triple,
    st.one_of(uri_st, blank_st),
    uri_st,
    term_st,
)

graph_st = st.lists(triple_st, max_size=10).map(Graph)


# ---------------------------------------------------------------------------
# N-Triples codec: round-trip

@seed(CHAOS_SEED)
@fuzz_settings
@given(term=term_st)
def test_term_roundtrip(term):
    assert parse_term(term.n3()) == term


@seed(CHAOS_SEED + 1)
@fuzz_settings
@given(triple=triple_st)
def test_triple_line_roundtrip(triple):
    assert parse_line(triple.n3()) == triple


@seed(CHAOS_SEED + 2)
@fuzz_settings
@given(graph=graph_st)
def test_graph_roundtrip(graph):
    assert read_ntriples(graph_to_string(graph)) == graph


@seed(CHAOS_SEED + 3)
@fuzz_settings
@given(graph=graph_st)
def test_file_roundtrip(graph, tmp_path_factory):
    from repro.rdf import load_file, save_file

    path = str(tmp_path_factory.mktemp("fuzz") / "g.nt")
    save_file(graph, path)
    assert load_file(path) == graph


# ---------------------------------------------------------------------------
# N-Triples codec: garbage rejection

def _line_is_garbage(line):
    """True when *line* is neither ignorable nor a parseable triple."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return False
    try:
        parse_line(stripped)
        return False
    except ParseError:
        return True


@seed(CHAOS_SEED + 4)
@fuzz_settings
@given(
    text=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
    )
)
def test_garbage_never_crashes_and_strict_lenient_agree(text):
    """Arbitrary text either parses or raises ParseError — nothing
    else — and lenient mode skips exactly the lines strict mode would
    have raised on."""
    lines = text.split("\n")
    garbage_lines = [
        number for number, line in enumerate(lines, start=1)
        if _line_is_garbage(line)
    ]
    errors = []
    graph = read_ntriples(text, strict=False, errors=errors)
    assert [error.line_number for error in errors] == garbage_lines
    for error in errors:
        assert error.line_text is not None
        assert error.reason
    if garbage_lines:
        try:
            read_ntriples(text)
            raise AssertionError("strict mode accepted a garbage line")
        except ParseError as exc:
            assert exc.line_number == garbage_lines[0]
    else:
        assert read_ntriples(text) == graph


@seed(CHAOS_SEED + 5)
@fuzz_settings
@given(graph=graph_st, junk=st.text(max_size=20))
def test_lenient_load_recovers_good_lines(graph, junk):
    """Interleaving junk lines with a serialized graph: lenient mode
    recovers exactly the graph, collecting one error per junk line."""
    # Split on '\n' exactly as the reader does — str.splitlines would
    # also split on U+0085/U+2028, which literals may legally contain.
    good_lines = [
        line for line in graph_to_string(graph).split("\n") if line
    ]
    junk_line = junk.replace("\n", " ").replace("\r", " ")
    interleaved = []
    for line in good_lines:
        interleaved.append(junk_line)
        interleaved.append(line)
    interleaved.append(junk_line)
    text = "\n".join(interleaved)
    errors = []
    recovered = read_ntriples(text, strict=False, errors=errors)
    junk_is_bad = _line_is_garbage(junk_line)
    assert recovered == graph
    assert len(errors) == (len(good_lines) + 1 if junk_is_bad else 0)


# ---------------------------------------------------------------------------
# Text parsers: typed errors only

#: Tokens of the three input languages, so that generated documents get
#: past the tokenizers often enough to reach term and triple checks.
_SOURCE_TOKENS = [
    "@prefix", "@base", "ex:", "ex:a", "ex:p", ":a", "a", "<http://e/a>", "<>",
    "< >", "_:b", '"lit"', '"x"^^<http://e/t>', '"x"^^ex:t', ";", ",", ".",
    "PREFIX", "SELECT", "DISTINCT", "WHERE", "FILTER", "{", "}", "(", ")", "*",
    "?x", "?y", "rdf:type", "rdfs:subClassOf", "#", "\n",
]
source_text_st = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60),
    st.lists(st.sampled_from(_SOURCE_TOKENS), max_size=14).map(" ".join),
)


@seed(CHAOS_SEED + 11)
@fuzz_settings
@example(text="_:b _:b _:b")
@example(text='"lit" a <http://a/>')
@given(text=source_text_st)
def test_text_parsers_raise_only_typed_errors(text):
    """Malformed input gets a typed error (and the CLI exit code 2),
    never a traceback from a constructor underneath."""
    for parse, typed in (
        (parse_query, QueryParseError),
        (read_ntriples, ParseError),
    ):
        try:
            parse(text)
        except typed:
            pass


# ---------------------------------------------------------------------------
# WAL record codec: round-trip

payloads_st = st.lists(st.binary(max_size=40), max_size=8)


@seed(CHAOS_SEED + 6)
@fuzz_settings
@given(payloads=payloads_st)
def test_wal_roundtrip(payloads):
    buffer = b"".join(encode_record(payload) for payload in payloads)
    result = decode_records(buffer)
    assert result.records == payloads
    assert result.valid_length == len(buffer)
    assert not result.truncated


@seed(CHAOS_SEED + 7)
@fuzz_settings
@given(payloads=payloads_st, data=st.data())
def test_wal_truncation_yields_exact_prefix(payloads, data):
    """Cutting the buffer at any byte yields the exact record prefix
    whose frames fit, flagged truncated unless the cut is a boundary."""
    buffer = b"".join(encode_record(payload) for payload in payloads)
    cut = data.draw(st.integers(0, len(buffer)))
    result = decode_records(buffer[:cut])
    boundaries = [0]
    for payload in payloads:
        boundaries.append(boundaries[-1] + HEADER_SIZE + len(payload))
    survivors = sum(1 for b in boundaries[1:] if b <= cut)
    assert result.records == payloads[:survivors]
    assert result.valid_length == boundaries[survivors]
    assert result.truncated == (cut != boundaries[survivors])


@seed(CHAOS_SEED + 8)
@fuzz_settings
@given(payloads=payloads_st.filter(lambda p: p), data=st.data())
def test_wal_bit_flip_truncates_at_damaged_frame(payloads, data):
    """Flipping any byte never raises, and every record *before* the
    damaged frame survives intact while the damaged one is dropped."""
    buffer = bytearray(b"".join(encode_record(payload) for payload in payloads))
    position = data.draw(st.integers(0, len(buffer) - 1))
    flip = data.draw(st.integers(1, 255))
    buffer[position] ^= flip
    result = decode_records(bytes(buffer))
    boundaries = [0]
    for payload in payloads:
        boundaries.append(boundaries[-1] + HEADER_SIZE + len(payload))
    intact = sum(1 for b in boundaries[1:] if b <= position)
    # CRC/magic/length checks must stop the decode at the damaged
    # frame; everything before it is untouched bytes and must decode.
    assert result.records[:intact] == payloads[:intact]
    assert len(result.records) == intact
    assert result.truncated
    assert result.valid_length == boundaries[intact]


@seed(CHAOS_SEED + 9)
@fuzz_settings
@given(garbage=st.binary(max_size=80))
def test_wal_garbage_never_raises(garbage):
    """Arbitrary bytes decode to a (possibly empty) valid prefix."""
    result = decode_records(garbage)
    assert 0 <= result.valid_length <= len(garbage)
    assert result.records == [] or garbage[:2] == MAGIC
    if result.valid_length != len(garbage):
        assert result.truncated and result.reason


@seed(CHAOS_SEED + 10)
@fuzz_settings
@given(triple=triple_st, data=st.data())
def test_op_payload_roundtrip(triple, data):
    """The op layer on top of the framing: T±/C± payloads round-trip
    through encode→frame→decode→decode_op."""
    op = data.draw(st.sampled_from([OP_INSERT, OP_DELETE]))
    payload = encode_op(op, triple)
    framed = decode_records(encode_record(payload))
    assert framed.records == [payload]
    decoded_op, decoded_triple = decode_op(framed.records[0])
    assert (decoded_op, decoded_triple) == (op, triple)
