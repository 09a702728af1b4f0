"""The RDF data model: terms, triples, graphs and serialization (S1)."""

from .graph import Graph
from .io import ParseError, graph_to_string, load_file, parse_line, parse_term, read_ntriples, save_file, write_ntriples
from .namespaces import (
    Namespace,
    RDF_NS,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_NS,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    SCHEMA_PROPERTIES,
    shorten,
)
from .terms import BlankNode, Literal, URI
from .triples import Triple

__all__ = [
    "BlankNode",
    "Graph",
    "Literal",
    "Namespace",
    "ParseError",
    "RDF_NS",
    "RDF_TYPE",
    "RDFS_DOMAIN",
    "RDFS_NS",
    "RDFS_RANGE",
    "RDFS_SUBCLASSOF",
    "RDFS_SUBPROPERTYOF",
    "SCHEMA_PROPERTIES",
    "Triple",
    "URI",
    "graph_to_string",
    "load_file",
    "parse_line",
    "parse_term",
    "read_ntriples",
    "save_file",
    "shorten",
    "write_ntriples",
]
