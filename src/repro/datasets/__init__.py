"""Datasets and workloads: the running example, LUBM-style, INSEE-like
and DBLP-like generators (S10)."""

from .books import books_dataset, books_example_query, books_graph, books_schema
from .dblp_like import bib_queries, generate_bib
from .insee_like import generate_geo, geo_queries
from .lubm import GeneratorConfig, UB, generate_lubm, lubm_schema, university_uri
from .lubm_queries import example1_best_cover, example1_query, lubm_queries

__all__ = [
    "GeneratorConfig",
    "UB",
    "bib_queries",
    "books_dataset",
    "books_example_query",
    "books_graph",
    "books_schema",
    "example1_best_cover",
    "example1_query",
    "generate_bib",
    "generate_geo",
    "generate_lubm",
    "geo_queries",
    "lubm_queries",
    "lubm_schema",
    "university_uri",
]
