"""Datalog engine and the Dat encoding of RDF query answering (S9)."""

from .encoding import answer_query, encode
from .engine import evaluate_program
from .terms import DatalogAtom, DatalogProgram, DatalogRule, DVar

__all__ = [
    "DVar",
    "DatalogAtom",
    "DatalogProgram",
    "DatalogRule",
    "answer_query",
    "encode",
    "evaluate_program",
]
