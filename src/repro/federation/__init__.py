"""Federated query answering over independent RDF endpoints (the
distributed scenario of the paper's introduction)."""

from .endpoint import Endpoint, ExportForbidden, TruncatedResult, truncate_rows
from .client import FederatedAnswerer

__all__ = [
    "Endpoint",
    "ExportForbidden",
    "FederatedAnswerer",
    "TruncatedResult",
    "truncate_rows",
]
