"""Baseline systems the paper compares against: SPARQLGX, S2RDF, and Rya.

Each baseline exposes the same minimal interface as
:class:`~repro.core.prost.ProstEngine`::

    system.load(graph)   -> LoadReport
    system.sparql(query) -> ResultSet
    system.last_query_report() -> QueryExecutionReport | None
"""

from .plans import pattern_cardinality
from .rya import INDEXES, Rya, RyaCostModel
from .s2rdf import POSITION_PAIRS, ExtVpEntry, S2Rdf
from .sparqlgx import SparqlGx, SparqlGxDirect

__all__ = [
    "ExtVpEntry",
    "INDEXES",
    "POSITION_PAIRS",
    "Rya",
    "RyaCostModel",
    "S2Rdf",
    "SparqlGx",
    "SparqlGxDirect",
    "pattern_cardinality",
]
