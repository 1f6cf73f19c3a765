"""Baseline systems the paper compares against: SPARQLGX, S2RDF, and Rya.

Each baseline exposes the same minimal interface as
:class:`~repro.core.prost.ProstEngine`::

    system.load(graph)                     -> LoadReport
    system.sparql(query)                   -> ResultSet (its .report too)
    system.explain(query, analyze=False)   -> str

S2RDF, SPARQLGX and SPARQLGX-SDE compile a basic graph pattern to engine
DataFrames through one shared lifecycle (:class:`plans.CompiledBaseline`),
which adds ``dataframe(query)`` and ``verify(query)`` (the static plan
check behind ``prost-repro check``); each system keeps only its storage
layout and join planning. Rya evaluates with index nested-loop joins over
its own key-value store and is the independent check.
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
