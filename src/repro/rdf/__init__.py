"""RDF data model: terms, triples, N-Triples I/O, graphs, and statistics."""

from .dictionary import (
    TERM_ID_BASE,
    TermDictionary,
    TermId,
    default_dictionary,
    is_term_id,
)
from .graph import Graph
from .ntriples import (
    parse_ntriples,
    parse_ntriples_file,
    parse_ntriples_string,
    serialize_ntriples,
    write_ntriples_file,
)
from .stats import GraphStatistics, PredicateStatistics, collect_statistics
from .stats_io import (
    load_statistics,
    save_statistics,
    statistics_from_json,
    statistics_to_json,
)
from .terms import (
    IRI,
    RDF_TYPE,
    BlankNode,
    Literal,
    SubjectTerm,
    Term,
    Triple,
    term_sort_key,
)

__all__ = [
    "IRI",
    "RDF_TYPE",
    "TERM_ID_BASE",
    "is_term_id",
    "BlankNode",
    "Graph",
    "GraphStatistics",
    "Literal",
    "PredicateStatistics",
    "SubjectTerm",
    "Term",
    "TermDictionary",
    "TermId",
    "Triple",
    "collect_statistics",
    "default_dictionary",
    "load_statistics",
    "save_statistics",
    "statistics_from_json",
    "statistics_to_json",
    "parse_ntriples",
    "parse_ntriples_file",
    "parse_ntriples_string",
    "serialize_ntriples",
    "term_sort_key",
    "write_ntriples_file",
]
