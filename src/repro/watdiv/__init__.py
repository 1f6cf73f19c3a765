"""WatDiv-style workload: schema, generator, and the 20 basic queries."""

from .generator import WatDivDataset, generate_watdiv
from .queries import (
    QUERY_GROUPS,
    QUERY_NAMES,
    TEMPLATES,
    BenchmarkQuery,
    QueryTemplate,
    basic_query_set,
)
from .schema import MULTIVALUED_PROPERTIES, Populations, entity_iri

__all__ = [
    "BenchmarkQuery",
    "MULTIVALUED_PROPERTIES",
    "Populations",
    "QUERY_GROUPS",
    "QUERY_NAMES",
    "QueryTemplate",
    "TEMPLATES",
    "WatDivDataset",
    "basic_query_set",
    "entity_iri",
    "generate_watdiv",
]
