"""SPARQL front end: tokenizer, parser, and algebra."""

from .algebra import (
    And,
    Comparison,
    CountAggregate,
    FilterExpression,
    Or,
    OrderCondition,
    Regex,
    SelectQuery,
    TriplePattern,
    Variable,
)
from .parser import DEFAULT_PREFIXES, parse_sparql
from .tokenizer import Token, tokenize

__all__ = [
    "And",
    "CountAggregate",
    "Comparison",
    "DEFAULT_PREFIXES",
    "FilterExpression",
    "Or",
    "OrderCondition",
    "Regex",
    "SelectQuery",
    "Token",
    "TriplePattern",
    "Variable",
    "parse_sparql",
    "tokenize",
]
