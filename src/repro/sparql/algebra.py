"""SPARQL algebra for the supported fragment.

The paper (§3.2) considers queries "with a unique basic graph pattern",
i.e. conjunctions of triple patterns, optionally with filters. This module
defines the corresponding algebra objects produced by the parser and consumed
by the translators: variables, triple patterns, filter expressions, and the
``SELECT`` query form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..rdf.terms import IRI, BlankNode, Literal
from ..errors import ValidationError


@dataclass(frozen=True, slots=True)
class Variable:
    """A SPARQL variable, e.g. ``?v0`` (stored without the ``?``)."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


#: A triple-pattern slot: either a variable or a concrete RDF term.
PatternTerm = Union[Variable, IRI, BlankNode, Literal]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One triple pattern of a basic graph pattern.

    Subject and object may be variables or terms; the predicate may be a
    variable too, although the WatDiv basic query set always binds it.
    """

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    @property
    def variables(self) -> set[Variable]:
        """All variables mentioned by this pattern."""
        return {slot for slot in (self.subject, self.predicate, self.object)
                if isinstance(slot, Variable)}

    @property
    def has_constant_object(self) -> bool:
        """Whether the object position is any concrete term (IRI or literal)."""
        return not isinstance(self.object, Variable)

    def __str__(self) -> str:
        def show(slot: PatternTerm) -> str:
            return str(slot) if isinstance(slot, Variable) else slot.n3()

        return f"{show(self.subject)} {show(self.predicate)} {show(self.object)}"


# -- filter expressions -----------------------------------------------------

#: Comparison operators supported inside FILTER.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Comparison:
    """A binary comparison, e.g. ``?age > 18`` or ``?name = "alice"``."""

    op: str
    left: PatternTerm
    right: PatternTerm

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValidationError(f"unsupported comparison operator {self.op!r}")

    @property
    def variables(self) -> set[Variable]:
        return {slot for slot in (self.left, self.right) if isinstance(slot, Variable)}


@dataclass(frozen=True, slots=True)
class Regex:
    """A ``regex(?var, "pattern")`` filter call."""

    variable: Variable
    pattern: str

    @property
    def variables(self) -> set[Variable]:
        return {self.variable}


@dataclass(frozen=True, slots=True)
class And:
    """Conjunction of filter expressions (``expr && expr``)."""

    operands: tuple["FilterExpression", ...]

    @property
    def variables(self) -> set[Variable]:
        return set().union(*(operand.variables for operand in self.operands))


@dataclass(frozen=True, slots=True)
class Or:
    """Disjunction of filter expressions (``expr || expr``)."""

    operands: tuple["FilterExpression", ...]

    @property
    def variables(self) -> set[Variable]:
        return set().union(*(operand.variables for operand in self.operands))


FilterExpression = Union[Comparison, Regex, And, Or]


@dataclass(frozen=True, slots=True)
class CountAggregate:
    """A ``(COUNT([DISTINCT] ?var | *) AS ?alias)`` projection item.

    ``variable`` is ``None`` for ``COUNT(*)``. Counting a variable counts
    its *bound* solutions, per SPARQL 1.1 semantics.
    """

    alias: Variable
    variable: Variable | None = None
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.variable is None else str(self.variable)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"(COUNT({inner}) AS {self.alias})"


@dataclass(frozen=True, slots=True)
class OrderCondition:
    """One ORDER BY key: a variable plus direction."""

    variable: Variable
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """A parsed SELECT query.

    The core form is a single basic graph pattern (the paper's fragment,
    §3.2); two extensions from PRoST's later development are also modeled:
    ``OPTIONAL { ... }`` blocks (left-join semantics) and a WHERE clause that
    is a ``UNION`` of plain BGPs.

    Attributes:
        variables: the projection; empty tuple means ``SELECT *``.
        patterns: the required BGP's triple patterns, in query order (empty
            when the query is a pure UNION).
        filters: top-level filter expressions (implicitly conjoined).
        optional_groups: OPTIONAL blocks, each a plain conjunction of triple
            patterns, applied left to right.
        union_branches: when non-empty, the WHERE clause is the union of
            these BGPs and ``patterns`` is empty.
        distinct: whether ``DISTINCT`` was given.
        order_by: ORDER BY conditions, in order.
        limit / offset: result slicing, ``None`` when absent.
    """

    variables: tuple[Variable, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpression, ...] = ()
    form: str = "SELECT"  # "SELECT" or "ASK" 
    optional_groups: tuple[tuple[TriplePattern, ...], ...] = ()
    union_branches: tuple[tuple[TriplePattern, ...], ...] = ()
    aggregates: tuple[CountAggregate, ...] = ()
    group_by: tuple[Variable, ...] = ()
    distinct: bool = False
    order_by: tuple[OrderCondition, ...] = ()
    limit: int | None = None
    offset: int | None = None

    @property
    def is_union(self) -> bool:
        return bool(self.union_branches)

    @property
    def pattern_variables(self) -> set[Variable]:
        """All variables mentioned anywhere in the query's patterns."""
        found: set[Variable] = set()
        for pattern in self.all_patterns():
            found |= pattern.variables
        return found

    def all_patterns(self) -> tuple[TriplePattern, ...]:
        """Required, optional, and union-branch patterns, in query order."""
        collected = list(self.patterns)
        for group in self.optional_groups:
            collected.extend(group)
        for branch in self.union_branches:
            collected.extend(branch)
        return tuple(collected)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def is_ask(self) -> bool:
        return self.form == "ASK"

    @property
    def projection(self) -> tuple[Variable, ...]:
        """The effective projection: explicit variables (plus aggregate
        aliases, after the plain variables), or all variables in
        first-appearance order for ``SELECT *``."""
        if self.aggregates:
            return self.variables + tuple(a.alias for a in self.aggregates)
        if self.variables:
            return self.variables
        seen: list[Variable] = []
        for pattern in self.all_patterns():
            for slot in (pattern.subject, pattern.predicate, pattern.object):
                if isinstance(slot, Variable) and slot not in seen:
                    seen.append(slot)
        return tuple(seen)
