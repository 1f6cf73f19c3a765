"""Bridging SPARQL FILTER expressions into engine expressions.

SPARQL value semantics (numeric coercion, regex on literals) need terms,
not term-ID cells, so :class:`SparqlCondition` decodes the cells a filter
reads and evaluates the algebra expression with the reference evaluator. It
wraps one algebra filter expression as an engine predicate
(:class:`~repro.engine.expressions.Expression` with a ``bind_vector``
kernel), so the engine's filter operator and the optimizer's pushdown
machinery treat it like any other condition.
"""

from __future__ import annotations

from ..engine.expressions import Expression, VectorPredicate
from ..rdf.reference import evaluate_filter
from ..sparql.algebra import FilterExpression, Variable
from .encoding import decode_term


class SparqlCondition(Expression):
    """An engine expression evaluating a SPARQL filter over encoded cells.

    The wrapped algebra expression references SPARQL variables; the engine
    columns carrying them are assumed to use the variable names directly
    (which is how the translators name columns).
    """

    def __init__(self, expression: FilterExpression):
        self.expression = expression

    def references(self) -> set[str]:
        return {variable.name for variable in self.expression.variables}

    def bind_vector(self, schema) -> VectorPredicate:
        variables = sorted(self.references())
        indexes = {name: schema.index_of(name) for name in variables}
        expression = self.expression

        def evaluate(columns, sel):
            bound = [(name, columns[index]) for name, index in indexes.items()]
            out = []
            for i in sel:
                binding = {}
                for name, column in bound:
                    cell = column[i]
                    if cell is not None:
                        binding[name] = decode_term(cell)
                if evaluate_filter(expression, binding):
                    out.append(i)
            return out

        return evaluate

    def describe(self) -> str:
        return f"SparqlFilter({_describe_algebra(self.expression)})"


def _describe_algebra(expression: FilterExpression) -> str:
    from ..sparql.algebra import And, Comparison, Or, Regex

    if isinstance(expression, Comparison):
        left = _operand(expression.left)
        right = _operand(expression.right)
        return f"{left} {expression.op} {right}"
    if isinstance(expression, Regex):
        return f"regex({expression.variable}, {expression.pattern!r})"
    if isinstance(expression, And):
        return " && ".join(_describe_algebra(op) for op in expression.operands)
    if isinstance(expression, Or):
        return " || ".join(_describe_algebra(op) for op in expression.operands)
    return repr(expression)


def _operand(slot) -> str:
    if isinstance(slot, Variable):
        return str(slot)
    return slot.n3()
