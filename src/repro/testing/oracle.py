"""Brute-force nested-loop oracle for the differential harness.

Deliberately the dumbest possible BGP evaluator: no partitioning, no
indexes, no join reordering, no optimizer, no cost model. Each triple
pattern is matched against *every* triple of the graph, in query order,
extending a binding set; the result is post-processed exactly as the engines
do (filters, projection, DISTINCT, deterministic sort, OFFSET/LIMIT).

Semantics pinned here (and documented in README/DESIGN):

- **bag semantics** — pattern matching yields a multiset of solution
  mappings; only an explicit ``DISTINCT`` collapses duplicates;
- **unbound variables** — never produced by plain BGPs (every projected
  variable is bound in every solution); a variable in a filter that is not
  bound makes the filter false (SPARQL type-error semantics, shared with
  :func:`repro.rdf.reference.evaluate_filter`);
- **LIMIT/OFFSET without ORDER BY** — applied *after* the deterministic
  :func:`~repro.core.results.solution_sort_key` sort, the convention every
  engine in this repository follows, so sliced results stay comparable.

This oracle intentionally duplicates (rather than reuses) the matching
logic of :class:`repro.rdf.reference.ReferenceEvaluator`: the reference
evaluator is index-assisted and shares helper code with the engines, while
a correctness oracle should have as little machinery in common with the
systems under test as possible.
"""

from __future__ import annotations

from ..rdf.graph import Graph
from ..rdf.reference import evaluate_filter
from ..rdf.terms import Term, Triple
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from ..core.results import solution_sort_key
from ..errors import ValidationError

#: One solution mapping: variable name → bound term.
Binding = dict[str, Term]


class BruteForceOracle:
    """Nested-loop evaluator over an in-memory graph (the fuzzing oracle)."""

    def __init__(self, graph: Graph):
        self._triples: list[Triple] = list(graph)

    def evaluate(self, query: SelectQuery) -> list[tuple[Term | None, ...]]:
        """All solutions of ``query``, post-processed like every engine."""
        if query.is_union or query.optional_groups or query.aggregates:
            raise ValidationError(
                "the fuzzing oracle evaluates the plain BGP fragment only"
            )
        bindings = self._match(list(query.patterns))
        bindings = [
            binding
            for binding in bindings
            if all(evaluate_filter(f, binding) for f in query.filters)
        ]
        rows = [
            tuple(binding.get(variable.name) for variable in query.projection)
            for binding in bindings
        ]
        if query.distinct:
            seen: set[tuple] = set()
            unique: list[tuple[Term | None, ...]] = []
            for row in rows:
                key = tuple(None if term is None else term.n3() for term in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        rows.sort(key=solution_sort_key)
        if query.offset:
            rows = rows[query.offset :]
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    # -- matching -------------------------------------------------------------

    def _match(self, patterns: list[TriplePattern]) -> list[Binding]:
        bindings: list[Binding] = [{}]
        for pattern in patterns:  # query order: no reordering whatsoever
            extended: list[Binding] = []
            for binding in bindings:
                for triple in self._triples:  # full scan: no indexes
                    candidate = _unify(pattern, triple, binding)
                    if candidate is not None:
                        extended.append(candidate)
            bindings = extended
            if not bindings:
                break
        return bindings


def _unify(pattern: TriplePattern, triple: Triple, binding: Binding) -> Binding | None:
    """Extend ``binding`` so ``pattern`` matches ``triple``, or ``None``."""
    result: Binding | None = None
    for slot, value in zip(
        (pattern.subject, pattern.predicate, pattern.object),
        (triple.subject, triple.predicate, triple.object),
    ):
        if isinstance(slot, Variable):
            bound = binding.get(slot.name) if result is None else result.get(
                slot.name, binding.get(slot.name)
            )
            if bound is None:
                if result is None:
                    result = dict(binding)
                result[slot.name] = value
            elif bound != value:
                return None
        elif slot != value:
            return None
    return dict(binding) if result is None else result
