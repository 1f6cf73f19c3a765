"""The Join Tree: PRoST's intermediate query representation (paper §3.2).

Each node of the tree answers a sub-query from one of the two data layouts:

- :class:`VpNode` — a single triple pattern, read from that predicate's
  Vertical Partitioning table;
- :class:`PtNode` — a group of triple patterns sharing a subject, read from
  the Property Table with a single wide-row select (no joins);
- :class:`ObjectPtNode` — the future-work (§5) variant grouping patterns
  that share an *object* variable, read from the object-keyed PT.

Executing a tree computes each node's intermediate result and joins children
into parents bottom-up; the node *priorities* (paper §3.3) decide the tree
shape and hence the join order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from ..sparql.algebra import TriplePattern, Variable

T = TypeVar("T")


@dataclass
class JoinTreeNode:
    """Base node: patterns it answers, its priority, and its children."""

    patterns: tuple[TriplePattern, ...]
    priority: float = 0.0
    children: list["JoinTreeNode"] = field(default_factory=list)

    @property
    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables
        return found

    def output_variables(self) -> tuple[str, ...]:
        """The result columns of this node's own sub-query, sorted.

        Mirrors :class:`~repro.core.executor.JoinTreeExecutor` column naming:
        every variable of the node's patterns becomes a column named after
        the variable (fully bound patterns contribute a synthetic existence
        column instead, which never joins and is not listed here).
        """
        return tuple(sorted(variable.name for variable in self.variables))

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.label()} (priority={self.priority:.3f})"]
        for pattern in self.patterns:
            lines.append(f"{pad}  | {pattern}")
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def fold_order(self) -> list["JoinTreeNode"]:
        """The children in the order they are joined into this node.

        Descending priority, so selective children drive cheap joins first,
        but connected first: a child sharing no variable with what is
        folded so far waits until no keyed join is left. The executor, the
        verifier and EXPLAIN all fold in this order."""
        if len(self.children) < 2:
            return list(self.children)
        return list(
            connected_first(
                sorted(self.children, key=lambda n: -n.priority),
                lambda child: {v.name for node in child.walk() for v in node.variables},
                {variable.name for variable in self.variables},
            )
        )

    def walk(self):
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


def connected_first(
    items: Iterable[T], names_of: Callable[[T], set[str]], bound: set[str]
) -> Iterator[T]:
    """``items`` in their order, except that the next one is always the
    first sharing a variable name with ``bound`` (grown by the names of
    every item yielded), or the first of all when none does. A join chain
    built in this order runs a cartesian product only when no keyed join is
    left."""
    pending = [(item, names_of(item)) for item in items]
    bound = set(bound)
    while pending:
        index = next((i for i, (_, names) in enumerate(pending) if names & bound), 0)
        item, names = pending.pop(index)
        bound |= names
        yield item


@dataclass
class VpNode(JoinTreeNode):
    """One triple pattern answered from a Vertical Partitioning table."""

    @property
    def pattern(self) -> TriplePattern:
        return self.patterns[0]

    @property
    def kind(self) -> str:
        return "VP"

    def label(self) -> str:
        return "VP"


@dataclass
class PtNode(JoinTreeNode):
    """A same-subject pattern group answered from the Property Table."""

    @property
    def kind(self) -> str:
        return "PT"

    def label(self) -> str:
        return f"PT[{len(self.patterns)} patterns]"


@dataclass
class ObjectPtNode(JoinTreeNode):
    """A same-object pattern group answered from the object-keyed PT (§5)."""

    @property
    def kind(self) -> str:
        return "OPT"

    def label(self) -> str:
        return f"ObjectPT[{len(self.patterns)} patterns]"


@dataclass
class JoinTree:
    """The root node plus bookkeeping for the whole translated query."""

    root: JoinTreeNode

    @property
    def nodes(self) -> list[JoinTreeNode]:
        return list(self.root.walk())

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_joins(self) -> int:
        """Joins needed to combine all nodes (nodes − 1)."""
        return self.num_nodes - 1

    def patterns(self) -> list[TriplePattern]:
        """Every triple pattern covered by the tree."""
        found: list[TriplePattern] = []
        for node in self.nodes:
            found.extend(node.patterns)
        return found

    def describe(self) -> str:
        return self.root.describe()

    def node_kinds(self) -> dict[str, int]:
        """Count of nodes per kind, e.g. ``{"PT": 2, "VP": 3}``."""
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts
