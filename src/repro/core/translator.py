"""SPARQL → Join Tree translation with statistics-based priorities (§3.2-3.3).

Translation steps, following the paper:

1. Group the BGP's triple patterns by subject. Under the ``mixed`` strategy a
   group of two or more patterns becomes one :class:`PtNode` (answered by the
   Property Table with a single select); every remaining pattern becomes a
   :class:`VpNode`. Under the ``vp`` strategy everything becomes VP nodes.
2. Score each node with a priority derived from the loading-time statistics:
   minus the node's estimated rows (:mod:`repro.core.estimate`, the one
   estimator EXPLAIN and the plan verifier read too), plus bonuses for
   literals. A VP pattern with a constant object scores highest; a PT node
   gains a heavy weight per literal-constrained pattern and the top bonus
   when its subject is bound.
3. Build the tree: the lowest-priority (largest) node becomes the root; each
   further node, taken in descending priority, is attached below the
   already-placed node it shares a variable with, keeping selective
   sub-queries deep in the tree so they are computed first.
"""

from __future__ import annotations

from ..errors import TranslationError
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from ..rdf.stats import GraphStatistics
from .estimate import node_rows
from .join_tree import JoinTree, JoinTreeNode, ObjectPtNode, PtNode, VpNode

#: Priority bonus for a constant (literal/IRI) in the object position.
LITERAL_PRIORITY = 1_000_000.0
#: Weight of each literal-constrained pattern inside a PT node's score.
PT_LITERAL_WEIGHT = 0.5 * LITERAL_PRIORITY

STRATEGIES = ("mixed", "vp")


class JoinTreeTranslator:
    """Builds Join Trees from parsed queries using graph statistics."""

    def __init__(
        self,
        statistics: GraphStatistics,
        strategy: str = "mixed",
        min_group_size: int = 2,
        use_object_property_table: bool = False,
        use_statistics: bool = True,
    ):
        """
        Args:
            statistics: loading-time statistics of the queried graph.
            strategy: ``mixed`` (VP + PT, the paper's contribution) or ``vp``
                (Vertical Partitioning only, Figure 2's baseline).
            min_group_size: smallest same-subject group answered by the PT.
            use_object_property_table: also group same-object patterns into
                :class:`ObjectPtNode` sub-queries (paper §5 future work).
            use_statistics: disable to score every node 0 and keep query
                order, which reduces the tree to an arbitrary connected shape
                — the join-ordering ablation.
        """
        if strategy not in STRATEGIES:
            raise TranslationError(f"unknown strategy {strategy!r}")
        if min_group_size < 2:
            raise TranslationError("min_group_size must be at least 2")
        self.statistics = statistics
        self.strategy = strategy
        self.min_group_size = min_group_size
        self.use_object_property_table = use_object_property_table
        self.use_statistics = use_statistics

    # -- public API ---------------------------------------------------------------

    def translate(self, query: SelectQuery) -> JoinTree:
        """Translate a query's required BGP into a prioritized Join Tree.

        UNION queries have no single tree; translate each branch with
        :meth:`translate_bgp` instead.
        """
        if query.is_union:
            raise TranslationError(
                "a UNION query has one Join Tree per branch; use translate_bgp"
            )
        return self.translate_bgp(query.patterns)

    def translate_bgp(self, patterns) -> JoinTree:
        """Translate one conjunction of triple patterns into a Join Tree."""
        nodes = self._build_nodes(list(patterns))
        if self.use_statistics:
            for node in nodes:
                node.priority = self.score(node)
        return self._assemble(nodes)

    def score(self, node: JoinTreeNode) -> float:
        """The statistics-based priority this translator assigns ``node``.

        Higher is more selective (computed deeper in the tree): minus the
        node's estimated rows (:func:`~repro.core.estimate.node_rows`), plus
        the literal bonuses. Public so the plan verifier can recompute
        priorities independently and reject trees whose declared priorities
        disagree with the statistics (a tampered or stale plan).
        """
        score = -node_rows(node, self.statistics)
        if isinstance(node, (PtNode, ObjectPtNode)):
            for pattern in node.patterns:
                if pattern.has_constant_object:
                    score += PT_LITERAL_WEIGHT
            if not any(isinstance(p.subject, Variable) for p in node.patterns):
                score += LITERAL_PRIORITY  # fully bound subject: a point lookup
        else:
            pattern = node.patterns[0]
            if pattern.has_constant_object and not isinstance(
                pattern.predicate, Variable
            ):
                # Paper: literals are "a strong constraint" — highest
                # priority, pushed down to the leaves.
                score += LITERAL_PRIORITY
        return score

    # -- node grouping ----------------------------------------------------------------

    def _build_nodes(self, patterns: list[TriplePattern]) -> list[JoinTreeNode]:
        if not patterns:
            raise TranslationError("cannot translate an empty basic graph pattern")
        nodes: list[JoinTreeNode] = []
        remaining = list(patterns)

        if self.strategy == "mixed":
            groups: dict[object, list[TriplePattern]] = {}
            for pattern in remaining:
                groups.setdefault(pattern.subject, []).append(pattern)
            remaining = []
            for subject, group in groups.items():
                usable = [p for p in group if not isinstance(p.predicate, Variable)]
                if len(usable) >= self.min_group_size:
                    nodes.append(PtNode(patterns=tuple(usable)))
                    remaining.extend(p for p in group if p not in usable)
                else:
                    remaining.extend(group)

            if self.use_object_property_table:
                remaining = self._group_by_object(remaining, nodes)

        for pattern in remaining:
            nodes.append(VpNode(patterns=(pattern,)))
        return nodes

    def _group_by_object(
        self, patterns: list[TriplePattern], nodes: list[JoinTreeNode]
    ) -> list[TriplePattern]:
        """Group leftover patterns sharing an object variable (§5)."""
        groups: dict[Variable, list[TriplePattern]] = {}
        for pattern in patterns:
            if isinstance(pattern.object, Variable) and not isinstance(
                pattern.predicate, Variable
            ):
                groups.setdefault(pattern.object, []).append(pattern)
        taken: set[int] = set()
        for group in groups.values():
            if len(group) >= self.min_group_size:
                nodes.append(ObjectPtNode(patterns=tuple(group)))
                taken.update(id(p) for p in group)
        return [p for p in patterns if id(p) not in taken]

    # -- tree assembly ------------------------------------------------------------------------

    def _assemble(self, nodes: list[JoinTreeNode]) -> JoinTree:
        """Grow the tree Prim-style over the query's join graph.

        The lowest-priority (largest) node becomes the root; then, while
        unplaced nodes remain, the highest-priority node *connected* to the
        tree (sharing a variable with a placed node) is attached below the
        placed node it joins with. A cartesian product is only introduced
        when the query's join graph is genuinely disconnected.
        """
        ordered = sorted(nodes, key=lambda node: node.priority)
        root = ordered[0]  # lowest priority (largest data) becomes the root
        placed = [root]
        remaining = sorted(ordered[1:], key=lambda n: -n.priority)
        while remaining:
            chosen_index = next(
                (
                    i
                    for i, node in enumerate(remaining)
                    if self._find_parent(placed, node) is not None
                ),
                0,  # disconnected query: fall back to a cartesian product
            )
            node = remaining.pop(chosen_index)
            parent = self._find_parent(placed, node) or placed[0]
            parent.children.append(node)
            placed.append(node)
        return JoinTree(root=root)

    def _find_parent(
        self, placed: list[JoinTreeNode], node: JoinTreeNode
    ) -> JoinTreeNode | None:
        """The first placed node sharing a variable, or ``None``."""
        variables = node.variables
        for candidate in placed:
            if candidate.variables & variables:
                return candidate
        return None
