"""Diagnostics emitted by the static plan verifier.

Every violated invariant becomes one :class:`Diagnostic` carrying a stable
code (the ``PV1xx`` range covers Join-Tree invariants, ``PV2xx`` engine-plan
invariants, ``PV4xx`` cached-plan lineage — see
:mod:`repro.analysis.lineage`), a human-readable message, and a *node
path* — the location of the offending node inside its tree, in the same
shape the EXPLAIN renderers use — so a failing check points at the exact
plan node, not just the query.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Catalogue of diagnostic codes, code → one-line description. Kept in one
#: place so tests and documentation cannot drift from the verifier.
CODES: dict[str, str] = {
    "PV101": "a projected or filtered variable is bound by no tree node",
    "PV102": "a node is attached where it shares no variable (needless cartesian)",
    "PV103": "a property-table node groups patterns with different key terms",
    "PV104": "a property-table node contains an unbound predicate",
    "PV105": "a node's priority disagrees with the statistics-based score",
    "PV106": "the root is not the minimum-priority node",
    "PV109": "the tree's patterns do not cover the query's basic graph pattern",
    "PV110": "a node's pattern count is invalid for its kind",
    "PV201": "join key columns have inconsistent types across the two sides",
    "PV205": "a shuffle hint discards existing co-partitioning on the join keys",
    "PV401": "a cached plan's lineage epoch does not match the engine's current plan epoch",
}

@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant, pointing at a specific plan node.

    Attributes:
        code: stable identifier from :data:`CODES`.
        message: what is wrong, in terms of the offending node.
        node_path: location of the node — ``root``, ``root.children[1]``, …
            for Join Trees; ``plan``, ``plan.left``, … for logical plans.
        node_label: the node's own rendering (``VP``, ``PT[2 patterns]``,
            ``Join(on=['v1'], how=inner)``, …) for display.
    """

    code: str
    message: str
    node_path: str
    node_label: str = ""

    def format(self) -> str:
        """One display line: ``PVxxx at <path> (<label>): <message>``."""
        label = f" ({self.node_label})" if self.node_label else ""
        return f"{self.code} at {self.node_path}{label}: {self.message}"


def render_diagnostics(diagnostics: list[Diagnostic], tree_text: str | None = None) -> str:
    """EXPLAIN-style report: the offending tree, then one line per finding."""
    lines: list[str] = []
    if tree_text:
        lines.append(tree_text)
        lines.append("")
    lines.append(f"{len(diagnostics)} plan invariant violation(s):")
    for diagnostic in diagnostics:
        lines.append(f"  !! {diagnostic.format()}")
    return "\n".join(lines)
