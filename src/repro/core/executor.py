"""Executing Join Trees on the engine (paper §3.2).

``JoinTreeExecutor`` turns every tree node into a DataFrame whose columns are
named after the SPARQL variables the node binds, then joins children into
parents bottom-up on the shared variables. The engine (playing Catalyst's
role) picks broadcast vs shuffle strategies from runtime sizes.

Column naming makes joins natural: two sub-queries that share variable
``?v1`` both expose a column ``v1``, and the shared-column set is exactly the
SPARQL join condition.
"""

from __future__ import annotations

import itertools

from ..columnar.schema import ColumnSchema, TableSchema
from ..engine.dataframe import DataFrame
from ..engine.expressions import Expression, col, lit
from ..engine.session import EngineSession
from ..errors import TranslationError
from ..rdf.terms import IRI
from ..sparql.algebra import TriplePattern, Variable
from .encoding import encode_term
from .join_tree import JoinTree, JoinTreeNode, ObjectPtNode, PtNode, VpNode
from .loader import OBJECT_COLUMN, SUBJECT_COLUMN, ProstStore


class JoinTreeExecutor:
    """Builds engine DataFrames from Join Trees over a loaded store."""

    def __init__(self, store: ProstStore):
        self.store = store
        self._counter = 0

    # -- public API ---------------------------------------------------------------

    def build(self, tree: JoinTree) -> DataFrame:
        """A DataFrame computing the whole tree, bottom-up."""
        return self._result(tree.root)

    # -- tree folding --------------------------------------------------------------

    def _result(self, node: JoinTreeNode) -> DataFrame:
        frame = self._node_plan(node)
        # Selective children first: their small results drive cheap joins.
        for child in sorted(node.children, key=lambda n: -n.priority):
            child_frame = self._result(child)
            shared = sorted(set(frame.columns) & set(child_frame.columns))
            if shared:
                frame = frame.join(child_frame, on=shared)
            else:
                frame = frame.join(child_frame, on=(), how="cross")
        return frame

    # -- per-node plans ----------------------------------------------------------------

    def _node_plan(self, node: JoinTreeNode) -> DataFrame:
        if isinstance(node, VpNode):
            return self._vp_plan(node.pattern)
        if isinstance(node, ObjectPtNode):
            return self._object_pt_plan(node)
        if isinstance(node, PtNode):
            return self._pt_plan(node)
        raise TranslationError(f"unknown node type {type(node).__name__}")

    def _fresh_column(self) -> str:
        self._counter += 1
        return f"__c{self._counter}"

    # -- VP nodes -------------------------------------------------------------------------

    def _vp_plan(self, pattern: TriplePattern) -> DataFrame:
        session = self.store.session
        if isinstance(pattern.predicate, Variable):
            tables = {
                iri: info.table_name for iri, info in self.store.vp_tables.items()
            }
            return unbound_predicate_frame(session, tables, pattern)
        table = self.store.vp_table_name(pattern.predicate.value)
        source = session.table(table) if table is not None else None
        return shape_vp_frame(session, source, pattern)

    # -- PT nodes --------------------------------------------------------------------------

    def _pt_plan(self, node: PtNode) -> DataFrame:
        info = self.store.property_table
        if info is None:
            raise TranslationError(
                "the store has no property table; load with "
                "include_property_table=True or use strategy='vp'"
            )
        return self._wide_plan(
            node,
            table_name=info.table_name,
            key_column=SUBJECT_COLUMN,
            key_slot=lambda p: p.subject,
            value_slot=lambda p: p.object,
            column_for=info.column,
            multivalued=info.is_multivalued,
        )

    def _object_pt_plan(self, node: ObjectPtNode) -> DataFrame:
        info = self.store.object_property_table
        if info is None:
            raise TranslationError(
                "the store has no object property table; load with "
                "include_object_property_table=True"
            )
        return self._wide_plan(
            node,
            table_name=info.table_name,
            key_column=OBJECT_COLUMN,
            key_slot=lambda p: p.object,
            value_slot=lambda p: p.subject,
            column_for=info.column,
            multivalued=info.is_multivalued,
        )

    def _wide_plan(
        self,
        node: JoinTreeNode,
        table_name: str,
        key_column: str,
        key_slot,
        value_slot,
        column_for,
        multivalued,
    ) -> DataFrame:
        """Shared implementation for subject- and object-keyed PT nodes.

        The node's patterns all share the key slot (subject for the PT,
        object for the object-PT); each pattern contributes one wide-table
        column carrying its value slot.
        """
        session = self.store.session
        patterns = list(node.patterns)
        key = key_slot(patterns[0])

        # One temp column per pattern (duplicating the source column when two
        # patterns use the same predicate, so each explodes independently).
        selections: list[tuple[str, Expression]] = [(key_column, col(key_column))]
        temp_names: list[str | None] = []
        missing_predicate = False
        for pattern in patterns:
            source = column_for(pattern.predicate.value)  # type: ignore[union-attr]
            if source is None:
                missing_predicate = True
                temp_names.append(None)
                continue
            temp = self._fresh_column()
            selections.append((temp, col(source)))
            temp_names.append(temp)
        if missing_predicate:
            return self._empty_group_plan(node)

        frame = session.table(table_name).select(*selections)
        if not isinstance(key, Variable):
            frame = frame.filter(col(key_column) == lit(encode_term(key)))

        bound_variables: dict[str, str] = {}
        if isinstance(key, Variable):
            bound_variables[key.name] = key_column

        for pattern, temp in zip(patterns, temp_names):
            assert temp is not None
            is_list = multivalued(pattern.predicate.value)  # type: ignore[union-attr]
            value = value_slot(pattern)
            if not isinstance(value, Variable):
                constant = lit(encode_term(value))
                if is_list:
                    frame = frame.filter(col(temp).contains_element(constant))
                else:
                    frame = frame.filter(col(temp) == constant)
                continue
            if is_list:
                frame = frame.explode(temp)
            else:
                frame = frame.filter(col(temp).is_not_null())
            existing = bound_variables.get(value.name)
            if existing is not None:
                frame = frame.filter(col(temp) == col(existing))
            else:
                bound_variables[value.name] = temp

        outputs = [
            (variable, col(source)) for variable, source in sorted(bound_variables.items())
        ]
        if not outputs:
            return frame.select((fresh_exists_marker(), lit("x"))).distinct()
        return frame.select(*outputs)

    def _empty_group_plan(self, node: JoinTreeNode) -> DataFrame:
        """Empty relation shaped like the node's variables (a predicate in
        the group does not exist in the data, so the group matches nothing)."""
        names = sorted({variable.name for variable in node.variables})
        return _empty_frame(self.store.session, names, "empty-pt")


# -- per-pattern frames over (s, o) tables ------------------------------------
#
# Shared by the Join Tree's VP nodes and the engine-backed baselines
# (SPARQLGX, its SDE variant, S2RDF): all of them materialize a triple
# pattern from an ``(s, o)`` shaped table.

_MARKERS = itertools.count(1)


def fresh_exists_marker() -> str:
    """A process-unique column name for a fully bound pattern's 0/1-row
    existence check (two of them may meet in one cross join)."""
    return f"__exists{next(_MARKERS)}"


def _empty_frame(session: EngineSession, names: list[str], label: str) -> DataFrame:
    """An empty relation over ``names`` (one marker column when a fully
    bound pattern or group binds nothing)."""
    schema = TableSchema(
        [ColumnSchema(name, "string") for name in names or [fresh_exists_marker()]]
    )
    return session.create_dataframe(schema, [], label=label)


def empty_pattern_frame(session: EngineSession, pattern: TriplePattern) -> DataFrame:
    """A correctly-shaped empty relation for a predicate absent from the
    data (the empty VP table)."""
    names: list[str] = []
    for slot in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(slot, Variable) and slot.name not in names:
            names.append(slot.name)
    return _empty_frame(session, names, "empty-vp")


def unbound_predicate_frame(
    session: EngineSession, tables: dict[str, str], pattern: TriplePattern
) -> DataFrame:
    """A variable predicate scans the union of all VP tables (``tables``:
    predicate IRI → table name), each tagged with its predicate as an extra
    column bound to the variable."""
    predicate_variable = pattern.predicate
    assert isinstance(predicate_variable, Variable)
    frames: list[DataFrame] = []
    for predicate_iri in sorted(tables):
        tagged = session.table(tables[predicate_iri]).select(
            SUBJECT_COLUMN,
            OBJECT_COLUMN,
            ("__p", lit(encode_term(IRI(predicate_iri)))),
        )
        frames.append(tagged)
    if not frames:
        return empty_pattern_frame(session, pattern)
    union = frames[0]
    for frame in frames[1:]:
        union = union.union(frame)
    shaped = shape_vp_frame(session, union, pattern, keep=["__p"])
    outputs = [name for name in shaped.columns if name != "__p"]
    if predicate_variable.name in outputs:
        # The predicate variable also binds the subject or object of the
        # same pattern (e.g. ``?s ?p ?p``): the shared variable is an
        # equality constraint against the tag column, not a second output.
        shaped = shaped.filter(col(predicate_variable.name) == col("__p"))
        return shaped.select(*outputs)
    return shaped.select(*outputs, (predicate_variable.name, col("__p")))


def shape_vp_frame(
    session: EngineSession,
    frame: DataFrame | None,
    pattern: TriplePattern,
    keep: list[str] | None = None,
) -> DataFrame:
    """Apply a pattern's constants and variable names to an ``(s, o)`` frame.

    Constants become selections; variables become renamed output columns; a
    repeated variable becomes an equality selection. ``frame=None`` yields an
    empty, correctly-shaped relation. Columns in ``keep`` pass through.
    """
    if frame is None:
        return empty_pattern_frame(session, pattern)
    conditions: list[Expression] = []
    outputs: list[tuple[str, Expression]] = []
    if isinstance(pattern.subject, Variable):
        outputs.append((pattern.subject.name, col(SUBJECT_COLUMN)))
    else:
        conditions.append(col(SUBJECT_COLUMN) == lit(encode_term(pattern.subject)))
    if isinstance(pattern.object, Variable):
        if (
            isinstance(pattern.subject, Variable)
            and pattern.object.name == pattern.subject.name
        ):
            conditions.append(col(SUBJECT_COLUMN) == col(OBJECT_COLUMN))
        else:
            outputs.append((pattern.object.name, col(OBJECT_COLUMN)))
    else:
        conditions.append(col(OBJECT_COLUMN) == lit(encode_term(pattern.object)))
    for condition in conditions:
        frame = frame.filter(condition)
    for name in keep or []:
        outputs.append((name, col(name)))
    if not outputs:
        # Fully bound pattern: an existence check contributing 0/1 rows.
        return frame.select((fresh_exists_marker(), lit("x"))).distinct()
    return frame.select(*outputs)
