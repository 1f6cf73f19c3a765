"""Lazy DataFrame API over logical plans (Spark DataFrame analogue).

A :class:`DataFrame` is an immutable wrapper around a logical plan; every
transformation returns a new DataFrame, and nothing executes until an action
(:meth:`collect`, :meth:`collect_data_with_report`) runs the plan through the
session's optimizer and executor.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import PlanError
from .data import ColumnarData
from .expressions import Expression, col
from .logical import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Explode,
    Filter,
    Join,
    LogicalPlan,
    Project,
    Union,
)
from .session import EngineSession, QueryReport


class DataFrame:
    """A lazy, immutable relational dataset."""

    def __init__(self, session: EngineSession, plan: LogicalPlan):
        self.session = session
        self.plan = plan

    # -- schema ---------------------------------------------------------------

    @property
    def schema(self):
        """Schema the plan produces."""
        return self.plan.schema

    @property
    def columns(self) -> tuple[str, ...]:
        """Output column names, in order."""
        return self.plan.schema.names

    # -- transformations ---------------------------------------------------------

    def filter(self, condition: Expression) -> "DataFrame":
        """Keep rows satisfying ``condition``."""
        return DataFrame(self.session, Filter(self.plan, condition))

    where = filter

    def select(self, *columns: str | tuple[str, Expression]) -> "DataFrame":
        """Project to the named columns or ``(name, expression)`` pairs."""
        outputs: list[tuple[str, Expression]] = []
        for item in columns:
            if isinstance(item, str):
                outputs.append((item, col(item)))
            else:
                name, expression = item
                outputs.append((name, expression))
        if not outputs:
            raise PlanError("select requires at least one column")
        return DataFrame(self.session, Project(self.plan, tuple(outputs)))

    def rename(self, mapping: dict[str, str]) -> "DataFrame":
        """Rename columns via ``{old: new}``; unmentioned columns pass through."""
        outputs = tuple(
            (mapping.get(name, name), col(name)) for name in self.columns
        )
        return DataFrame(self.session, Project(self.plan, outputs))

    def join(
        self,
        other: "DataFrame",
        on: Sequence[str],
        how: str = "inner",
        hint: str = "auto",
    ) -> "DataFrame":
        """Equi-join on shared column names.

        Args:
            how: ``inner`` or ``left``.
            hint: ``auto`` (size-based strategy) or ``shuffle`` (disables
                broadcast, as SPARQLGX's compiled plans effectively do).
        """
        if other.session is not self.session:
            raise PlanError("cannot join DataFrames from different sessions")
        return DataFrame(
            self.session, Join(self.plan, other.plan, tuple(on), how=how, hint=hint)
        )

    def explode(self, column: str, output_name: str | None = None) -> "DataFrame":
        """Flatten a list column into one row per element."""
        return DataFrame(self.session, Explode(self.plan, column, output_name))

    def distinct(self) -> "DataFrame":
        """Drop duplicate rows."""
        return DataFrame(self.session, Distinct(self.plan))

    def group_aggregate(
        self,
        keys: Sequence[str],
        aggregates: Sequence[tuple[str, str | None, str]],
    ) -> "DataFrame":
        """Group by ``keys`` and compute aggregates.

        Args:
            keys: grouping columns (empty = one global group).
            aggregates: ``(op, input_column, output_name)`` triples; ``op``
                is ``count`` or ``count_distinct``; ``input_column=None``
                counts rows.
        """
        specs = tuple(
            AggregateSpec(op=op, input_column=column, output=name)
            for op, column, name in aggregates
        )
        return DataFrame(self.session, Aggregate(self.plan, tuple(keys), specs))

    def union(self, other: "DataFrame") -> "DataFrame":
        """Concatenate with another frame of the same schema."""
        if other.session is not self.session:
            raise PlanError("cannot union DataFrames from different sessions")
        return DataFrame(self.session, Union((self.plan, other.plan)))

    # -- actions -----------------------------------------------------------------

    def collect(self, run_optimizer: bool = True, tracer=None) -> list[tuple]:
        """Execute the plan and gather all rows on the driver."""
        data, _ = self.session.execute(
            self.plan, run_optimizer=run_optimizer, tracer=tracer
        )
        return data.all_rows()

    def collect_data_with_report(
        self, run_optimizer: bool = True, tracer=None
    ) -> tuple[ColumnarData, QueryReport]:
        """Execute and return the physical dataset itself, unmaterialized.

        The :class:`~repro.engine.data.ColumnarData` lets callers (e.g. the
        SPARQL finalizer) sort/slice/decode on columns without ever
        building intermediate row tuples.
        """
        return self.session.execute(
            self.plan, run_optimizer=run_optimizer, tracer=tracer
        )

    def explain(self, optimized: bool = True) -> str:
        """The plan as an indented string (optimized by default)."""
        if optimized:
            from .optimizer import optimize

            return optimize(self.plan).describe()
        return self.plan.describe()

    def __repr__(self) -> str:
        return f"DataFrame({self.plan._describe_line()}, columns={list(self.columns)})"
