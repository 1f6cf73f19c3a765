"""Distributed DataFrame engine (mini-Spark): plans, optimizer, executor."""

from .catalog import Catalog, StoredTable
from .cluster import (
    ClusterConfig,
    CostBreakdown,
    ExecutionMetrics,
    SimulatedCluster,
    estimate_cost,
)
from .data import (
    ColumnarData,
    HashPartitioner,
    partition_evenly,
    stable_hash,
)
from .dataframe import DataFrame
from .expressions import Expression, and_all, col, lit
from .faults import (
    FaultInjector,
    FaultPlan,
    MemoryPressure,
    StragglerSpec,
    TaskFault,
    WorkerLoss,
)
from .logical import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Explode,
    Filter,
    InMemoryRelation,
    Join,
    LogicalPlan,
    Project,
    TableScan,
    Union,
)
from .optimizer import optimize, prune_columns, push_down_filters, split_conjuncts
from .session import EngineSession, QueryReport

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "Catalog",
    "ClusterConfig",
    "ColumnarData",
    "CostBreakdown",
    "DataFrame",
    "Distinct",
    "EngineSession",
    "ExecutionMetrics",
    "Explode",
    "Expression",
    "FaultInjector",
    "FaultPlan",
    "Filter",
    "HashPartitioner",
    "InMemoryRelation",
    "Join",
    "LogicalPlan",
    "MemoryPressure",
    "Project",
    "QueryReport",
    "SimulatedCluster",
    "StoredTable",
    "StragglerSpec",
    "TableScan",
    "TaskFault",
    "Union",
    "WorkerLoss",
    "and_all",
    "col",
    "estimate_cost",
    "lit",
    "optimize",
    "partition_evenly",
    "prune_columns",
    "push_down_filters",
    "split_conjuncts",
    "stable_hash",
]
