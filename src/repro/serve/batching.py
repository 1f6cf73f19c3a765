"""Batch execution: shared scans and deduplicated work across queries.

When a server receives a burst of concurrent queries, much of the work is
redundant in two distinct ways:

- **identical queries** (up to variable renaming — the same canonical
  form) compute identical row sets, so a batch executes each distinct
  canonical query once and fans the rows out to every requester
  (``serve.batched_queries`` counts the queries that rode along);
- **shared tables**: distinct queries still scan overlapping PT/VP
  tables. The catalog keeps one resident copy of each table (and one view
  per projected column subset), so every scan of the batch reads the same
  column vectors and the operator memos kept on them;
  :func:`execute_batch` walks every planned frame for its table scans and
  counts every reference to a table beyond the first as a shared scan
  (``serve.shared_scans``).

Correctness is by construction: batching changes neither plans nor
per-query execution semantics — only how many times an identical
computation runs — so batched results are multiset-equal to cold
one-at-a-time execution (the serve-mode differential suite holds it to
that).
"""

from __future__ import annotations

from ..core.results import ResultSet
from ..engine.logical import TableScan
from ..errors import AdmissionRejectedError
from ..sparql.algebra import SelectQuery
from .server import QueryServer, ResultEntry


def tables_scanned(plan) -> list[str]:
    """Every table name a logical plan scans, in discovery order
    (duplicates kept: a self-join scans its table twice)."""
    found: list[str] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, TableScan):
            found.append(node.table_name)
        stack.extend(reversed(node.children))
    return found


def execute_batch(
    server: QueryServer,
    queries: list,
    tenant: str | None = None,
    tracer=None,
) -> list[ResultSet]:
    """Execute a batch of queries, sharing plans, scans, and row sets.

    Each *distinct* canonical query is admitted (tenant-charged) and
    executed exactly once, in first-appearance order; results return in
    the order of ``queries``. Admission rejection of any group propagates
    — a batch is one unit of work.

    Args:
        server: the serving session (its caches and stats are used).
        queries: SPARQL texts or parsed queries.
        tenant: tenant label for admission (server default when ``None``).
        tracer: traces each distinct execution (shared rows record one).
    """
    tenant = tenant if tenant is not None else server.default_tenant
    engine = server.engine
    epoch = engine.plan_epoch
    parsed_queries = [server._parse(query) for query in queries]
    canonicals = [server.canonicalize_cached(parsed) for parsed in parsed_queries]

    # Group request indexes by canonical form: one execution per group.
    groups: dict[SelectQuery, list[int]] = {}
    for index, canonical in enumerate(canonicals):
        groups.setdefault(canonical, []).append(index)

    # Plan every distinct group up front (plan-cache path).
    entries = {canonical: server._plan_for(canonical, epoch) for canonical in groups}
    _count_shared_scans(server, entries.values())

    results: list[ResultSet | None] = [None] * len(parsed_queries)
    with server._lock:
        server.stats.queries_served += len(parsed_queries)
        server.stats.batched_queries += sum(
            len(members) - 1 for members in groups.values()
        )
    for canonical, members in groups.items():
        leader = parsed_queries[members[0]]
        rows, report = _rows_for(
            server, canonical, entries[canonical], leader, epoch, tenant, tracer
        )
        for index in members:
            names = tuple(v.name for v in parsed_queries[index].projection)
            results[index] = ResultSet(names, list(rows), report)
    return [result for result in results if result is not None]


def _count_shared_scans(server: QueryServer, entries) -> None:
    """Count the batch's table-scan references beyond one per table."""
    references: list[str] = []
    for entry in entries:
        references.extend(tables_scanned(entry.frame.plan))
    shared = len(references) - len(set(references))
    if shared:
        with server._lock:
            server.stats.shared_scans += shared


def _rows_for(
    server: QueryServer,
    canonical: SelectQuery,
    entry,
    leader: SelectQuery,
    epoch: tuple,
    tenant: str,
    tracer=None,
) -> tuple[tuple, object]:
    """One group's shared rows: result cache first, else one execution.

    Execution runs under a tenant-charged admission slot, exactly like
    single-query serving; the decoded rows land in the result cache so a
    later batch (or single query) with the same canonical form hits.
    """
    cache = server._result_cache
    if cache.capacity:
        cached = cache.get((canonical, epoch))
        if cached is not None:
            with server._lock:
                server.stats.result_cache_hits += 1
            return cached.rows, cached.report
        with server._lock:
            server.stats.result_cache_misses += 1
    try:
        with server.engine.governor.admit(tenant=tenant):
            result = server.engine.execute_prepared(
                leader, entry.frame, entry.description, tracer=tracer, admitted=True
            )
    except AdmissionRejectedError:
        with server._lock:
            server.stats.admission_rejections += 1
        raise
    rows = tuple(result.rows)
    if cache.capacity:
        cache.put((canonical, epoch), ResultEntry(rows, result.report))
    return rows, result.report
