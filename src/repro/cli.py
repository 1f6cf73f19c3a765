"""Command-line interface: generate data, run queries, reproduce benchmarks.

Installed as ``prost-repro``::

    prost-repro generate --scale 300 --out watdiv.nt
    prost-repro query --data watdiv.nt --query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'
    prost-repro explain --data watdiv.nt --query-file q.rq --analyze
    prost-repro check --data watdiv.nt --query-file q.rq
    prost-repro check --watdiv-sweep --scale 120
    prost-repro lint
    prost-repro metrics --markdown
    prost-repro benchmark --scale 300 --experiment table2
    prost-repro queries --scale 300 --name C3
    prost-repro fuzz --seed 0 --iterations 50
    prost-repro config --markdown
    prost-repro serve --data watdiv.nt
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    BenchmarkConfig,
    BenchmarkSuite,
    render_bar_chart,
    render_figure2,
    render_figure3,
    render_table1,
    render_table2,
)
from .core.prost import ProstEngine
from .errors import ReproError
from .rdf.graph import Graph
from .rdf.ntriples import write_ntriples_file
from .serve.server import DEFAULT_PLAN_CACHE_SIZE, DEFAULT_RESULT_CACHE_SIZE
from .watdiv.generator import generate_watdiv
from .watdiv.queries import basic_query_set


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_watdiv(scale=args.scale, seed=args.seed)
    count = write_ntriples_file(dataset.graph, args.out)
    print(f"wrote {count:,} triples to {args.out}")
    return 0


def _governed_config(args: argparse.Namespace):
    """A ClusterConfig carrying the governance flags, or None when unset
    (``None`` keeps the engine on its default configuration)."""
    if args.memory_budget is None and args.timeout is None:
        return None
    from .engine.cluster import ClusterConfig

    return ClusterConfig(
        num_workers=getattr(args, "workers", 9),
        memory_budget_bytes=args.memory_budget,
        query_timeout_sec=args.timeout,
    )


def _add_governance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget",
        type=int,
        metavar="BYTES",
        default=None,
        help="per-query memory budget; joins over it degrade "
        "(broadcast→shuffle) or spill to disk instead of failing",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SEC",
        default=None,
        help="per-query deadline; exceeding it raises QueryTimeoutError "
        "with the partial metrics preserved",
    )


def _read_query(args: argparse.Namespace) -> str | None:
    """The SPARQL text from ``--query`` / ``--query-file`` (None = missing)."""
    if args.query is not None:
        return args.query
    if args.query_file is not None:
        with open(args.query_file, encoding="utf-8") as handle:
            return handle.read()
    return None


def _cmd_query(args: argparse.Namespace) -> int:
    query = _read_query(args)
    if query is None:
        print("error: provide --query or --query-file", file=sys.stderr)
        return 2

    graph = Graph.from_file(args.data)
    engine = ProstEngine(
        num_workers=args.workers,
        strategy=args.strategy,
        cluster_config=_governed_config(args),
    )
    load_report = engine.load(graph)
    print(f"# {load_report.summary()}", file=sys.stderr)

    if args.explain:
        print(engine.explain(query))
        return 0
    tracer = None
    if args.trace_out:
        from .obs.tracer import Tracer

        tracer = Tracer()
    result = engine.sparql(query, tracer=tracer)
    print("\t".join(f"?{name}" for name in result.variables))
    for row in result:
        print("\t".join("" if term is None else term.n3() for term in row))
    print(f"# {len(result)} rows, {result.report.summary()}", file=sys.stderr)
    if tracer is not None:
        tracer.write_json(args.trace_out)
        print(f"# wrote trace to {args.trace_out}", file=sys.stderr)
    return 0


#: Engines the ``explain`` subcommand can build, by ``--system`` name.
EXPLAIN_SYSTEMS = ("prost", "s2rdf", "sparqlgx", "sparqlgx-sde", "rya")

#: Engines the ``check`` subcommand can verify (Rya plans over a key-value
#: store, not logical plans, so there is nothing for the verifier to check).
CHECK_SYSTEMS = ("prost", "s2rdf", "sparqlgx", "sparqlgx-sde")


def _system_engine(args: argparse.Namespace, cluster_config=None):
    """A fresh, unloaded engine for ``--system`` (``explain`` and ``check``)."""
    from .baselines import Rya, S2Rdf, SparqlGx, SparqlGxDirect

    factories = {
        "prost": lambda: ProstEngine(
            num_workers=args.workers,
            strategy=args.strategy,
            cluster_config=cluster_config,
        ),
        "s2rdf": lambda: S2Rdf(num_workers=args.workers),
        "sparqlgx": lambda: SparqlGx(num_workers=args.workers),
        "sparqlgx-sde": lambda: SparqlGxDirect(num_workers=args.workers),
        "rya": lambda: Rya(num_tablet_servers=args.workers),
    }
    return factories[args.system]()


def _cmd_explain(args: argparse.Namespace) -> int:
    query = _read_query(args)
    if query is None:
        print("error: provide --query or --query-file", file=sys.stderr)
        return 2
    if args.trace_out and (not args.analyze or args.system != "prost"):
        print(
            "error: --trace-out requires --analyze and --system prost",
            file=sys.stderr,
        )
        return 2

    if args.system != "prost" and (
        args.memory_budget is not None or args.timeout is not None
    ):
        print(
            "error: --memory-budget/--timeout require --system prost",
            file=sys.stderr,
        )
        return 2

    graph = Graph.from_file(args.data)
    engine = _system_engine(args, _governed_config(args))
    load_report = engine.load(graph)
    print(f"# {load_report.summary()}", file=sys.stderr)

    tracer = None
    if args.trace_out:
        from .obs.tracer import Tracer

        tracer = Tracer()
    if args.system == "prost":
        print(engine.explain(query, analyze=args.analyze, tracer=tracer))
    else:
        print(engine.explain(query, analyze=args.analyze))
    if tracer is not None:
        tracer.write_json(args.trace_out)
        print(f"# wrote trace to {args.trace_out}", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import render_diagnostics

    if args.watdiv_sweep:
        dataset = generate_watdiv(scale=args.scale, seed=args.seed)
        graph = dataset.graph
        queries = [(q.name, q.text) for q in basic_query_set(dataset)]
    else:
        query = _read_query(args)
        if query is None:
            print(
                "error: provide --query, --query-file, or --watdiv-sweep",
                file=sys.stderr,
            )
            return 2
        if args.data is None:
            print("error: provide --data (or --watdiv-sweep)", file=sys.stderr)
            return 2
        graph = Graph.from_file(args.data)
        queries = [("query", query)]

    engine = _system_engine(args)
    engine.load(graph)
    failed = 0
    for name, text in queries:
        diagnostics = engine.verify(text)
        if diagnostics:
            failed += 1
            tree = None
            if isinstance(engine, ProstEngine):
                from .sparql.parser import parse_sparql

                tree = engine._explain_tree_text(parse_sparql(text))
            print(f"== {name}: REJECTED ==")
            print(render_diagnostics(diagnostics, tree))
        elif args.verbose or args.watdiv_sweep:
            print(f"== {name}: ok ==")
    if failed:
        print(f"# {failed}/{len(queries)} quer{'y' if failed == 1 else 'ies'} rejected",
              file=sys.stderr)
        return 1
    print(f"# {len(queries)} quer{'y' if len(queries) == 1 else 'ies'} verified clean",
          file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.lint import run_lints
    from .analysis.lint.runner import render_json, render_report

    root = Path(args.root) if args.root else None
    violations = run_lints(root)
    if args.json:
        sys.stdout.write(render_json(violations))
    else:
        print(render_report(violations))
    return 1 if violations else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs.metrics import REGISTRY

    if args.markdown:
        # write(), not print(): the output redirected to docs/METRICS.md
        # must be byte-identical to the registry rendering.
        sys.stdout.write(REGISTRY.markdown())
        return 0
    for layer in REGISTRY.layers():
        print(f"[{layer}]")
        for name in REGISTRY.names(layer):
            spec = REGISTRY.get(name)
            print(f"  {spec.name:32} {spec.unit:8} {spec.description}")
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    from .obs import configdoc

    if args.markdown:
        # write(), not print(): the output redirected to docs/CONFIGURATION.md
        # must be byte-identical to the generator rendering.
        sys.stdout.write(configdoc.markdown())
        return 0
    print(configdoc.render_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """An interactive serving session: one engine, caches, tenant admission.

    Reads one query per line from stdin (SPARQL is line-oriented enough for
    a console session); dot-commands inspect the server:

    - ``.stats`` — the ``serve.*`` counters
    - ``.tenants`` — per-tenant admission accounting
    - ``.explain <query>`` — plans (annotated ``[cached plan]`` on a hit)
    - ``.tenant <name>`` — switch the tenant label for subsequent queries
    - ``.quit`` — exit
    """
    from .serve import QueryServer

    graph = Graph.from_file(args.data)
    engine = ProstEngine(
        num_workers=args.workers,
        strategy=args.strategy,
        cluster_config=_governed_config(args),
    )
    server = QueryServer(
        engine,
        plan_cache_size=args.plan_cache,
        result_cache_size=args.result_cache,
        max_queries_per_tenant=args.max_per_tenant,
    )
    load_report = server.load(graph)
    print(f"# {load_report.summary()}", file=sys.stderr)
    print(
        f"# serving (plan cache {server._plan_cache.capacity}, "
        f"result cache {server._result_cache.capacity}); "
        ".quit to exit, .stats / .tenants / .explain <query> to inspect",
        file=sys.stderr,
    )
    tenant = args.tenant
    stream = open(args.script, encoding="utf-8") if args.script else sys.stdin
    try:
        for line in stream:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if text == ".quit":
                break
            if text == ".stats":
                for name, value in server.metrics_snapshot().items():
                    print(f"  {name:32} {value}")
                continue
            if text == ".tenants":
                for name, counts in server.tenant_snapshot().items():
                    print(f"  {name:16} {counts}")
                continue
            if text.startswith(".tenant "):
                tenant = text[len(".tenant "):].strip()
                print(f"# tenant = {tenant}", file=sys.stderr)
                continue
            if text.startswith(".explain "):
                try:
                    print(server.explain(text[len(".explain "):]))
                except Exception as exc:
                    print(f"error: {exc}", file=sys.stderr)
                continue
            try:
                result = server.sparql(text, tenant=tenant)
            except Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
                continue
            print("\t".join(f"?{name}" for name in result.variables))
            for row in result:
                print("\t".join("" if term is None else term.n3() for term in row))
            print(f"# {len(result)} rows, {result.report.summary()}", file=sys.stderr)
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0


def _cmd_queries(args: argparse.Namespace) -> int:
    dataset = generate_watdiv(scale=args.scale, seed=args.seed)
    for query in basic_query_set(dataset):
        if args.name and query.name != args.name:
            continue
        print(f"# -- {query.name} ({query.group}) {'-' * 40}")
        print(query.text)
        print()
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(BenchmarkConfig(scale=args.scale, seed=args.seed))
    print(
        f"# WatDiv scale={args.scale}: {len(suite.dataset.graph):,} triples, "
        f"emulation factor {suite.data_scale:,.0f}x",
        file=sys.stderr,
    )
    wanted = args.experiment
    if wanted in ("table1", "all"):
        print(render_table1(suite.run_loading_comparison(), suite.data_scale), "\n")
    if wanted in ("figure2", "all"):
        print(render_figure2(suite.run_strategy_comparison()), "\n")
    if wanted in ("figure3", "table2", "all"):
        runs = suite.run_all_systems()
        if wanted in ("figure3", "all"):
            print(render_figure3(runs), "\n")
            if args.chart:
                print(render_bar_chart(runs, "Figure 3 as log-scale bars"), "\n")
        if wanted in ("table2", "all"):
            print(render_table2(runs))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import ALL_SYSTEMS, run_fuzz

    # Chaos mode: --chaos-seed pins the fault-plan base seed; --chaos turns
    # it on with the fuzz base seed.
    chaos_seed = args.chaos_seed
    if chaos_seed is None and args.chaos:
        chaos_seed = args.seed
    systems = tuple(args.system) if args.system else ALL_SYSTEMS
    for name in systems:
        if name not in ALL_SYSTEMS:
            print(
                f"error: unknown system {name!r} (choose from {', '.join(ALL_SYSTEMS)})",
                file=sys.stderr,
            )
            return 2

    def progress(current_seed: int, mismatch_count: int) -> None:
        if args.verbose:
            status = "ok" if mismatch_count == 0 else f"{mismatch_count} mismatch(es)"
            print(f"# seed {current_seed}: {status}", file=sys.stderr)

    report = run_fuzz(
        base_seed=args.seed,
        iterations=args.iterations,
        queries_per_graph=args.queries_per_graph,
        systems=systems,
        shrink=not args.no_shrink,
        stop_on_first=args.stop_on_first,
        progress=progress,
        chaos_seed=chaos_seed,
        memory_budget_bytes=args.memory_budget,
        query_timeout_sec=args.timeout,
    )
    print(report.summary())
    for mismatch in report.mismatches:
        print()
        print(mismatch.format())
    if args.trace_out:
        import json

        traces = [m.trace for m in report.mismatches if m.trace is not None]
        if traces:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump({"traces": traces}, handle, indent=2)
                handle.write("\n")
            print(
                f"# wrote {len(traces)} divergence trace(s) to {args.trace_out}",
                file=sys.stderr,
            )
        else:
            print("# no divergences, no trace written", file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prost-repro",
        description="PRoST reproduction: distributed SPARQL over mixed partitioning.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a WatDiv-style dataset")
    generate.add_argument("--scale", type=int, default=300, help="≈ user count")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output N-Triples file")
    generate.set_defaults(handler=_cmd_generate)

    query = commands.add_parser("query", help="run a SPARQL query over an N-Triples file")
    query.add_argument("--data", required=True, help="N-Triples input file")
    query.add_argument("--query", help="SPARQL text")
    query.add_argument("--query-file", help="file containing the SPARQL text")
    query.add_argument("--strategy", choices=("mixed", "vp"), default="mixed")
    query.add_argument("--workers", type=int, default=9)
    query.add_argument("--explain", action="store_true", help="show plans, don't run")
    query.add_argument(
        "--trace-out", metavar="PATH", help="write the span trace of the run as JSON"
    )
    _add_governance_flags(query)
    query.set_defaults(handler=_cmd_query)

    explain = commands.add_parser(
        "explain",
        help="render a query's join tree and engine plan (EXPLAIN [ANALYZE])",
        description="Show how a query would execute: the Join Tree with "
        "node kinds (PT/VP), priorities, and estimated rows, plus the "
        "physical engine plan. With --analyze the query actually runs and "
        "every node gains actual row counts, the executed join strategy "
        "(colocated/broadcast-hash/shuffle-hash), data-movement bytes, and "
        "any fault-recovery charges.",
    )
    explain.add_argument("--data", required=True, help="N-Triples input file")
    explain.add_argument("--query", help="SPARQL text")
    explain.add_argument("--query-file", help="file containing the SPARQL text")
    explain.add_argument("--strategy", choices=("mixed", "vp"), default="mixed")
    explain.add_argument("--workers", type=int, default=9)
    explain.add_argument(
        "--system",
        choices=EXPLAIN_SYSTEMS,
        default="prost",
        help="which engine's plan to show (default: prost)",
    )
    explain.add_argument(
        "--analyze", action="store_true", help="execute and annotate with actuals"
    )
    explain.add_argument(
        "--trace-out",
        metavar="PATH",
        help="also write the span trace as JSON (requires --analyze, prost)",
    )
    _add_governance_flags(explain)
    explain.set_defaults(handler=_cmd_explain)

    check = commands.add_parser(
        "check",
        help="statically verify a query's plans without executing them",
        description="Run the static plan verifier: translate a query, infer "
        "every plan node's schema and partitioning, and report violated "
        "invariants (unbound variables, mis-grouped property-table nodes, "
        "priorities inconsistent with the statistics, mistyped join keys, "
        "shuffle hints that discard co-partitioning) as EXPLAIN-style "
        "diagnostics pointing at the offending tree node. Exits non-zero "
        "when any plan is rejected. The same checks run before every query "
        "the engine plans.",
    )
    check.add_argument("--data", help="N-Triples input file")
    check.add_argument("--query", help="SPARQL text")
    check.add_argument("--query-file", help="file containing the SPARQL text")
    check.add_argument(
        "--watdiv-sweep",
        action="store_true",
        help="verify the whole WatDiv basic query set on generated data",
    )
    check.add_argument("--scale", type=int, default=300, help="sweep dataset scale")
    check.add_argument("--seed", type=int, default=7, help="sweep dataset seed")
    check.add_argument("--strategy", choices=("mixed", "vp"), default="mixed")
    check.add_argument("--workers", type=int, default=9)
    check.add_argument(
        "--system",
        choices=CHECK_SYSTEMS,
        default="prost",
        help="which planner's output to verify (default: prost)",
    )
    check.add_argument("--verbose", action="store_true", help="also print clean queries")
    check.set_defaults(handler=_cmd_check)

    lint = commands.add_parser(
        "lint",
        help="run the architectural lints over the repro source tree",
        description="AST-based checks of the codebase's own contracts: "
        "import layering (the generic engine/columnar/hdfs layers never "
        "import baselines or sparql; obs stays optional), determinism (no "
        "wall-clock time, ambient randomness or environment reads anywhere "
        "in the package), the metrics contract (counter names only "
        "via repro.obs.metrics constants), the error hierarchy (every "
        "raise uses repro.errors), and the concurrency discipline of the "
        "serving data plane (guarded-by/lockset checking, CC101-CC105). "
        "Exits non-zero on any violation.",
    )
    lint.add_argument(
        "--root", help="package directory to scan (default: the installed repro)"
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array (path, line, rule, code, message) "
        "instead of the text report",
    )
    lint.set_defaults(handler=_cmd_lint)

    metrics = commands.add_parser(
        "metrics",
        help="print the metrics contract (every documented counter)",
        description="List every counter the engine, fault-injection, HDFS, "
        "and cost layers emit, with units and documentation. --markdown "
        "emits the exact content of docs/METRICS.md (a test keeps the file "
        "in sync with this output).",
    )
    metrics.add_argument(
        "--markdown", action="store_true", help="emit docs/METRICS.md content"
    )
    metrics.set_defaults(handler=_cmd_metrics)

    config = commands.add_parser(
        "config",
        help="print the configuration contract (every knob and its flag)",
        description="List every ClusterConfig field (default, validation "
        "rule, CLI flag), read live from the code. --markdown emits the exact "
        "content of docs/CONFIGURATION.md (a test keeps the file in sync "
        "with this output).",
    )
    config.add_argument(
        "--markdown", action="store_true", help="emit docs/CONFIGURATION.md content"
    )
    config.set_defaults(handler=_cmd_config)

    serve = commands.add_parser(
        "serve",
        help="serve queries interactively through the multi-tenant session layer",
        description="Load a dataset once and answer queries from stdin "
        "through repro.serve.QueryServer: tenant-labelled admission via the "
        "governor, an LRU plan cache keyed on normalized query shape, and a "
        "result cache invalidated on reload. One query per line; "
        ".stats/.tenants/.explain <query>/.tenant <name>/.quit are console "
        "commands.",
    )
    serve.add_argument("--data", required=True, help="N-Triples input file")
    serve.add_argument("--strategy", choices=("mixed", "vp"), default="mixed")
    serve.add_argument("--workers", type=int, default=9)
    serve.add_argument(
        "--plan-cache", type=int, default=DEFAULT_PLAN_CACHE_SIZE, metavar="N",
        help=f"plan-cache capacity (0 disables; default {DEFAULT_PLAN_CACHE_SIZE})",
    )
    serve.add_argument(
        "--result-cache", type=int, default=DEFAULT_RESULT_CACHE_SIZE, metavar="N",
        help=f"result-cache capacity (0 disables; default {DEFAULT_RESULT_CACHE_SIZE})",
    )
    serve.add_argument(
        "--max-per-tenant", type=int, default=None, metavar="N",
        help="admission cap per tenant label (default: unlimited)",
    )
    serve.add_argument("--tenant", default=None, help="initial tenant label")
    serve.add_argument(
        "--script", metavar="PATH",
        help="read the session from this file instead of stdin",
    )
    _add_governance_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    queries = commands.add_parser("queries", help="print the WatDiv basic query set")
    queries.add_argument("--scale", type=int, default=300)
    queries.add_argument("--seed", type=int, default=7)
    queries.add_argument("--name", help="only this query (e.g. C3)")
    queries.set_defaults(handler=_cmd_queries)

    benchmark = commands.add_parser("benchmark", help="reproduce the paper's evaluation")
    benchmark.add_argument("--scale", type=int, default=300)
    benchmark.add_argument("--seed", type=int, default=7)
    benchmark.add_argument(
        "--experiment",
        choices=("table1", "figure2", "figure3", "table2", "all"),
        default="all",
    )
    benchmark.add_argument(
        "--chart", action="store_true",
        help="also render figure 3 as ASCII log-scale bars",
    )
    benchmark.set_defaults(handler=_cmd_benchmark)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential-fuzz all engines against the brute-force oracle",
        description="Generate random graphs and BGP queries from a seed, run "
        "them on every engine, and compare the solutions against a "
        "brute-force oracle. Exits non-zero when any engine disagrees; the "
        "report includes a shrunken counterexample and a replay command.",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="base seed, one graph per seed (default 0)"
    )
    fuzz.add_argument(
        "--iterations", type=int, default=20, help="number of seeds to run (default 20)"
    )
    fuzz.add_argument(
        "--queries-per-graph", type=int, default=10, help="random queries per graph"
    )
    fuzz.add_argument(
        "--system",
        action="append",
        metavar="NAME",
        help="restrict to one or more systems (repeatable); default: all",
    )
    fuzz.add_argument(
        "--chaos",
        action="store_true",
        help="inject a seeded random fault plan (task/worker/shuffle-fetch "
        "failures, stragglers) into every cluster-backed engine; results "
        "must still match the fault-free oracle.",
    )
    fuzz.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="chaos base seed (implies --chaos; default: the fuzz base seed)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="report raw counterexamples unshrunken"
    )
    fuzz.add_argument(
        "--stop-on-first", action="store_true", help="stop at the first failing seed"
    )
    fuzz.add_argument("--verbose", action="store_true", help="per-seed progress on stderr")
    fuzz.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the span traces of diverging counterexamples as JSON",
    )
    _add_governance_flags(fuzz)
    fuzz.set_defaults(handler=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = getattr(exc, "metrics", None)
        if partial is not None:  # a deadline or cancellation cut the query off
            print(
                f"# partial work before cut-off: stages={partial.stages} "
                f"rows={partial.rows_processed} scan={partial.bytes_scanned}B",
                file=sys.stderr,
            )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
