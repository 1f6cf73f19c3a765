"""Command line: ``python3 -m perfbench run|aa`` (see README.md)."""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys

from . import OUT_DIR, ensure_repro
from .spec import (
    CUT_OWNERS, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, passes_for,
)

#: Passes of the ``--smoke`` profile (scale 200; for the test suite only).
SMOKE_PASSES = 2


def _refuse_switches() -> None:
    """An ablation switch left in the environment would silently measure a
    different program, so any ``REPRO_*`` variable stops the run."""
    switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if switches:
        raise SystemExit(
            f"perfbench: unset {', '.join(switches)} first; the benchmark "
            "measures the default configuration only"
        )


def run(args: argparse.Namespace) -> int:
    """One run of one workload; the last stdout line is the result object."""
    _refuse_switches()
    ensure_repro()
    from . import runner, spans
    from .inputs import timed_set_up

    workload = WORKLOADS[args.workload]
    profile = workload.smoke if args.smoke else workload.full
    passes_wanted = SMOKE_PASSES if args.smoke else passes_for(args.seconds)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "profile": "smoke" if args.smoke else "full",
        "scale": profile.scale,
        "stream_length": profile.requests,
        "clients": workload.clients,
        "passes": passes_wanted,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }

    inputs, setup_s = timed_set_up(workload, profile, args.seed)
    try:
        runner.warm_up(workload)
        passes = []
        for _ in range(passes_wanted):
            passes.append(runner.run_pass(inputs))
            gc.collect()  # the previous engine is gone before the next load
        # Read before the checks below allocate a second copy of the data.
        metrics = runner.end_to_end(inputs, passes, setup_s)
        checked = list(passes)
        if args.trace:
            recorder = spans.SpanRecorder()
            with spans.installed(recorder):
                traced = runner.run_pass(inputs, recorder)
            gc.collect()
            checked.append(traced)
            tracer_ratio = (
                runner.tracer_overhead(inputs)
                if workload.name == "repeat_hot" else 0.0
            )
            metrics = runner.per_layer(inputs, passes, traced, recorder, tracer_ratio)
        failures = runner.check_results(inputs, checked)
        record["triples"] = inputs.triples
        record["distinct_shapes"] = runner.distinct_shapes(inputs)
        for fraction, owners in CUT_OWNERS.items():
            cut = f"p{fraction * 100:.0f}"
            record[f"{cut}_at"] = runner.percentile_owner(inputs, passes, fraction)
            if record[f"{cut}_at"] not in owners and not args.smoke:
                print(
                    f"perfbench: query_{cut}_ms sits in {record[f'{cut}_at']}, "
                    f"not in {'/'.join(owners)}: see spec.CUT_OWNERS",
                    file=sys.stderr,
                )
    finally:
        inputs.path.unlink(missing_ok=True)

    attempted = len(inputs.stream) * len(checked)
    failed = min(len(failures), attempted)
    if not args.trace:
        # ISSUE 14's ``error_ratio``, turned round: a metric may never read 0.
        metrics["success_ratio"] = (attempted - failed) / attempted
        metrics["requests"] = attempted
    if args.trace:
        _write_json(f"trace-{workload.name}.json",
                    {"run": record, "spans": recorder.to_json()})
    _write_json(f"run-{workload.name}.json", {
        "run": record,
        "passes": [
            {"parse_s": p.parse_s, "engine_load_s": p.engine_load_s,
             "stream_wall_s": p.stream_wall_s,
             "latencies_s": p.latencies}
            for p in checked
        ],
        "failures": failures,
    })

    specs = PER_LAYER if args.trace else END_TO_END
    print("# " + " ".join(f"{key}={value}" for key, value in record.items()))
    for spec in specs:
        print(f"{spec.name:38} {metrics[spec.name]:16.6f} {spec.unit}")
    for failure in failures[:20]:
        print(f"WRONG {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec.name: {"value": metrics[spec.name], "unit": spec.unit}
            for spec in specs
        },
    }))
    return 1 if failures else 0


def _write_json(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="measure one workload")
    run_parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run_parser.add_argument("--seed", type=int, default=7)
    run_parser.add_argument(
        "--seconds", type=int, default=RUN_SECONDS,
        help=f"measurement budget; {RUN_SECONDS} s buys the standard 5 passes",
    )
    run_parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 adds the traced pass and prints the per-layer metrics",
    )
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="scale-200, 2-pass profile for the test suite (not a measurement)",
    )

    aa_parser = commands.add_parser(
        "aa", help="two sets of full runs of every workload, judged as the driver does"
    )
    aa_parser.add_argument("--runs", type=int, default=10, help="runs per set")

    args = parser.parse_args(argv)
    if args.command == "aa":
        from .aa import run_aa

        return run_aa(args.runs)
    return run(args)


def _pin_hash_seed() -> None:
    """Re-execute once with string hashing pinned.

    Hash randomization gives every process its own dict and set collision
    patterns, a per-run random slowdown that no amount of repetition inside
    the run averages out (one run in six read 8% slow on every metric).
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, "-m", "perfbench", *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
