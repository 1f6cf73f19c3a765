"""A/A tooling: do two sets of runs of one commit agree within the bounds?

``python3 -m perfbench aa --runs N`` judges the benchmark the way its driver
does. It makes two sets of N full runs of every workload (one process per
run, every run under another seed, set 1 finished before set 2 starts) and
prints, per workload and end-to-end metric, the extremes, each set's median
and *spread* — the interquartile range of its N values over their median —
and by how much set 2's median is worse than set 1's. A spread beyond the
metric's bound (``setup_s`` excepted, as the driver excepts it), a median
that worsened by more than the bound, or a latency cut that left its
template (``spec.CUT_OWNERS``) makes the command exit non-zero.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from . import OUT_DIR, REPO_ROOT
from .spec import CUT_OWNERS, END_TO_END, WORKLOADS


def one_run(workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    """Run one workload in a child process; its result object and the
    record (``"run"``) it left in ``out/run-<workload>.json``."""
    command = [
        sys.executable, "-m", "perfbench", "run",
        "--workload", workload, "--seed", str(seed),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise SystemExit(
            f"perfbench aa: {workload} seed {seed} exited {done.returncode}\n"
            f"{done.stdout}\n{done.stderr}"
        )
    with open(OUT_DIR / f"run-{workload}.json", encoding="utf-8") as handle:
        record = json.load(handle)["run"]
    return json.loads(done.stdout.strip().splitlines()[-1]), record


def spread(values: list[float]) -> float:
    """Interquartile range over median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def run_aa(runs: int, workloads=tuple(WORKLOADS), smoke: bool = False) -> int:
    """The ``aa`` subcommand (``workloads`` and ``smoke`` let the test suite
    drive it in seconds)."""
    values = {name: ({}, {}) for name in workloads}  # per set: metric -> values
    breaches = 0
    for number in range(2):
        for name in workloads:
            for index in range(runs):
                seed = 1 + number * runs + index
                result, record = one_run(name, seed, smoke)
                for metric, entry in result["metrics"].items():
                    values[name][number].setdefault(metric, []).append(entry["value"])
                for fraction, owners in CUT_OWNERS.items():
                    owner = record[f"p{fraction * 100:.0f}_at"]
                    if owner not in owners and not smoke:
                        breaches += 1
                        print(f"BREACH {name} seed {seed}: p{fraction * 100:.0f} "
                              f"sits in {owner}, not in {'/'.join(owners)}")
                print(f"set {number + 1} {name} seed {seed} done", file=sys.stderr)

    for name in workloads:
        first, second = values[name]
        print(f"## {name} (two sets of {runs} runs, every run another seed)")
        print("| metric | unit | min | max | set 1 median | set 1 spread "
              "| set 2 median | set 2 spread | set 2 worse by | bound | |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        for metric in END_TO_END:
            one, two = first[metric.name], second[metric.name]
            medians = statistics.median(one), statistics.median(two)
            worse = (medians[1] - medians[0]) / medians[0]
            if metric.better == "higher":
                worse = -worse
            spreads = spread(one), spread(two)
            breach = worse > metric.bound or (
                metric.name != "setup_s" and max(spreads) > metric.bound
            )
            breaches += breach
            print(
                f"| `{metric.name}` | {metric.unit} | {min(one + two):.4f} "
                f"| {max(one + two):.4f} | {medians[0]:.4f} | {spreads[0]:.2%} "
                f"| {medians[1]:.4f} | {spreads[1]:.2%} | {worse:+.2%} "
                f"| {metric.bound:.0%} | {'BREACH' if breach else 'ok'} |"
            )
    return 1 if breaches else 0
