"""Methodology check — emulated times are stable across generator scales.

The evaluation runs a scaled-down WatDiv graph but costs it "as if" it were
WatDiv100M (``data_scale = 100M / triples``). If that emulation is sound,
the simulated per-query times must be approximately *invariant* to the
generator scale: doubling the local dataset halves the multiplier and
doubles the local work, cancelling out. This benchmark runs PRoST's query
set at three scales and checks the per-class averages stay within a factor
of ~2.5 — drift beyond that would mean the cost model has super-linear
artifacts and Figures 2/3 could not be trusted.
"""

from repro.bench import BenchmarkConfig, BenchmarkSuite
from repro.watdiv.queries import QUERY_GROUPS

SCALES = (150, 300, 600)


def test_emulated_times_are_scale_invariant(save_artifact):
    def run_all_scales():
        averages = {}
        for scale in SCALES:
            suite = BenchmarkSuite(BenchmarkConfig(scale=scale))
            run = suite.run_system(suite.make_prost())
            averages[scale] = run.average_by_group()
        return averages

    averages = run_all_scales()

    lines = ["Scaling check: PRoST per-class averages (ms) across generator scales"]
    lines.append(f"{'scale':<8}" + "".join(f"{g:>10}" for g in QUERY_GROUPS))
    for scale in SCALES:
        lines.append(
            f"{scale:<8}"
            + "".join(f"{averages[scale][g] * 1000:>10,.0f}" for g in QUERY_GROUPS)
        )
    save_artifact("scaling_invariance", "\n".join(lines))

    for group in QUERY_GROUPS:
        values = [averages[scale][group] for scale in SCALES]
        assert max(values) / min(values) < 2.5, (
            f"class {group} drifts {max(values) / min(values):.1f}x across scales"
        )
