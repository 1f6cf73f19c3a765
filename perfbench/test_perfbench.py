"""Checks on the benchmark itself, on the ``--smoke`` profile (scale 200,
2 passes; a few seconds per run). Not part of tier-1: run with
``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import perfbench

perfbench.ensure_repro()

from perfbench import inputs, runner, spec  # noqa: E402
from perfbench.__main__ import main  # noqa: E402

EXACT = ("stored_bytes_per_triple", "sim_load_s", "sim_query_s")
SEED = 7


def run_smoke(workload: str, trace: int = 0, seed: int = SEED) -> tuple[int, dict]:
    """Run the CLI in-process; (exit code, parsed last stdout line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "run", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--smoke",
        ])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {name: run_smoke(name)[1] for name in spec.WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: run_smoke(name, trace=1)[1] for name in spec.WORKLOADS}


def smoke_inputs(workload: str, seed: int = SEED) -> inputs.Inputs:
    made = inputs.set_up(
        spec.WORKLOADS[workload], spec.WORKLOADS[workload].smoke, seed
    )
    made.path.unlink()
    return made


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, untraced, traced):
    for result, metrics in (
        (untraced[workload], spec.END_TO_END),
        (traced[workload], spec.PER_LAYER),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            metric.name: metric.unit for metric in metrics
        }
    for name, metric in untraced[workload]["metrics"].items():
        assert metric["value"] > 0, name  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_exact_metrics_repeat_byte_for_byte(workload, untraced):
    again = run_smoke(workload)[1]["metrics"]
    for name in EXACT:
        assert again[name]["value"] == untraced[workload]["metrics"][name]["value"]


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_stream_is_a_function_of_the_seed(workload):
    first = smoke_inputs(workload)
    assert first.stream == smoke_inputs(workload).stream
    assert first.stream != smoke_inputs(workload, seed=SEED + 1).stream


def test_adhoc_distinct_never_repeats_and_overflows_a_plan_cache():
    made = smoke_inputs("adhoc_distinct")
    texts = [request.text for request in made.stream]
    assert len(set(texts)) == len(texts)
    assert runner.distinct_shapes(made) > 64  # DEFAULT_PLAN_CACHE_SIZE


def test_serve_mixed_split_clients_and_single_reload(traced):
    made = smoke_inputs("serve_mixed")
    fresh = sum(request.fresh for request in made.stream)
    assert fresh == round(len(made.stream) * (1 - spec.SERVE_HOT_SHARE))
    assert {request.client for request in made.stream} == {0, 1}
    with open(perfbench.OUT_DIR / "trace-serve_mixed.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    reloads = [span for span in trace["spans"] if span["name"] == "serve.reload"]
    assert len(reloads) == 1
    metrics = traced["serve_mixed"]["metrics"]
    assert metrics["serve.reload_s"]["value"] > 0
    assert metrics["serve.result_cache.hit_ratio"]["value"] > 0.5


def test_repeat_hot_plans_each_query_once(traced):
    metrics = traced["repeat_hot"]["metrics"]
    for layer in ("core.translator.translate", "engine.optimizer.optimize",
                  "analysis.check_query"):
        assert metrics[f"{layer}_calls"]["value"] == 20
    # A new text is parsed twice today: once by ProstEngine.sparql and again
    # by ProstEngine.dataframe on the plan-cache miss it then takes.
    assert metrics["sparql.parse_calls"]["value"] == 40
    assert metrics["core.prost.plan_reuse_ratio"]["value"] == 1.0
    assert metrics["obs.tracer_overhead_ratio"]["value"] > 1.0


def test_percentile_owner_names_the_request_kind_at_the_cut():
    made = smoke_inputs("repeat_hot")
    # Five cheap templates hold 30% of the stream, S1 the next 28%, C3 the
    # 14% before C2's last 3%.
    cost = {"L1": 1, "F1": 1, "F4": 1, "S7": 1, "L2": 1, "S1": 2, "C3": 4, "C2": 5}
    passes = [
        runner.PassResult(latencies=[cost.get(r.key, 3) * noise for r in made.stream])
        for noise in (1.0, 1.1)
    ]
    assert runner.percentile_owner(made, passes, 0.50) == "S1"
    assert runner.percentile_owner(made, passes, 0.95) == "C3"
    served = smoke_inputs("serve_mixed")
    passes = [runner.PassResult(latencies=[2.0 if r.fresh else 1.0 for r in served.stream])]
    assert runner.percentile_owner(served, passes, 0.50) == "hot"
    assert runner.percentile_owner(served, passes, 0.95) == "fresh"


def test_aa_judges_two_sets_of_runs(capsys):
    from perfbench.aa import run_aa

    code = run_aa(2, workloads=("repeat_hot",), smoke=True)
    table = capsys.readouterr().out
    for metric in spec.END_TO_END:
        assert f"| `{metric.name}` | {metric.unit} |" in table
    assert code == ("BREACH" in table)


def test_a_wrong_answer_fails_the_run(monkeypatch):
    calls = {"count": 0}
    honest = runner.rows_digest

    def corrupt_one(rows):
        calls["count"] += 1
        count, digest = honest(rows)
        return (count, digest ^ 1) if calls["count"] == 50 else (count, digest)

    monkeypatch.setattr(runner, "rows_digest", corrupt_one)
    code, result = run_smoke("repeat_hot")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_refuses_to_run_under_an_ablation_switch(monkeypatch):
    monkeypatch.setenv("REPRO_VECTORIZE", "0")
    with pytest.raises(SystemExit) as refusal:
        main(["run", "--workload", "repeat_hot", "--smoke"])
    assert refusal.value.code not in (0, None)
