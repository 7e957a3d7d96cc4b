"""Tests of the benchmark itself: smoke runs, tracer mechanics and checks.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import run
import tracing
import workloads
from pllab import cli
from pllab.distributions import PerturbationDistribution

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name):
    result, _, _ = run.measure(name, seed=1, seconds=0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


# the layer each workload exists to exercise
REACHED = {
    "regret-ftpl": ["distributions.sample_array.draws", "policies.geometric_resample.draws",
                    "harness.us_per_round.resample", "environments.next_loss.calls"],
    "regret-ftrl": ["policies.tsallis_weights.root_evals", "harness.us_per_round.select",
                    "environments.next_loss.calls"],
    "phi-scan": ["selection.quad.calls", "selection.segments_per_probe", "distributions.pdf_prime.points"],
    "duality": ["duality.potential.calls", "duality.brentq.root_evals", "duality.char_fn_grid.total_s",
                "selection.phi_values.calls"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    result, _, _ = run.measure(name, seed=1, seconds=0, trace=1, tiny=True)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [n for n, _, _ in layers.PER_LAYER]
    assert all(metrics[k] > 0 for k in REACHED[name] + ["cli.main.calls"])
    assert metrics["trace.overhead_frac"] > -1.0


def test_counts_repeat_across_traced_runs_with_the_same_seed():
    first, _, _ = run.measure("regret-ftpl", seed=5, seconds=0, trace=1, tiny=True)
    second, _, _ = run.measure("regret-ftpl", seed=5, seconds=0, trace=1, tiny=True)
    for name in layers.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def _targets():
    """Every attribute the tracer patches, with the object it holds."""
    import importlib

    out = {}
    for mname in tracing.MODULES:
        mod = importlib.import_module(f"pllab.{mname}")
        for key, val in vars(mod).items():
            if inspect.isfunction(val) or (mname, key) in tracing.SCIPY_ENTRY_POINTS:
                out[(mod, key)] = val
            if isinstance(val, type) and issubclass(val, PerturbationDistribution):
                for meth in tracing.LAW_METHODS:
                    if meth in val.__dict__:
                        out[(val, meth)] = val.__dict__[meth]
    return out


def test_wrappers_are_installed_and_then_restored():
    before = _targets()
    tracer = tracing.Tracer().install()
    try:
        during = _targets()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) == len(tracer._patches) > 50
        from pllab import harness, selection

        assert harness.next_loss is not before[(harness, "next_loss")]
        assert selection.quad is not before[(selection, "quad")]
    finally:
        tracer.uninstall()
    after = _targets()
    assert all(after[k] is before[k] for k in before)


def test_timings_are_scaled_to_reference_speed_and_taken_per_call():
    ref = hostspeed.REFERENCE_S
    # the same two calls in a pass on a host at half speed, then twice at full speed
    slow = [workloads.Op("a", 2.0, 2 * ref, 1, True), workloads.Op("b", 4.0, 2 * ref, 0, True)]
    fast = [workloads.Op("a", 1.0, ref, 1, True), workloads.Op("b", 3.0, ref, 0, True)]
    assert slow[0].ref_seconds == pytest.approx(1.0)
    assert run.op_medians([slow, fast, fast]) == pytest.approx([1.0, 3.0])


def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    by_name, by_edge = tracer.stats()
    assert by_name["m.outer"] == {"calls": 1.0, "total_s": 10.0, "self_s": 5.0, "count": 0.0}
    assert by_name["m.inner"] == {"calls": 2.0, "total_s": 5.0, "self_s": 5.0, "count": 0.0}
    assert by_edge[("m.outer", "m.inner")]["total_s"] == 5.0


def test_evaluation_counting_wrapper_counts_calls_of_the_passed_function():
    tracer = tracing.Tracer()
    integrate = tracer.wrap("s.quad", lambda f, a, b: f(a) + f(b) + f(0.5 * (a + b)), evals=True)
    assert integrate(lambda x: x, 0.0, 2.0) == 3.0
    assert tracer.stats()[0]["s.quad"]["count"] == 3.0


class OscillatingLaw(PerturbationDistribution):
    """A fake law whose density no quadrature resolves to 1e-8."""

    def cdf(self, x):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + np.sign(np.sin(1e5 * x))) * np.exp(-np.abs(x))

    def pdf_prime(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def test_tolerance_not_met_counts_as_a_failed_operation(monkeypatch):
    monkeypatch.setattr(cli, "parse_dist", lambda spec: OscillatingLaw())
    result, _, _ = run.measure("phi-scan", seed=1, seconds=0, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(workloads.phi_probes(1, tiny=True))


def test_command_prints_one_json_result_line_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "regret-ftrl", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phi-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
