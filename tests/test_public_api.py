"""Each module's ``__all__`` names every public function and class it defines,
every public function has a caller outside the tests, the public values a
caller can set are the listed ones, the benchmark's tracer finds every name
it wraps, and neither importing pllab nor its phi scans, simulations and
phi_1 inversions load a scipy module."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import TWO_ARM_GOLDEN

import pllab
from pllab import _scipy, duality
from pllab.distributions import parse_dist

MODULES = sorted(m.name for m in pkgutil.iter_modules(pllab.__path__))
ROOT = Path(__file__).resolve().parents[1]

# public functions that only tests call, each with the reason it stays in src/
TEST_ONLY = {
    "selection.counterexample_scan": "criterion 4: the paper's K = 3 counterexample",
    "selection.phi_quadrature": "the one-vector probe; analyze-phi and counterexample_scan batch its kernel call",
    "duality.two_arm_quantile": "golden pin: the exact two-arm roots",
    "duality.regularizer_value": "north-star number: the Legendre-dual regularizer",
    "policies.geometric_resample": "criterion 10: the resampling estimator alone, without a selection",
    "policies.tsallis_weights": "the Tsallis solver on ndarrays, which FtrlPolicy.play runs on lists; "
                                "the KKT, warm-start and brentq-oracle tests",
}

# every settable public value: a defaulted parameter of an __all__ function or
# of a public method, or a defaulted dataclass field.  A new one fails
# test_public_settable_values until it is added here on purpose.
SETTABLE = {
    "cli.main.argv",
    "distributions.AssumptionReport.flags",
    "distributions.AssumptionReport.notes",
    "distributions.AsymmetricPareto.alpha",
    "distributions.AsymmetricPareto.beta",
    "distributions.Exponential.rate",
    "distributions.Frechet.alpha",
    "distributions.GeneralizedPareto.beta",
    "distributions.GeneralizedPareto.scale",
    "distributions.Laplace.rate",
    "distributions.SymmetricPareto.a",
    "duality.normal_ift_pipeline.n",
    "duality.potential.tol",
    "duality.tsallis_ift_pipeline.beta",
    "duality.tsallis_ift_pipeline.n",
    "duality.tsallis_ift_pipeline.x_max",
    "duality.tsallis_ift_pipeline.x_min",
    "duality.tsallis_quantile.beta",
    "harness.ExperimentConfig.out",
    "harness.ExperimentConfig.threads",
    "harness.RegretTable.metadata",
    "policies.FtplPolicy.resample_cap",
    "policies.PolicyState.cap_hits",
    "policies.PolicyState.last_c",
    "policies.PolicyState.resample_cap",
    "policies.PolicyState.resample_trials",
    "policies.PolicyState.root_evals",
    "policies.PolicyState.t",
    "policies.PolicyState.tape",
    "policies.PolicyState.tape_law",
    "policies.PolicyState.tape_pos",
    "policies.PolicyState.vectors_drawn",
    "policies.Tsallis.tsallis_beta",
    "policies.tsallis_weights.start",
    "selection.phi_quadrature.tol",
    "selection.phi_values.tol",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(f"pllab.{name}")
    defined = {
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    listed = set(getattr(mod, "__all__", ()))
    assert defined - listed == set()
    assert listed <= set(vars(mod))


def test_every_public_function_has_a_caller():
    referenced = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/**/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = set()
    for name in MODULES:
        mod = importlib.import_module(f"pllab.{name}")
        for attr in getattr(mod, "__all__", ()):
            if inspect.isfunction(getattr(mod, attr)) and attr not in referenced:
                uncalled.add(f"{name}.{attr}")
    # equality: a listed function that gains a caller leaves the list
    assert uncalled == TEST_ONLY.keys()
    assert all(reason.strip() for reason in TEST_ONLY.values())


def _defaulted(fn, prefix):
    params = inspect.signature(fn).parameters.values()
    return {f"{prefix}.{p.name}" for p in params if p.default is not p.empty}


def test_public_settable_values():
    settable = set()
    for name in MODULES:
        mod = importlib.import_module(f"pllab.{name}")
        for attr in getattr(mod, "__all__", ()):
            obj, prefix = getattr(mod, attr), f"{name}.{attr}"
            if inspect.isfunction(obj):
                settable |= _defaulted(obj, prefix)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    settable |= {
                        f"{prefix}.{f.name}" for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                    }
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        settable |= _defaulted(fn, f"{prefix}.{meth}")
    assert settable == SETTABLE


def test_bench_tracer_installs_and_restores(monkeypatch):
    # bench/tracing.py wraps pllab's functions, law methods and the scipy entry
    # points (pllab._scipy's lazy functions, bound under scipy's names) by
    # name: a renamed or deleted one raises KeyError at install
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert len(patches) > 50
        assert all(vars(owner)[attr] is not original for owner, attr, original in patches)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patches)


def test_bench_tracer_wraps_the_uncalled_duality_brentq(monkeypatch):
    # the phi_1 inversions no longer call brentq: the name stays bound only so that
    # the tracer, which wraps it by name, installs, and its span records no call
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        assert duality.brentq is not _scipy.brentq
        c = duality.two_arm_quantile(0.3, parse_dist("splareto:a=2"))
    finally:
        tracer.uninstall()
    want, tol = TWO_ARM_GOLDEN[0.3]
    assert abs(c - want) <= tol
    assert tracer.stats()[0]["duality.brentq"]["calls"] == 0


# other test modules import scipy into this process, so the check runs in a
# fresh interpreter: the import, a phi scan, a short simulation and both phi_1
# inversions load no scipy module, and the import builds no Gauss rule
NO_SCIPY_SCRIPT = """
import sys
from pllab import cli, duality
from pllab.distributions import parse_dist
built = [rule.cache_info().currsize for rule in (duality._gauss_legendre, duality._gauss_laguerre)]
out = sys.argv[1]
assert cli.main(["analyze-phi", "--dist", "splareto:a=2", "--lambda", "0,c,c",
                 "--c-grid", "0:1:0.5", "--out", out + "/phi.csv"]) == 0
assert cli.main(["simulate", "--policy", "ftpl:lp:m=0.23", "--env", "bern:0.1,0.3,0.3",
                 "--T", "50", "--runs", "2", "--seed", "1", "--threads", "1",
                 "--out", out + "/regret.csv"]) == 0
root = duality.two_arm_quantile(0.3, parse_dist("splareto:a=2"))
assert cli.main(["duality", "regscan", "--points", "3", "--out", out + "/regscan.csv"]) == 0
duality.regularizer_value([0.55, 0.3, 0.15], parse_dist("splareto:a=2"))
print(built)
print(repr(root))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_and_phi_scan_and_simulation_load_no_scipy(tmp_path):
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, check=True,
    )
    # the commands print their own lines first
    built, root, loaded = proc.stdout.splitlines()[-3:]
    assert built == "[0, 0]"
    want, tol = TWO_ARM_GOLDEN[0.3]
    assert abs(float(root) - want) <= tol
    assert loaded == "[]"
    assert len((tmp_path / "regscan.csv").read_text().splitlines()) == 4
