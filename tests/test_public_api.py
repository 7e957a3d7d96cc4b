"""Each module's ``__all__`` names every public function and class it defines,
every public function has a caller outside the tests, the public values a
caller can set are the listed ones, and the benchmark's tracer finds every
name it wraps."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pllab

MODULES = sorted(m.name for m in pkgutil.iter_modules(pllab.__path__))
ROOT = Path(__file__).resolve().parents[1]

# public functions that only tests call, each with the reason it stays in src/
TEST_ONLY = {
    "selection.counterexample_scan": "criterion 4: the paper's K = 3 counterexample",
    "duality.two_arm_quantile": "golden pin: the exact two-arm roots",
    "duality.regularizer_value": "north-star number: the Legendre-dual regularizer",
    "policies.geometric_resample": "criterion 10: the resampling estimator alone, without a selection",
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
    # bench/tracing.py wraps pllab's functions, law methods and imported scipy
    # entry points by name: a renamed or deleted one raises KeyError at install
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
