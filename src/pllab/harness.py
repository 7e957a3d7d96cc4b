"""Experiment configuration, deterministic parallel execution, and verdicts.

Reproducibility contract: the RNG stream of run j under master seed s is
``default_rng(SeedSequence((s, j)))`` split once for the environment and once
for the policy.  Rerunning a config therefore reproduces every CSV byte for
byte, independently of the parallelism degree (results are merged by run
index).  A run draws all its loss rows with one ``loss_rows`` call and its
perturbations from a tape (see ``policies``); both read their stream in the
same order as one draw per round, so neither changes a number.  Wall-clock
time and the sampling counters go to a sidecar file so they cannot break
that contract.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .distributions import _number
from .environments import check_horizon, checkpoint_grid, loss_rows, parse_environment, regret
from .environments import next_loss  # noqa: F401  (bench/tests checks the tracer patches this alias)
from .errors import DomainError, MetadataMismatch
from .policies import parse_policy

__all__ = [
    "ExperimentConfig",
    "RegretTable",
    "run_streams",
    "simulate_run",
    "run_experiment",
    "AdvLP",
    "StoLP",
    "TsallisRef",
    "verdict",
    "VerdictReport",
    "log_growth_fit",
]


@dataclass(frozen=True)
class ExperimentConfig:
    policy: str
    env: str
    horizon: int
    runs: int
    seed: int
    out: str | None = None
    threads: int | None = None
    checkpoint_ratio: float = 1.25

    def __post_init__(self):
        if self.horizon < 1 or self.runs < 1:
            raise DomainError("horizon and runs must be positive")

    @classmethod
    def from_file(cls, path):
        """Load the flat ``[experiment]`` key=value config format."""
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise DomainError(f"config file {path!r} not found")
        if "experiment" not in parser:
            raise DomainError(f"config file {path!r} lacks an [experiment] section")
        sec = parser["experiment"]
        try:
            return cls(
                policy=sec["policy"],
                env=sec["env"],
                horizon=sec.getint("T"),
                runs=sec.getint("runs"),
                seed=sec.getint("seed"),
                out=sec.get("out", fallback=None),
                threads=sec.getint("threads", fallback=None),
                checkpoint_ratio=sec.getfloat("checkpoint_ratio", fallback=1.25),
            )
        except (KeyError, ValueError) as exc:
            raise DomainError(f"config file {path!r}: {exc}") from exc

    def semantic_hash(self):
        """Hash of the fields that determine the numbers (not paths/threads)."""
        text = "\n".join(
            [
                f"policy={self.policy}",
                f"env={self.env}",
                f"T={self.horizon}",
                f"runs={self.runs}",
                f"seed={self.seed}",
                f"checkpoint_ratio={self.checkpoint_ratio!r}",
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_streams(master_seed, run_index):
    """(environment rng, policy rng) for one run; a pure function of the pair."""
    ss = np.random.SeedSequence((master_seed, run_index))
    env_ss, pol_ss = ss.spawn(2)
    return np.random.default_rng(env_ss), np.random.default_rng(pol_ss)


# per-run counters of the policy state, totalled in the .meta sidecar
COUNTERS = ("vectors_drawn", "resample_trials", "cap_hits", "root_evals")


def simulate_run(config: ExperimentConfig, run_index: int):
    """One bandit run: (regret curve on the checkpoint grid, run counters).

    The counters are the run's wall time ``wall_s`` and the policy state's
    ``vectors_drawn``, ``resample_trials`` and ``cap_hits`` (0 for FTRL) and
    ``root_evals`` (0 for FTPL and Shannon FTRL).
    """
    start = time.perf_counter()
    policy = parse_policy(config.policy)
    model = parse_environment(config.env)
    env_rng, pol_rng = run_streams(config.seed, run_index)
    state = policy.fresh_state(model.k, pol_rng)
    checkpoints = checkpoint_grid(config.horizon, config.checkpoint_ratio)

    losses = loss_rows(model, 1, config.horizon, env_rng)
    arms = np.empty(config.horizon, dtype=int)
    for t in range(config.horizon):
        arm = policy.play(state)
        policy.observe(state, arm, float(losses[t, arm]))
        arms[t] = arm
    curve = regret(arms, losses, model, checkpoints)[1]
    counters = {key: getattr(state, key) for key in COUNTERS}
    counters["wall_s"] = time.perf_counter() - start
    return curve, counters


def _meta_lines(wall, degree, runs, horizon):
    """The .meta sidecar: wall time, then per-run and total counters."""
    lines = [f"wall_time_s={wall:.3f}", f"parallel_degree={degree}"]
    for key in COUNTERS:
        per_run = [c[key] for c in runs]
        lines += [f"{key}={sum(per_run)}", f"run_{key}=" + ",".join(map(str, per_run))]
    cap_hits = sum(c["cap_hits"] for c in runs)
    lines.append(f"cap_hit_rate={cap_hits / (len(runs) * horizon):.6g}")
    lines.append("run_wall_s=" + ",".join(f"{c['wall_s']:.3f}" for c in runs))
    return lines


@dataclass
class RegretTable:
    """Per-run regret curves on a common checkpoint grid, plus metadata."""

    checkpoints: np.ndarray
    curves: np.ndarray  # shape (runs, n_checkpoints)
    metadata: dict = field(default_factory=dict)

    @property
    def mean(self):
        return self.curves.mean(axis=0)

    @property
    def stderr(self):
        r = self.curves.shape[0]
        if r < 2:
            return np.zeros(self.curves.shape[1])
        return self.curves.std(axis=0, ddof=1) / math.sqrt(r)

    def write_csv(self, path):
        lines = ["# pllab-regret-v1"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}={self.metadata[key]}")
        runs = self.curves.shape[0]
        header = "t,mean,stderr," + ",".join(f"run{j}" for j in range(runs))
        lines.append(header)
        mean, stderr = self.mean, self.stderr
        for i, t in enumerate(self.checkpoints):
            vals = [f"{mean[i]:.17g}", f"{stderr[i]:.17g}"]
            vals += [f"{self.curves[j, i]:.17g}" for j in range(runs)]
            lines.append(f"{int(t)}," + ",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path):
        metadata = {}
        rows = []
        header = None
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, _, val = body.partition("=")
                        metadata[key.strip()] = val.strip()
                    continue
                if header is None:
                    header = line.split(",")
                    continue
                if line:
                    rows.append([_number(v, path) for v in line.split(",")])
        if not rows:
            raise DomainError(f"{path}: no regret rows below the header")
        arr = np.asarray(rows)
        checkpoints = arr[:, 0].astype(int)
        curves = arr[:, 3:].T.copy()
        return cls(checkpoints=checkpoints, curves=curves, metadata=metadata)


def _parallel_degree(config: ExperimentConfig):
    degree = config.threads if config.threads else (os.cpu_count() or 1)
    env_cap = os.environ.get("PLL_THREADS")
    if env_cap:
        degree = min(degree, max(1, _number(env_cap, "PLL_THREADS", int)))
    return max(1, min(degree, config.runs))


def run_experiment(config: ExperimentConfig) -> RegretTable:
    """Execute all runs (parallel over runs), assemble metadata, write CSV."""
    # fail fast, before any worker starts, on bad specs and short schedules
    policy = parse_policy(config.policy)
    model = parse_environment(config.env)
    check_horizon(model, config.horizon)
    checkpoints = checkpoint_grid(config.horizon, config.checkpoint_ratio)
    t0 = time.perf_counter()
    degree = _parallel_degree(config)
    jobs = [(config, j) for j in range(config.runs)]
    if degree > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(degree) as pool:
            results = pool.starmap(simulate_run, jobs)
    else:
        results = [simulate_run(*job) for job in jobs]
    wall = time.perf_counter() - t0

    curves = np.vstack([curve for curve, _ in results])
    metadata = {
        "config_hash": config.semantic_hash(),
        "policy": config.policy,
        "env": config.env,
        "K": model.k,
        "m": policy.m,
        "T": config.horizon,
        "runs": config.runs,
        "seed": config.seed,
        "resample_cap": policy.cap_description(),
        "regret_kind": "pseudo" if getattr(model, "stochastic", False) else "adversarial",
    }
    if getattr(model, "stochastic", False):
        metadata["gaps"] = ",".join(f"{g:.17g}" for g in model.gaps)
    table = RegretTable(checkpoints=checkpoints, curves=curves, metadata=metadata)
    if config.out:
        table.write_csv(config.out)
        with open(config.out + ".meta", "w") as fh:
            fh.write("\n".join(_meta_lines(wall, degree, [c for _, c in results], config.horizon)) + "\n")
    return table


# ---------------------------------------------------------------------------
# bound envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdvLP:
    """Adversarial regret envelope for the Laplace-Pareto policy at scale m:

    (60 m sqrt(pi) + 5.7/m) sqrt(K t) + (2K/27 + e^2) log(t+1) + sqrt(K pi)/(2 m).
    """

    m: float
    k: int

    @property
    def leading_coefficient(self):
        return 60.0 * self.m * math.sqrt(math.pi) + 5.7 / self.m

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return (
            self.leading_coefficient * np.sqrt(self.k * t)
            + (2.0 * self.k / 27.0 + math.e**2) * np.log(t + 1.0)
            + math.sqrt(self.k * math.pi) / (2.0 * self.m)
        )


@dataclass(frozen=True)
class StoLP:
    """Stochastic (logarithmic) regret envelope for the Laplace-Pareto policy.

    Dominant term sum_i (60m + 1/m)^2 log t / (0.035 Delta_i); the remaining
    terms make the proof's Theta(.) additive constants explicit so the
    envelope is evaluable.
    """

    m: float
    gaps: tuple

    def __post_init__(self):
        g = tuple(float(v) for v in self.gaps)
        if not any(v > 0.0 for v in g):
            raise DomainError("need at least one positive gap")
        object.__setattr__(self, "gaps", g)

    @property
    def k(self):
        return len(self.gaps)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        m = self.m
        pos = [g for g in self.gaps if g > 0.0]
        delta_min = min(pos)
        dominant = sum((60.0 * m + 1.0 / m) ** 2 * (1.0 + np.log(t)) / (0.035 * g) for g in pos)
        burn_in = (107.0 * m + 3.0 / m) ** 2 * self.k / (0.02 * delta_min)
        decomposition = 2.0 * (
            math.sqrt(self.k * math.pi) / (2.0 * m)
            + (2.0 * self.k / 27.0 + math.e**2) * np.log(t + 1.0)
        )
        tail = 2.0 * (2743.0 * m**2 + 77.0 * m)
        return dominant + burn_in + decomposition + tail


@dataclass(frozen=True)
class TsallisRef:
    """Reference adversarial curve 4 sqrt(K t) + 1 for 1/2-Tsallis comparisons."""

    k: int

    def evaluate(self, t):
        return 4.0 * np.sqrt(self.k * np.asarray(t, dtype=float)) + 1.0


@dataclass
class VerdictReport:
    rows: list  # (t, mean, stderr, bound, ok)
    all_pass: bool

    def __str__(self):
        out = [f"{'t':>10} {'mean+2se':>14} {'envelope':>14}  verdict"]
        for t, mean, se, bound, ok in self.rows:
            out.append(
                f"{t:>10d} {mean + 2*se:>14.4f} {bound:>14.4f}  {'pass' if ok else 'FAIL'}"
            )
        out.append(f"summary: {'pass' if self.all_pass else 'FAIL'}")
        return "\n".join(out)


def verdict(table: RegretTable, envelope) -> VerdictReport:
    """Compare mean + 2 stderr against the envelope at every checkpoint."""
    meta = table.metadata
    if "K" in meta and int(meta["K"]) != envelope.k:
        raise MetadataMismatch(f"table has K={meta['K']}, envelope K={envelope.k}")
    if hasattr(envelope, "m") and "m" in meta and not math.isclose(
        float(meta["m"]), envelope.m, rel_tol=1e-12
    ):
        raise MetadataMismatch(f"table has m={meta['m']}, envelope m={envelope.m}")
    if isinstance(envelope, StoLP) and "gaps" in meta:
        table_gaps = tuple(float(v) for v in str(meta["gaps"]).split(","))
        if len(table_gaps) != len(envelope.gaps) or not all(
            math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
            for a, b in zip(sorted(table_gaps), sorted(envelope.gaps))
        ):
            raise MetadataMismatch("gap vectors differ between table and envelope")

    bounds = envelope.evaluate(table.checkpoints)
    mean, se = table.mean, table.stderr
    rows = []
    ok_all = True
    for i, t in enumerate(table.checkpoints):
        ok = bool(mean[i] + 2.0 * se[i] <= bounds[i])
        ok_all &= ok
        rows.append((int(t), float(mean[i]), float(se[i]), float(bounds[i]), ok))
    return VerdictReport(rows=rows, all_pass=ok_all)


def log_growth_fit(checkpoints, values, t_lo, t_hi):
    """Least-squares fit of values against log t on [t_lo, t_hi]: (slope, intercept, r2)."""
    t = np.asarray(checkpoints, dtype=float)
    y = np.asarray(values, dtype=float)
    mask = (t >= t_lo) & (t <= t_hi)
    if int(mask.sum()) < 2:
        raise DomainError("need at least two checkpoints in the fit window")
    x = np.log(t[mask])
    yy = y[mask]
    slope, intercept = np.polyfit(x, yy, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((yy - pred) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)
