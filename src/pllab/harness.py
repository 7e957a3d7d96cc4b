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

``verdict(table, kind)`` builds the envelope ``kind`` (advlp, stolp or
tsallisref) from the K, m and gaps that ``run_experiment`` wrote into the
table's metadata, so a table is always judged at its own parameters.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from stat import S_ISREG

import numpy as np

from .distributions import _number
from .environments import CHECKPOINT_RATIO, StochasticBernoulli, check_horizon, loss_rows, parse_environment, regret
from .environments import next_loss  # noqa: F401  (bench/tests checks the tracer patches this alias)
from .errors import DomainError
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

    def __post_init__(self):
        if self.horizon < 1 or self.runs < 1:
            raise DomainError("horizon and runs must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.threads is not None and self.threads < 1:
            raise DomainError(f"threads must be at least 1, got {self.threads}")

    @classmethod
    def from_file(cls, path):
        """Load the flat ``[experiment]`` key=value config format; unknown keys are an error."""
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise DomainError(f"config file {path!r} not found")
        if "experiment" not in parser:
            raise DomainError(f"config file {path!r} lacks an [experiment] section")
        vals = dict(parser["experiment"])
        try:
            threads = vals.pop("threads", None)
            config = cls(
                policy=vals.pop("policy"),
                env=vals.pop("env"),
                horizon=int(vals.pop("t")),  # ConfigParser lower-cases keys
                runs=int(vals.pop("runs")),
                seed=int(vals.pop("seed")),
                out=vals.pop("out", None),
                threads=None if threads is None else int(threads),
            )
        except (KeyError, ValueError) as exc:
            raise DomainError(f"config file {path!r}: {exc}") from exc
        if vals:
            raise DomainError(f"config file {path!r}: unknown [experiment] keys {sorted(vals)}")
        return config

    def semantic_hash(self):
        """Hash of the fields that determine the numbers (not paths/threads)."""
        text = "\n".join(
            [
                f"policy={self.policy}",
                f"env={self.env}",
                f"T={self.horizon}",
                f"runs={self.runs}",
                f"seed={self.seed}",
                # the checkpoint grid's ratio is not a config field; it is
                # hashed so that config hashes, and the golden CSVs, keep their values
                f"checkpoint_ratio={CHECKPOINT_RATIO!r}",
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
    """One bandit run: (checkpoint grid, regret curve on it, run counters).

    The counters are the run's wall time ``wall_s`` and the policy state's
    ``vectors_drawn``, ``resample_trials`` and ``cap_hits`` (0 for FTRL) and
    ``root_evals`` (0 for FTPL and Shannon FTRL).
    """
    start = time.perf_counter()
    policy = parse_policy(config.policy)
    model = parse_environment(config.env)
    env_rng, pol_rng = run_streams(config.seed, run_index)
    state = policy.fresh_state(model.k, pol_rng)

    losses = loss_rows(model, 1, config.horizon, env_rng)
    arms = np.empty(config.horizon, dtype=int)
    for t in range(config.horizon):
        arms[t] = policy.step(state, losses[t])
    checkpoints, curve = regret(arms, losses, model)
    counters = {key: getattr(state, key) for key in COUNTERS}
    counters["wall_s"] = time.perf_counter() - start
    return checkpoints, curve, counters


def _write_text(path, text):
    """Replace the contents of ``path`` with ``text``, creating the file if need be.

    A regular file is overwritten in place and cut to length after the
    write rather than opened with truncation: ext4 forces a file truncated
    to zero and rewritten out to disk when it is closed, one blocking write
    per call.  Devices and pipes (``/dev/null``, ``/dev/stdout``) cannot be
    cut and are written as they are.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        fh.write(text)
        if S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


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
        _write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path):
        """Inverse of ``write_csv``: the header must read t,mean,stderr,run0,...,
        and every row must have one cell per column."""
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
                    run_cols = [f"run{j}" for j in range(len(header) - 3)]
                    if not run_cols or header != ["t", "mean", "stderr", *run_cols]:
                        raise DomainError(f"{path}: header must read t,mean,stderr,run0,... got {line!r}")
                    continue
                if line:
                    cells = line.split(",")
                    if len(cells) != len(header):
                        raise DomainError(f"{path}: row {line!r} has {len(cells)} cells, header has {len(header)}")
                    rows.append([_number(v, path) for v in cells])
        if not rows:
            raise DomainError(f"{path}: no regret rows below the header")
        arr = np.asarray(rows)
        checkpoints = arr[:, 0].astype(int)
        curves = arr[:, 3:].T.copy()
        return cls(checkpoints=checkpoints, curves=curves, metadata=metadata)


def _parallel_degree(config: ExperimentConfig):
    degree = config.threads or os.cpu_count() or 1
    return max(1, min(degree, config.runs))


def run_experiment(config: ExperimentConfig) -> RegretTable:
    """Execute all runs (parallel over runs), assemble metadata, write CSV."""
    # fail fast, before any worker starts, on bad specs, short schedules and
    # an output path (or its .meta sidecar) that is a directory or whose
    # directory is missing
    policy = parse_policy(config.policy)
    model = parse_environment(config.env)
    check_horizon(model, config.horizon)
    if config.out:
        for path in (config.out, config.out + ".meta"):
            if os.path.isdir(path):
                raise IsADirectoryError(f"output path {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(config.out) or "."):
            raise FileNotFoundError(f"output directory of {config.out!r} does not exist")
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

    checkpoints = results[0][0]  # every run plays the full horizon, so all share one grid
    curves = np.vstack([curve for _, curve, _ in results])
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
        "regret_kind": "adversarial",
    }
    if isinstance(model, StochasticBernoulli):
        metadata["regret_kind"] = "pseudo"
        metadata["gaps"] = ",".join(f"{g:.17g}" for g in model.gaps)
    table = RegretTable(checkpoints=checkpoints, curves=curves, metadata=metadata)
    if config.out:
        table.write_csv(config.out)
        meta = _meta_lines(wall, degree, [c for _, _, c in results], config.horizon)
        _write_text(config.out + ".meta", "\n".join(meta) + "\n")
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


def _envelope(metadata, kind):
    """The envelope ``kind`` (advlp, stolp or tsallisref) at the table's own K, m and gaps."""

    def field(key):
        if key not in metadata:
            raise DomainError(f"regret table has no '# {key}=' metadata line")
        return str(metadata[key])

    kind = kind.lower()
    if kind == "advlp":
        return AdvLP(m=_number(field("m"), "m"), k=_number(field("K"), "K", int))
    if kind == "stolp":
        return StoLP(m=_number(field("m"), "m"), gaps=tuple(_number(g, "gaps") for g in field("gaps").split(",")))
    if kind == "tsallisref":
        return TsallisRef(k=_number(field("K"), "K", int))
    raise DomainError(f"unknown envelope {kind!r}; expected advlp, stolp or tsallisref")


def verdict(table: RegretTable, kind: str) -> VerdictReport:
    """Compare mean + 2 stderr against envelope ``kind`` at every checkpoint;
    the envelope takes K, m and gaps from the table's metadata."""
    bounds = _envelope(table.metadata, kind).evaluate(table.checkpoints)
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
