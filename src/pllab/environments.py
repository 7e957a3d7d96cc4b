"""Loss generators and regret accounting for stochastic and adversarial runs."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _number
from .errors import DomainError, ScheduleExhausted

__all__ = [
    "StochasticBernoulli",
    "FixedSchedule",
    "SwitchingAdversary",
    "loss_rows",
    "next_loss",
    "check_horizon",
    "checkpoint_grid",
    "regret",
    "parse_environment",
]

CHECKPOINT_RATIO = 1.25  # checkpoint_grid's geometric ratio


@dataclass(frozen=True)
class StochasticBernoulli:
    """I.i.d. Bernoulli losses with mean vector mu in [0,1]^K."""

    mu: tuple

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or len(mu) < 1 or not np.all((mu >= 0.0) & (mu <= 1.0)):
            raise DomainError("mu must be a vector in [0,1]^K")
        object.__setattr__(self, "mu", tuple(float(v) for v in mu))

    @property
    def k(self):
        return len(self.mu)

    @property
    def gaps(self):
        mu = np.asarray(self.mu)
        return mu - mu.min()


@dataclass(frozen=True)
class FixedSchedule:
    """Deterministic loss matrix of shape (T, K); querying beyond T raises."""

    losses: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.losses, dtype=float)
        if arr.ndim != 2 or not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise DomainError("schedule must be a (T, K) matrix with entries in [0,1]")
        object.__setattr__(self, "losses", arr)

    @property
    def k(self):
        return self.losses.shape[1]

    @property
    def horizon(self):
        return self.losses.shape[0]


@dataclass(frozen=True)
class SwitchingAdversary:
    """Bernoulli losses whose mean alternates between mu1 and mu2 per phase."""

    phase: int
    mu1: tuple
    mu2: tuple

    def __post_init__(self):
        if self.phase < 1:
            raise DomainError("phase length must be >= 1")
        for name in ("mu1", "mu2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all((v >= 0.0) & (v <= 1.0)):
                raise DomainError(f"{name} must lie in [0,1]^K")
            object.__setattr__(self, name, tuple(float(x) for x in v))
        if len(self.mu1) != len(self.mu2):
            raise DomainError("mu1 and mu2 must have the same length")

    @property
    def k(self):
        return len(self.mu1)

    def mean_at(self, t):
        return self.mu1 if ((t - 1) // self.phase) % 2 == 0 else self.mu2


def loss_rows(model, t0, n, rng):
    """Loss vectors of rounds t0, ..., t0 + n - 1 (t0 >= 1) as an (n, K) array.

    Random models draw one uniform per entry, row after row, from ``rng``.
    ``Generator.random`` is chunk-consistent, so any split of the rounds
    into calls yields the same rows.
    """
    if t0 < 1:
        raise DomainError("rounds are 1-based")
    if isinstance(model, FixedSchedule):
        check_horizon(model, t0 + n - 1)
        return model.losses[t0 - 1:t0 - 1 + n].copy()
    if isinstance(model, StochasticBernoulli):
        mu = np.asarray(model.mu)
    elif isinstance(model, SwitchingAdversary):
        # mean_at's phase test for every round at once; a phase beyond the last
        # round selects mu1 throughout, so clipping it keeps (t - 1) // phase in int64
        phase = min(model.phase, t0 + n)
        t = np.arange(t0, t0 + n)
        mu = np.where(((t - 1) // phase % 2 == 0)[:, None], model.mu1, model.mu2)
    else:
        raise DomainError(f"unknown loss model {model!r}")
    return (rng.random((n, model.k)) < mu).astype(float)


def next_loss(model, t, rng):
    """Loss vector for round t >= 1: the one-row case of ``loss_rows``."""
    return loss_rows(model, t, 1, rng)[0]


def check_horizon(model, horizon):
    """Raise ``ScheduleExhausted`` unless ``model`` can supply rounds 1..horizon."""
    if isinstance(model, FixedSchedule) and horizon > model.horizon:
        raise ScheduleExhausted(f"schedule has {model.horizon} rounds, asked for {horizon}")


def checkpoint_grid(horizon):
    """Geometric round grid {ceil(CHECKPOINT_RATIO^k)} clipped to the horizon."""
    pts = []
    v = 1.0
    while True:
        t = int(math.ceil(v))
        if t >= horizon:
            break
        if not pts or t > pts[-1]:
            pts.append(t)
        v *= CHECKPOINT_RATIO
    pts.append(int(horizon))
    return np.asarray(pts, dtype=int)


def regret(arms, losses, model):
    """Regret curve from a played trace, on ``checkpoint_grid(T)``.

    ``arms`` is the played-arm index per round and ``losses`` the full (T, K)
    loss matrix of the trace.  Stochastic models score pseudo-regret (sum of
    suboptimality gaps of the played arms); other models score realized
    regret against the best fixed arm in hindsight.  Returns
    (checkpoints, curve).
    """
    arms = np.asarray(arms, dtype=int)
    losses = np.asarray(losses, dtype=float)
    T = len(arms)
    if losses.shape[0] != T:
        raise DomainError("trace length mismatch")
    checkpoints = checkpoint_grid(T)

    if isinstance(model, StochasticBernoulli):
        cum = np.cumsum(model.gaps[arms])
    else:
        played = np.cumsum(losses[np.arange(T), arms])
        per_arm = np.cumsum(losses, axis=0)
        cum = played - per_arm.min(axis=1)
    return checkpoints, cum[checkpoints - 1]


def parse_environment(spec: str):
    """Parse an environment spec.

    ``bern:0.1,0.3,0.3``  Bernoulli with the given means
    ``sched:file.csv``    fixed schedule loaded from a CSV loss matrix
    ``switch:phase=1000,mu1=0.1|0.9,mu2=0.9|0.1``  alternating Bernoulli
    """
    s = spec.strip()
    head, _, rest = s.partition(":")
    head = head.lower()
    if head == "bern":
        return StochasticBernoulli(mu=tuple(_number(v, spec) for v in rest.split(",")))
    if head == "sched":
        try:
            with warnings.catch_warnings():
                # loadtxt's one warning is of a file without data rows, which holds no schedule
                warnings.simplefilter("error", UserWarning)
                mat = np.loadtxt(rest, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise DomainError(f"schedule {rest!r}: {exc}") from None
        return FixedSchedule(losses=mat)
    if head == "switch":
        fields = dict(item.partition("=")[::2] for item in rest.split(","))
        if sorted(fields) != ["mu1", "mu2", "phase"] or rest.count(",") != 2:  # three items: no key twice
            raise DomainError(f"switch spec {spec!r} must set phase=, mu1= and mu2=, each once, and nothing else")
        return SwitchingAdversary(
            phase=_number(fields["phase"], spec, int),
            mu1=tuple(_number(v, spec) for v in fields["mu1"].split("|")),
            mu2=tuple(_number(v, spec) for v in fields["mu2"].split("|")),
        )
    raise DomainError(f"unknown environment spec {spec!r}")
