"""Executable bandit learners sharing one interface.

FTPL draws a fresh perturbation vector each round and plays the perturbed
argmin; its importance weight 1/w is estimated by geometric resampling
(count redraws until the played arm wins again, capped).  FTRL solves the
regularized simplex problem exactly each round and can reuse the solved
probabilities for the importance-weighted update.

FTPL reads every perturbation from the run's *tape*: a buffer in
``PolicyState`` that ``dist.sample_array`` refills from the state's rng in
chunks of ``TAPE_CHUNK`` draws, handing out K values per selection and b*K
per resampling block.  ``Generator.random`` is chunk-consistent and the
quantile transform acts element by element, so the tape yields the same
bits, in the same order, as drawing each vector afresh.

FTRL with the Tsallis regularizer finds the normalizing constant c of its
weights by Newton's method on a convex, increasing defect, starting from
the previous round's root (``PolicyState.last_c``); a warm start takes
about four defect evaluations per round, and ``root_evals`` counts them.

Learning-rate schedule is m / sqrt(t) throughout.  The Tsallis parameter
``tsallis_beta`` and a distribution's left tail index are unrelated
quantities; the names keep them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# no solver here calls brentq; the name stays because bench/tracing.py wraps
# ``policies.brentq`` and looks it up in this module's namespace
from scipy.optimize import brentq  # noqa: F401

from .errors import DomainError, SolverDiverged

__all__ = [
    "PolicyState",
    "Shannon",
    "Tsallis",
    "ftpl_select",
    "geometric_resample",
    "ftpl_update",
    "ftrl_select",
    "ftrl_update",
    "tsallis_weights",
    "shannon_weights",
    "kkt_residual",
    "FtplPolicy",
    "FtrlPolicy",
    "parse_policy",
]


TAPE_CHUNK = 4096  # perturbations drawn per tape refill
NEWTON_MAX_EVALS = 100  # defect evaluations per Tsallis solve; a warm start takes about 4


@dataclass
class PolicyState:
    """Mutable per-run learner state.

    ``resample_cap`` of None means the dynamic cap ceil(2 K sqrt(t)), which
    bounds per-round work; the cap bias of the resampling estimator is
    (1-w)^M / w and is negligible for arms with w >~ 1/sqrt(t).

    ``tape[tape_pos:]`` holds FTPL perturbations drawn ahead from ``rng`` for
    the law ``tape_law``.  ``last_c`` is the previous round's Tsallis root,
    from which the next solve starts.  The counters total the perturbation
    vectors read from the tape, the resampling trials, the resampling calls
    that reached the cap without a win and the Tsallis defect evaluations
    (``root_evals``).
    """

    m: float
    lhat: np.ndarray
    rng: np.random.Generator
    t: int = 1
    resample_cap: int | None = None
    last_w: np.ndarray | None = None
    tape: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    tape_pos: int = 0
    tape_law: object = None
    last_c: float | None = None
    vectors_drawn: int = 0
    resample_trials: int = 0
    cap_hits: int = 0
    root_evals: int = 0

    @property
    def k(self):
        return len(self.lhat)

    @property
    def eta(self):
        return self.m / math.sqrt(self.t)

    def cap(self):
        if self.resample_cap is not None:
            return self.resample_cap
        return int(math.ceil(2.0 * self.k * math.sqrt(self.t)))

    @classmethod
    def fresh(cls, k, m, rng, resample_cap=None):
        if not (math.isfinite(m) and m > 0.0):
            raise DomainError(f"learning-rate scale m must be finite and positive, not {m!r}")
        return cls(m=m, lhat=np.zeros(k), rng=rng, resample_cap=resample_cap)


# ---------------------------------------------------------------------------
# FTPL
# ---------------------------------------------------------------------------

def _perturbations(state: PolicyState, dist, rows: int) -> np.ndarray:
    """The next ``rows`` perturbation vectors of the run's tape, shape (rows, K)."""
    if dist is not state.tape_law:
        if state.tape_law is not None and dist != state.tape_law:
            raise DomainError(f"this run's perturbation tape holds {state.tape_law!r}, not {dist!r}")
        state.tape_law = dist
    k = state.k
    n = rows * k
    pos, tape = state.tape_pos, state.tape
    if pos + n > len(tape):
        left = tape[pos:]
        tape = np.concatenate((left, dist.sample_array(max(TAPE_CHUNK, n - len(left)), state.rng)))
        state.tape, pos = tape, 0
    state.tape_pos = pos + n
    state.vectors_drawn += rows
    return tape[pos:pos + n].reshape(rows, k)


def ftpl_select(state: PolicyState, dist) -> int:
    """Play argmin_i lhat_i - r_i / eta_t with fresh perturbations r ~ dist^K."""
    r = _perturbations(state, dist, 1)[0]
    return int((state.lhat - r / state.eta).argmin())


def geometric_resample(state: PolicyState, dist, chosen: int) -> int:
    """Redraw perturbation vectors until ``chosen`` wins again; return the count.

    The count includes the successful trial and is capped at M = state.cap();
    a call in which none of the M trials wins counts as a cap hit.
    Conditionally on (t, lhat) the uncapped count is geometric with mean
    1/w_chosen.
    """
    cap = state.cap()
    lhat, eta = state.lhat, state.eta
    drawn = 0
    block = 16
    while drawn < cap:
        b = min(block, cap - drawn)
        r = _perturbations(state, dist, b)
        wins = (lhat - r / eta).argmin(axis=1) == chosen
        if wins.any():
            trials = drawn + int(wins.argmax()) + 1
            break
        drawn += b
        block = min(block * 4, 4096)
    else:
        trials = cap
        state.cap_hits += 1
    state.resample_trials += trials
    return trials


def ftpl_update(state: PolicyState, arm: int, loss: float, west: int) -> PolicyState:
    """Importance-weighted update lhat_arm += loss * west; advance the round."""
    if not 0.0 <= loss <= 1.0:
        raise DomainError("losses must lie in [0, 1]")
    state.lhat[arm] += loss * west
    state.t += 1
    return state


# ---------------------------------------------------------------------------
# FTRL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shannon:
    """Negative-entropy regularizer sum p log p (softmax weights)."""


@dataclass(frozen=True)
class Tsallis:
    """Regularizer -(1/(1-beta)) sum p_i^beta with tsallis_beta in (0, 1)."""

    tsallis_beta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.tsallis_beta < 1.0:
            raise DomainError("tsallis_beta must lie in (0, 1)")


def shannon_weights(q):
    """Softmax of -q in log-sum-exp form (q = eta * lhat)."""
    z = -np.asarray(q, dtype=float)
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def tsallis_weights(q, beta, start=None):
    """Exact minimizer of <q, p> - (1/(1-beta)) sum p^beta on the simplex.

    Stationarity gives p_i = [((1-beta)/beta) (q_i - c)]^(-1/(1-beta)) for a
    scalar c < min q fixed by normalization.  The normalization defect is
    increasing and convex in c, so Newton's method started right of the root
    lowers c monotonically onto it (the Tsallis-INF solver of Zimmert &
    Seldin, JMLR 2021).  ``start`` is an optional warm start, typically the
    previous round's c; a start left of the root costs one extra step, which
    convexity lands right of it.  Returns (p, c).
    """
    p, c, _ = _tsallis_root(q, beta, start)
    return p, c


def _tsallis_root(q, beta, start=None):
    """``tsallis_weights`` plus the number of defect evaluations it took: (p, c, evals).

    The iteration runs on b = ratio c, where ratio = (1-beta)/beta, so that
    p_i = (ratio q_i - b)^expo.  It starts at min(ratio start, hi), where
    hi = ratio min q - 1 gives the closest arm alone mass 1, so defect(hi)
    >= 0, and stops at the first step that does not lower b: in floating
    point, the root to rounding.  ``SolverDiverged`` is raised when min q is
    too large for any float b below it (an m of 1e300 does this), on a
    non-finite defect and after ``NEWTON_MAX_EVALS`` evaluations.
    """
    q = np.asarray(q, dtype=float)
    ratio = (1.0 - beta) / beta
    expo = -1.0 / (1.0 - beta)
    rq = ratio * q
    top = float(rq.min())
    hi = top - 1.0
    if not hi < top:  # then every b <= hi leaves rq - b > 0
        raise SolverDiverged(f"min q = {float(q.min())!r} leaves no float below it for the Tsallis root")
    b = ratio * start if start is not None and ratio * start < hi else hi
    add = np.add.reduce
    for evals in range(1, NEWTON_MAX_EVALS + 1):
        x = rq - b
        p = x ** expo
        defect = float(add(p)) - 1.0
        if not math.isfinite(defect):
            raise SolverDiverged(f"normalization defect {defect} at c={b / ratio!r}")
        slope = -expo * float(add(p / x))  # d defect / db > 0
        if evals == 1 and defect < 0.0:
            # left of the root: the tangent of a convex function lands right of it
            b = min(b - defect / slope, hi) if slope > 0.0 else hi
            continue
        lower = b - defect / slope
        if not lower < b:
            break
        b = lower
    else:
        raise SolverDiverged(f"Newton iteration exceeded {NEWTON_MAX_EVALS} evaluations")
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise SolverDiverged(f"normalization residual {abs(total - 1.0):.2e}")
    return p / total, b / ratio, evals


def ftrl_select(state: PolicyState, regularizer):
    """Solve for the exact simplex weights, sample an arm, return (arm, p)."""
    q = state.eta * state.lhat
    if isinstance(regularizer, Shannon):
        p = shannon_weights(q)
    elif isinstance(regularizer, Tsallis):
        p, state.last_c, evals = _tsallis_root(q, regularizer.tsallis_beta, state.last_c)
        state.root_evals += evals
    else:
        raise DomainError(f"unknown regularizer {regularizer!r}")
    u = state.rng.random()
    arm = int(np.searchsorted(np.cumsum(p), u, side="right"))
    arm = min(arm, state.k - 1)
    state.last_w = p
    return arm, p


def ftrl_update(state: PolicyState, arm: int, loss: float, p) -> PolicyState:
    """Exact importance-weighted update lhat_arm += loss / p_arm."""
    if not 0.0 <= loss <= 1.0:
        raise DomainError("losses must lie in [0, 1]")
    state.lhat[arm] += loss / p[arm]
    state.t += 1
    return state


def kkt_residual(q, p, beta):
    """max_i |q_i + V'(p_i) - c| for the Tsallis regularizer (c = median shift)."""
    q = np.asarray(q, dtype=float)
    grad = -(beta / (1.0 - beta)) * np.asarray(p, dtype=float) ** (beta - 1.0)
    stat = q + grad
    return float(np.max(np.abs(stat - np.median(stat))))


# ---------------------------------------------------------------------------
# uniform policy wrappers for the experiment harness
# ---------------------------------------------------------------------------

@dataclass
class FtplPolicy:
    dist: object
    m: float
    resample_cap: int | None = None

    def fresh_state(self, k, rng):
        return PolicyState.fresh(k, self.m, rng, self.resample_cap)

    def play(self, state):
        return ftpl_select(state, self.dist)

    def observe(self, state, arm, loss):
        west = geometric_resample(state, self.dist, arm)
        ftpl_update(state, arm, loss, west)

    def cap_description(self):
        if self.resample_cap is not None:
            return str(self.resample_cap)
        return "ceil(2*K*sqrt(t))"


@dataclass
class FtrlPolicy:
    regularizer: object
    m: float

    def fresh_state(self, k, rng):
        return PolicyState.fresh(k, self.m, rng)

    def play(self, state):
        arm, _ = ftrl_select(state, self.regularizer)
        return arm

    def observe(self, state, arm, loss):
        ftrl_update(state, arm, loss, state.last_w)

    def cap_description(self):
        return "exact-w"


def parse_policy(spec: str):
    """Parse a policy spec like ``ftpl:lp:m=0.23`` or ``ftrl:tsallis:beta=0.5:m=0.23``.

    Trailing ``key=value`` tokens are policy parameters (``m``, ``cap``,
    ``beta``); for FTPL everything between the head and those tokens is a
    distribution spec (which may itself contain colons).
    """
    from .distributions import _number, parse_dist

    tokens = spec.strip().split(":")
    head = tokens[0].lower()
    params = {}
    body = tokens[1:]
    while body and "=" in body[-1]:
        key, _, val = body[-1].partition("=")
        if key.lower() not in {"m", "cap", "beta"}:
            break
        params[key.lower()] = val
        body = body[:-1]
    if "m" not in params:
        raise DomainError(f"policy spec {spec!r} must set m=<scale>")
    m = _number(params["m"], spec)

    if head == "ftpl":
        if not body:
            raise DomainError(f"ftpl spec {spec!r} needs a distribution")
        cap = _number(params["cap"], spec, int) if "cap" in params else None
        if cap is not None and cap < 1:
            raise DomainError(f"policy spec {spec!r}: the resampling cap must be at least 1")
        dist_spec = ":".join(body)
        return FtplPolicy(dist=parse_dist(dist_spec), m=m, resample_cap=cap)
    if head == "ftrl":
        if not body:
            raise DomainError(f"ftrl spec {spec!r} needs a regularizer")
        reg_name = body[0].lower()
        if reg_name == "shannon":
            reg = Shannon()
        elif reg_name == "tsallis":
            reg = Tsallis(tsallis_beta=_number(params.get("beta", "0.5"), spec))
        else:
            raise DomainError(f"unknown regularizer {reg_name!r}")
        return FtrlPolicy(regularizer=reg, m=m)
    raise DomainError(f"unknown policy head {head!r}")
