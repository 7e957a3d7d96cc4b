"""Executable bandit learners sharing one interface.

FTPL draws a fresh perturbation vector each round and plays the perturbed
argmin; its importance weight 1/w is estimated by geometric resampling
(count redraws until the played arm wins again, capped).  FTRL solves the
regularized simplex problem exactly each round and can reuse the solved
probabilities for the importance-weighted update.

FTPL reads every perturbation from the run's *tape*: a buffer in
``PolicyState`` that ``dist.sample_array`` refills from the state's rng in
chunks of ``TAPE_CHUNK`` draws.  Each round reads (1 + b)*K values in one
slice, the selection vector and the first resampling block of
b = min(16, cap) vectors, and takes one argmin over it; only a round whose
first block holds no win reads further blocks of 64, 256, ... vectors.
``Generator.random`` is chunk-consistent and the quantile transform acts
element by element, so the tape yields the same bits, in the same order, as
drawing each vector afresh.

FTRL with the Tsallis regularizer finds the normalizing constant c of its
weights by Newton's method on a convex, increasing defect, in Python floats,
starting from the previous round's root (``PolicyState.last_c``).  It stops
at the first step that lowers the iterate by at most 2 ulp, so when it stops
does not hinge on how ``**`` rounds its last digit.  A warm start takes about
four defect evaluations per round (36,126 in the 9,000 rounds of the bench's
regret-ftrl config, K = 8), and ``root_evals`` counts them.

Learning-rate schedule is m / sqrt(t) throughout.  The Tsallis parameter
``tsallis_beta`` and a distribution's left tail index are unrelated
quantities; the names keep them apart.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import truediv

import numpy as np

# no solver here calls brentq; the name stays because bench/tracing.py wraps
# ``policies.brentq`` and looks it up in this module's namespace
from ._scipy import brentq  # noqa: F401
from .errors import DomainError, SolverDiverged

__all__ = [
    "PolicyState",
    "Shannon",
    "Tsallis",
    "geometric_resample",
    "ftpl_update",
    "ftrl_select",
    "ftrl_update",
    "tsallis_weights",
    "shannon_weights",
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


def _resample(state: PolicyState, dist, chosen: int, cap: int, eta: float, drawn: int, block: int) -> int:
    """Geometric resampling of ``chosen`` after ``drawn`` losing trials; return the count.

    Reads blocks of ``block``, 4 ``block``, ... rows (at most 4096) off the
    tape until ``chosen`` wins or ``cap`` trials are spent; a call that ends
    at the cap without a win counts as a cap hit.  The count includes the
    winning trial.
    """
    lhat = state.lhat
    while drawn < cap:
        b = min(block, cap - drawn)
        wins = (lhat - _perturbations(state, dist, b) / eta).argmin(axis=1) == chosen
        first = int(wins.argmax())
        if wins[first]:
            return drawn + first + 1
        drawn += b
        block = min(block * 4, 4096)
    state.cap_hits += 1
    return cap


def geometric_resample(state: PolicyState, dist, chosen: int) -> int:
    """Redraw perturbation vectors until ``chosen`` wins again; return the count.

    The count includes the successful trial and is capped at M = state.cap();
    a call in which none of the M trials wins counts as a cap hit.
    Conditionally on (t, lhat) the uncapped count is geometric with mean
    1/w_chosen.
    """
    trials = _resample(state, dist, chosen, state.cap(), state.eta, 0, 16)
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
    convexity lands right of it.  Returns (p, c, evals), p an ndarray and
    evals the number of defect evaluations taken.

    The iteration runs on b = ratio (c - min q), where ratio = (1-beta)/beta,
    so that p_i = (ratio (q_i - min q) - b)^expo; measured from min q, b keeps
    its full precision however large q is.  It starts at
    min(ratio (start - min q), -1), where b = -1 gives the closest arm alone
    mass 1, so defect(-1) >= 0, and stops at the first step that lowers b by
    at most 2 ulp(b): the root to rounding, reached without a last step
    whose sign only the rounding of ``**`` decides, so a solve restarted at
    its own root stops after one or two evaluations.  On the bench's
    regret-ftrl config (K = 8, beta = 1/2) a warm-started solve takes 4.01
    evaluations on average.  The K values are Python floats, since at K = 8
    numpy's cost per call outweighs the arithmetic.  From about K = 30 on a
    numpy loop is faster (×1.2 at K = 32, ×3.8 at K = 128); no FTRL run in
    this repository has more than 8 arms.
    ``SolverDiverged`` is raised on a non-finite defect (a NaN or -inf in q,
    wherever it sits), after ``NEWTON_MAX_EVALS`` evaluations and on a
    normalization residual above 1e-10; a +inf entry of q gets weight 0.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("tsallis_beta must lie in (0, 1)")
    q = np.asarray(q, dtype=float).tolist()
    ratio = (1.0 - beta) / beta
    expo = -1.0 / (1.0 - beta)
    # min() passes over a NaN that is not first; that NaN still reaches rq and the defect
    q_min = min(q)
    rq = [ratio * (v - q_min) for v in q]
    hi = -1.0
    b = ratio * (start - q_min) if start is not None and ratio * (start - q_min) < hi else hi
    for evals in range(1, NEWTON_MAX_EVALS + 1):
        # b <= -1 throughout and every rq is >= 0 (or NaN), so every x >= 1
        # and x ** expo lies in [0, 1]: Python's float ** can neither raise
        # OverflowError nor divide by zero
        x = [v - b for v in rq]
        p = [v ** expo for v in x]
        defect = sum(p) - 1.0
        if not math.isfinite(defect):
            raise SolverDiverged(f"normalization defect {defect} at c={b / ratio + q_min!r}")
        slope = -expo * sum(map(truediv, p, x))  # d defect / db > 0
        if evals == 1 and defect < 0.0:
            # left of the root: the tangent of a convex function lands right of it
            b = min(b - defect / slope, hi) if slope > 0.0 else hi
            continue
        lower = b - defect / slope
        if b - lower <= 2.0 * math.ulp(b):
            break
        b = lower
    else:
        raise SolverDiverged(f"Newton iteration exceeded {NEWTON_MAX_EVALS} evaluations")
    total = sum(p)
    if abs(total - 1.0) > 1e-10:
        raise SolverDiverged(f"normalization residual {abs(total - 1.0):.2e}")
    return np.array([v / total for v in p]), b / ratio + q_min, evals


def ftrl_select(state: PolicyState, regularizer):
    """Solve for the exact simplex weights, sample an arm, return (arm, p).

    The arm is the number of partial sums of p at or below a uniform u,
    clipped to K - 1 where rounding leaves the last partial sum below u;
    the partial sums are added in order, as ``np.cumsum`` adds them.
    """
    q = state.eta * state.lhat
    if isinstance(regularizer, Shannon):
        p = shannon_weights(q)
    elif isinstance(regularizer, Tsallis):
        p, state.last_c, evals = tsallis_weights(q, regularizer.tsallis_beta, state.last_c)
        state.root_evals += evals
    else:
        raise DomainError(f"unknown regularizer {regularizer!r}")
    u = state.rng.random()
    arm = min(bisect_right(list(accumulate(p.tolist())), u), state.k - 1)
    return arm, p


def ftrl_update(state: PolicyState, arm: int, loss: float, p) -> PolicyState:
    """Exact importance-weighted update lhat_arm += loss / p_arm."""
    if not 0.0 <= loss <= 1.0:
        raise DomainError("losses must lie in [0, 1]")
    state.lhat[arm] += loss / p[arm]
    state.t += 1
    return state


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

    def step(self, state, loss_row):
        """One round: play the perturbed leader, estimate 1/w, update; return the arm."""
        # the selection vector and the first resampling block, b = min(16, M)
        # rows, are one tape slice under one argmin: picks[0] is the arm and
        # picks[j] the winner of resampling trial j.  Only a block without a
        # win reads on, from 64 rows, exactly as geometric_resample would
        cap, eta = state.cap(), state.eta
        b = min(16, cap)
        picks = (state.lhat - _perturbations(state, self.dist, 1 + b) / eta).argmin(axis=1).tolist()
        arm = picks[0]
        west = picks.index(arm, 1) if picks.count(arm) > 1 else _resample(state, self.dist, arm, cap, eta, b, 64)
        state.resample_trials += west
        ftpl_update(state, arm, float(loss_row[arm]), west)
        return arm

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

    def step(self, state, loss_row):
        """One round: solve for p, sample an arm, update with that p; return the arm."""
        arm, p = ftrl_select(state, self.regularizer)
        ftrl_update(state, arm, float(loss_row[arm]), p)
        return arm

    def cap_description(self):
        return "exact-w"


def parse_policy(spec: str):
    """Parse a policy spec like ``ftpl:lp:m=0.23`` or ``ftrl:tsallis:beta=0.5:m=0.23``.

    Trailing ``key=value`` tokens are policy parameters (``m``, ``cap``,
    ``beta``); for FTPL everything between the head and those tokens is a
    distribution spec (which may itself contain colons).  A parameter set
    twice or one the policy does not take raises ``DomainError``.
    """
    from .distributions import _number, parse_dist

    tokens = spec.strip().split(":")
    head, body, params = tokens[0].lower(), tokens[1:], {}
    while body and body[-1].lower().partition("=")[0] in {"m", "cap", "beta"}:
        key, _, val = body.pop().lower().partition("=")
        if key in params:
            raise DomainError(f"policy spec {spec!r} sets {key}= twice")
        params[key] = val
    if "m" not in params:
        raise DomainError(f"policy spec {spec!r} must set m=<scale>")
    m = _number(params["m"], spec)
    name = body[0].lower() if head == "ftrl" and body else head
    extra = sorted(params.keys() - {"ftpl": {"m", "cap"}, "tsallis": {"m", "beta"}}.get(name, {"m"}))
    if extra:
        raise DomainError(f"policy spec {spec!r}: {'=, '.join(extra)}= does not apply to {name}")

    if head == "ftpl":
        if not body:
            raise DomainError(f"ftpl spec {spec!r} needs a distribution")
        cap = _number(params["cap"], spec, int) if "cap" in params else None
        if cap is not None and cap < 1:
            raise DomainError(f"policy spec {spec!r}: the resampling cap must be at least 1")
        return FtplPolicy(dist=parse_dist(":".join(body)), m=m, resample_cap=cap)
    if head == "ftrl":
        if len(body) != 1:
            raise DomainError(f"ftrl spec {spec!r} needs one regularizer, shannon or tsallis")
        if name == "shannon":
            reg = Shannon()
        elif name == "tsallis":
            reg = Tsallis(tsallis_beta=_number(params.get("beta", "0.5"), spec))
        else:
            raise DomainError(f"unknown regularizer {name!r}")
        return FtrlPolicy(regularizer=reg, m=m)
    raise DomainError(f"unknown policy head {head!r}")
