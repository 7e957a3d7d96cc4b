"""The per-round FTRL round on ndarrays: the byte oracle for ``FtrlPolicy.play``.

``FtrlPolicy.play`` runs a whole loss matrix on Python floats.  Here each
round runs on the policy state's ndarray ``lhat``: ``ftrl_select`` solves
for p with the public ``tsallis_weights`` (or ``shannon_weights``) and draws
the arm, then ``ftrl_update`` adds loss / p_arm.  The operations are the
same, in the same order, so the two must agree on every arm, every bit of
``lhat``, ``t``, ``last_c`` and ``root_evals``.
"""

from bisect import bisect_right
from itertools import accumulate

from pllab.errors import DomainError
from pllab.policies import PolicyState, Shannon, Tsallis, shannon_weights, tsallis_weights


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
