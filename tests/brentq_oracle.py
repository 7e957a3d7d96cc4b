"""Bracketed ``brentq`` references for the Tsallis simplex weights and the phi_1 inversions.

``tsallis_weights`` is the solver ``policies.tsallis_weights`` ran before it
became a warm-started Newton iteration: expand a bracket [lo, hi] below
min q until the normalization defect changes sign, then
``scipy.optimize.brentq`` to 1e-15.  It returns what the library function
of that name returned then, bit for bit.  The tests hold the Newton solver
to it, and to ``kkt_residual``, the stationarity residual of the weights.

``phi_1_root`` is the solver ``duality``'s phi_1 inversions ran before they
became a bracketed Newton iteration on the kernel's own phi_1': double a
bracket until phi_1 - x changes sign on it, then ``brentq`` on phi_1 alone.
It returns what ``duality._phi_1_root`` returned then, bit for bit.
"""

import functools

import numpy as np
from scipy.optimize import brentq

from pllab import selection
from pllab.errors import RootFindFailed, SolverDiverged


def tsallis_weights(q, beta):
    """(p, c): the exact minimizer of <q, p> - (1/(1-beta)) sum p^beta on the simplex."""
    q = np.asarray(q, dtype=float)
    k = len(q)
    ratio = (1.0 - beta) / beta
    expo = -1.0 / (1.0 - beta)

    def weights(c):
        return (ratio * (q - c)) ** expo

    def defect(c):
        return weights(c).sum() - 1.0

    q_min = float(q.min())
    hi = q_min - 1.0 / ratio          # the closest arm alone already has mass 1
    lo = q_min - 1.01 * k ** (1.0 - beta) / ratio  # total mass < 1 by construction
    expand = 0
    while defect(lo) >= 0.0:
        lo = q_min - 2.0 * (q_min - lo)
        expand += 1
        if expand > 200:
            raise SolverDiverged("bracket expansion exceeded budget")
    c = brentq(defect, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    p = weights(c)
    if abs(p.sum() - 1.0) > 1e-10:
        raise SolverDiverged(f"normalization residual {abs(p.sum()-1.0):.2e}")
    return p / p.sum(), float(c)


def kkt_residual(q, p, beta):
    """max_i |q_i + V'(p_i) - c| for the Tsallis regularizer (c = median shift)."""
    q = np.asarray(q, dtype=float)
    grad = -(beta / (1.0 - beta)) * np.asarray(p, dtype=float) ** (beta - 1.0)
    stat = q + grad
    return float(np.max(np.abs(stat - np.median(stat))))


def phi_1_root(lam_of_c, x, dist, lo):
    """The c with phi_1(lam_of_c(c)) = x, for a loss family along which phi_1 increases.

    Integrates arm 1 only.  The bracket [lo, 4] doubles until g = phi_1 - x
    changes sign on it (lo = 0 stays fixed), unless an end already has
    |g| <= 1e-9; a final |g| above 1e-9, or a bracket past 1e9, raises
    RootFindFailed with |g| at the last end examined.
    """

    @functools.lru_cache(maxsize=None)
    def g(c):
        values = selection._phi(lam_of_c(c), dist, 1e-10, with_prime=False, arms=(0,))[2]
        return float(values[0, 0]) - x

    hi = 4.0
    while g(lo) > 0.0 or g(hi) < 0.0:
        end = lo if g(lo) > 0.0 else hi
        if abs(g(end)) <= 1e-9:
            return float(end)
        lo, hi = 2.0 * lo, 2.0 * hi
        if hi > 1e9:
            raise RootFindFailed(abs(g(end)), "phi_1 inversion bracket expansion")
    c = brentq(g, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    if abs(g(c)) > 1e-9:
        raise RootFindFailed(abs(g(c)), "phi_1 inversion")
    return float(c)
