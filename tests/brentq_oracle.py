"""Bracketed ``brentq`` reference for the Tsallis simplex weights.

This is the solver ``policies.tsallis_weights`` ran before it became a
warm-started Newton iteration: expand a bracket [lo, hi] below min q until
the normalization defect changes sign, then ``scipy.optimize.brentq`` to
1e-15.  ``tsallis_weights`` here returns what the library function of that
name returned then, bit for bit.  The tests hold the Newton solver to it,
and to ``kkt_residual``, the stationarity residual of the weights.
"""

import numpy as np
from scipy.optimize import brentq

from pllab.errors import SolverDiverged


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
