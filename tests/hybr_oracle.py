"""The two-start ``scipy.optimize.root`` solve of phi(nu) = p, as a reference.

``regularizer_value`` is the solver ``duality.regularizer_value`` ran before
it became a damped Newton iteration on a forward-difference Jacobian: MINPACK's
Powell hybrid (``hybr``, xtol 1e-12) on phi(nu)_{1..K-1} = p_{1..K-1} with
nu_K = 0, from log(p/p_K) and then from 0, keeping the better start.  It
returns what the library function returned then, bit for bit.  The tests hold
the Newton solve to it where phi(nu) = p pins nu down well.
"""

import math

import numpy as np
from scipy.optimize import root

from pllab import duality, selection
from pllab.errors import DomainError, RootFindFailed, SupportError


def regularizer_value(p, dist):
    """(V, nu): V(p) = <p, nu> - potential(nu) at the nu with phi(nu) = p and nu_K = 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise DomainError("p must be a strictly interior simplex point")
    if dist.support != (-math.inf, math.inf):
        raise SupportError("regularizer requires a law fully supported on the reals")

    K = len(p)

    def phi_of(y):
        nu = np.concatenate([y, [0.0]])
        return selection.phi_values(-nu, dist, tol=1e-10)

    def residual_fn(y):
        return phi_of(y)[: K - 1] - p[: K - 1]

    y0 = np.log(p[:-1] / p[-1])  # exact for Gumbel, a sane start elsewhere
    best_y, best_res = None, math.inf
    for start in (y0, np.zeros(K - 1)):
        sol = root(residual_fn, start, method="hybr", options={"xtol": 1e-12})
        res = float(np.max(np.abs(phi_of(sol.x) - p)))
        if res < best_res:
            best_y, best_res = sol.x, res
        if res <= 1e-8:
            break
    if best_res > 1e-8:
        raise RootFindFailed(best_res, "phi(nu) = p root-finding")
    nu = np.concatenate([best_y, [0.0]])
    value = float(np.dot(p, nu)) - duality.potential(nu, dist)
    return value, nu
