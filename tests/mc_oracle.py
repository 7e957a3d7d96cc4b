"""Monte-Carlo reference for the selection probabilities.

The argmin frequencies of i.i.d. perturbation vectors estimate phi without
quadrature, so the tests (criterion 1 among them) hold
``selection.phi_quadrature`` to them within their confidence intervals.
It draws millions of vectors per call, so only tests call it.
"""

import numpy as np

from pllab.errors import DomainError


def phi_monte_carlo(lam, dist, n, rng):
    """Empirical argmin frequencies over n i.i.d. perturbation vectors.

    Returns (phi_hat, ci_halfwidth) with 95% normal-approximation intervals;
    argmin ties go to the lowest index.  Draws at most 200,000 vectors at once.
    """
    lam = np.asarray(lam, dtype=float)
    if n < 10_000:
        raise DomainError("need n >= 1e4 for a meaningful oracle")
    K = len(lam)
    counts = np.zeros(K, dtype=np.int64)
    remaining = int(n)
    while remaining > 0:
        m = min(200_000, remaining)
        r = dist.sample_array((m, K), rng)
        wins = np.argmin(lam[None, :] - r, axis=1)
        counts += np.bincount(wins, minlength=K)
        remaining -= m
    phat = counts / float(n)
    ci = 1.96 * np.sqrt(phat * (1.0 - phat) / float(n))
    return phat, ci
