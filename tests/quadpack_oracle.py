"""Scalar QUADPACK references for the selection kernel and the characteristic function.

The first is the loop ``selection._component_integrals`` ran before it became one
vectorized Gauss-Kronrod kernel: ``scipy.integrate.quad`` on a Python
integrand, one point at a time, on the z-line split at every shifted kink
and at +-cut.  ``phi_quadrature``, ``phi_values`` and ``potential`` here
return what the library functions of those names returned then, bit for
bit, together with their error estimates.  The tests hold the kernel to
this oracle.  Its phi' takes a route independent of the kernel's, which
works by parts from f alone: the integral of f' plus a point mass for each
density jump, read by ``density_jumps`` from the one-sided limits of f at
the law's kinks.  ``char_fn`` is the pointwise characteristic function,
integrated in p, that ``duality.char_fn_grid`` on the Tsallis head's nodes
is held to; those nodes lie in s = p^(beta-1), so the oracle checks the
change of variable too.  They are slow, so only tests call them.
"""

import functools
import math
import operator
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from pllab import selection
from pllab.errors import DomainError, ToleranceNotMet

_TAIL_CUT = 50.0


def _weight(dist, gap_others, z):
    """prod_{j != i} F(z + gap_j); every factor lies in [0, 1], so it cannot overflow."""
    return float(np.prod(dist.cdf(z + gap_others)))


def component_integrals(dist, gap, factors, budget):
    """integral g(z, gap_i) prod_{j != i} F(z + gap_j) dz for each arm i and scalar factor g.

    Returns a (K, len(factors)) array of integrals and each arm's worst
    summed QUADPACK error estimate.  Each distinct gap is integrated once;
    each piece between shifted kinks gets an equal share of ``budget``.
    """
    lo, hi = dist.support
    cut = max(_TAIL_CUT, 10.0 * float(np.max(gap)))
    points = sorted({k - g for k in dist.kinks for g in gap} | {-cut, cut})
    values = np.empty((len(gap), len(factors)))
    worst = np.zeros(len(gap))
    done = {}  # gap -> the row that holds its integrals
    with warnings.catch_warnings():
        # heavy polynomial tails trip QUADPACK's slow-convergence heuristic;
        # the returned error estimate is what the callers check
        warnings.simplefilter("ignore", IntegrationWarning)
        for i, s in enumerate(gap):
            first = done.setdefault(s, i)
            if first != i:
                values[i], worst[i] = values[first], worst[first]
                continue
            others = np.delete(gap, i)
            z_lo, z_hi = lo - s, hi - s
            edges = [z_lo, *(p for p in points if z_lo < p < z_hi), z_hi]
            epsabs = budget / (sum(map(math.isfinite, edges)) + 1)
            for k, g in enumerate(factors):

                def integrand(z):
                    w = _weight(dist, others, z)
                    return g(z, s) * w if w else 0.0

                total = 0.0
                err = 0.0
                for a, b in zip(edges[:-1], edges[1:]):
                    val, e = quad(integrand, a, b, epsabs=epsabs, epsrel=1e-11, limit=200)
                    total += val
                    err += e
                values[i, k] = total
                worst[i] = max(worst[i], err)
    return values, worst


def density_jumps(dist):
    """((kink, f(kink+) - f(kink-)), ...) for each kink where the density jumps.

    The one-sided limits are f at the floats next to the kink: exact for
    every law here, none of which moves by an ulp that close to a kink.
    """
    jumps = ((k, float(dist.pdf(np.nextafter(k, math.inf)) - dist.pdf(np.nextafter(k, -math.inf))))
             for k in dist.kinks)
    return tuple((k, jump) for k, jump in jumps if jump)


def _phi(lam, dist, tol, with_prime):
    lam = selection._loss_vector(lam, tol)
    gap = lam - lam.min()
    factors = [lambda z, s: float(dist.pdf(z + s))]
    if with_prime:
        factors.append(lambda z, s: float(dist.pdf_prime(z + s)))
    values, errs = component_integrals(dist, gap, factors, tol / 4.0)
    return gap, values, float(errs.max())


def phi_quadrature(lam, dist, tol=1e-8):
    """(phi, phi', worst error estimate), the density-jump terms included."""
    gap, values, worst = _phi(lam, dist, tol, with_prime=True)
    phi, phi_prime = values.T.copy()
    for loc, jump in density_jumps(dist):
        phi_prime += jump * np.array([_weight(dist, np.delete(gap, i), loc - s) for i, s in enumerate(gap)])
    return phi, phi_prime, worst


def phi_values(lam, dist, tol=1e-9):
    """(phi, worst error estimate)."""
    _, values, worst = _phi(lam, dist, tol, with_prime=False)
    return values[:, 0].copy(), worst


def potential(nu, dist, tol=1e-9):
    """(E[max_i (nu_i + r_i)], summed error estimate), at the library's budget tol/(2K)."""
    nu = selection._loss_vector(nu, tol)
    mu = float(nu.max())
    values, errs = component_integrals(
        dist, mu - nu, (lambda z, s: z * float(dist.pdf(z + s)),), tol / (2.0 * len(nu))
    )
    return float(functools.reduce(operator.add, values[:, 0], mu)), float(errs.sum())


def char_fn(t, quantile, eps=1e-4, tol=1e-8):
    """gbar(t) = integral_{eps}^{1-eps} exp(i t c(p)) dp by adaptive quadrature.

    At t = 0 this equals 1 - 2 eps exactly; for an antisymmetric quantile the
    imaginary part vanishes up to the quadrature tolerance.
    """
    if not 0.0 < eps <= 1e-3:
        raise DomainError("eps must lie in (0, 1e-3]")
    val, err = quad(
        lambda p: np.exp(1j * t * quantile(p)),
        eps,
        1.0 - eps,
        epsabs=tol,
        epsrel=1e-10,
        limit=800,
        complex_func=True,
        points=[0.5],
    )
    if abs(err) > 100.0 * tol:
        raise ToleranceNotMet(abs(err), tol)
    return complex(val)
