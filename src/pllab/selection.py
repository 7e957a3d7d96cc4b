"""Arm-selection probabilities by adaptive quadrature, with a Monte-Carlo oracle.

For a loss vector lambda and i.i.d. perturbations with CDF F and density f,
the probability that arm i attains the perturbed argmin is

    phi_i = integral  f(z + gap_i) * prod_{j != i} F(z + gap_j)  dz,

where gap = lambda - min(lambda).  The own-coordinate derivative phi_i' is
the same integral with f replaced by f'.  Both integrands are only piecewise
smooth (f has kinks), so the real line is split at every shifted kink before
handing each piece to QUADPACK.  The potential (``duality.potential``) is
the same integral once more with f(z + gap_i) replaced by z f(z + gap_i),
so all three share one kernel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .distributions import PerturbationDistribution
from .errors import DomainError, ToleranceNotMet

__all__ = [
    "SelectionProbe",
    "phi_quadrature",
    "phi_monte_carlo",
    "stability_envelope_scan",
    "counterexample_scan",
]

_TAIL_CUT = 50.0


@dataclass(frozen=True)
class SelectionProbe:
    """Quadrature result for one loss vector.

    ``rank[i]`` is the 1-based rank of lambda_i in nondecreasing order (ties
    broken by index), ``ratio_1 = -phi'/phi`` and ``ratio_32 = -phi'/phi^1.5``
    are the stability ratios, and ``quad_error`` bounds the absolute
    quadrature error of any single component.
    """

    lam: np.ndarray
    lambda_gap: np.ndarray
    rank: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    quad_error: float

    @property
    def ratio_1(self):
        return -self.phi_prime / self.phi

    @property
    def ratio_32(self):
        return -self.phi_prime / self.phi**1.5


def _ranks(lam):
    order = np.argsort(lam, kind="stable")
    rank = np.empty(len(lam), dtype=int)
    rank[order] = np.arange(1, len(lam) + 1)
    return rank


def _segments(dist, gap, i):
    """Pieces of the z-line for component i, and the number of finite split points.

    The line is split at every shifted kink and at +-cut, and restricted to
    where the f factor z -> f(z + gap_i) is supported.
    """
    lo, hi = dist.support
    z_lo, z_hi = lo - gap[i], hi - gap[i]
    cut = max(_TAIL_CUT, 10.0 * float(np.max(gap)))
    pts = {k - g for k in dist.kinks for g in gap} | {-cut, cut}
    edges = [z_lo, *sorted(p for p in pts if z_lo < p < z_hi), z_hi]
    return list(zip(edges[:-1], edges[1:])), sum(map(math.isfinite, edges))


def _weight(dist, gap_others, z):
    """prod_{j != i} F(z + gap_j), through logs when a factor is tiny."""
    vals = np.asarray(dist.cdf(z + gap_others), dtype=float)
    m = vals.min()
    if m <= 0.0:
        return 0.0
    if m < 1e-12:
        return math.exp(float(np.sum(np.log(vals))))
    return float(np.prod(vals))


def _component_integrals(dist, gap, i, factors, budget):
    """integral g(z) prod_{j != i} F(z + gap_j) dz for each factor g of z.

    Returns the integrals and the worst of their summed QUADPACK error
    estimates; each piece of the split line gets an equal share of
    ``budget`` as its absolute tolerance.
    """
    gap_others = np.delete(gap, i)
    pieces, n_points = _segments(dist, gap, i)
    epsabs = budget / (n_points + 1)
    values = []
    worst = 0.0
    with warnings.catch_warnings():
        # heavy polynomial tails trip QUADPACK's slow-convergence heuristic;
        # the returned error estimate is checked against tol by the callers
        warnings.simplefilter("ignore", IntegrationWarning)
        for g in factors:

            def integrand(z):
                w = _weight(dist, gap_others, z)
                return g(z) * w if w else 0.0

            total = 0.0
            err = 0.0
            for a, b in pieces:
                val, e = quad(integrand, a, b, epsabs=epsabs, epsrel=1e-11, limit=200)
                total += val
                err += e
            values.append(total)
            worst = max(worst, err)
    return values, worst


def _loss_vector(lam, tol):
    """``lam`` as a float array, after the checks every phi evaluation shares."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise DomainError("need a loss vector of length K >= 2")
    if not np.all(np.isfinite(lam)):
        raise DomainError("loss vector must be finite")
    if not 0.0 < tol <= 1e-4:
        raise DomainError("tol must lie in (0, 1e-4]")
    return lam


def phi_quadrature(lam, dist: PerturbationDistribution, tol: float = 1e-8) -> SelectionProbe:
    """Selection probabilities and own-loss derivatives for every arm.

    Raises ToleranceNotMet when the accumulated QUADPACK error estimate of
    any component exceeds ``tol``.
    """
    lam = _loss_vector(lam, tol)
    gap = lam - lam.min()
    K = len(lam)
    phi = np.empty(K)
    phi_prime = np.empty(K)
    worst = 0.0
    for i in range(K):
        s = gap[i]
        factors = (lambda z: float(dist.pdf(z + s)), lambda z: float(dist.pdf_prime(z + s)))
        (phi[i], phi_prime[i]), err = _component_integrals(dist, gap, i, factors, tol / 4.0)
        # density jumps put point masses into the distributional derivative of f
        for loc, jump in dist.density_jumps():
            phi_prime[i] += jump * _weight(dist, np.delete(gap, i), loc - s)
        worst = max(worst, err)
    if worst > tol:
        raise ToleranceNotMet(worst, tol)
    return SelectionProbe(
        lam=lam,
        lambda_gap=gap,
        rank=_ranks(lam),
        phi=phi,
        phi_prime=phi_prime,
        quad_error=worst,
    )


def phi_values(lam, dist, tol: float = 1e-9):
    """Selection probabilities only (no derivatives): the cheap evaluation path."""
    lam = _loss_vector(lam, tol)
    gap = lam - lam.min()
    out = np.empty(len(lam))
    for i in range(len(lam)):
        s = gap[i]
        (out[i],), err = _component_integrals(dist, gap, i, (lambda z: float(dist.pdf(z + s)),), tol / 4.0)
        if err > tol:
            raise ToleranceNotMet(err, tol)
    return out


def phi_monte_carlo(lam, dist, n, rng, chunk=200_000):
    """Empirical argmin frequencies over n i.i.d. perturbation vectors.

    Returns (phi_hat, ci_halfwidth) with 95% normal-approximation intervals;
    argmin ties go to the lowest index.
    """
    lam = np.asarray(lam, dtype=float)
    if n < 10_000:
        raise DomainError("need n >= 1e4 for a meaningful oracle")
    K = len(lam)
    counts = np.zeros(K, dtype=np.int64)
    remaining = int(n)
    while remaining > 0:
        m = min(chunk, remaining)
        r = dist.sample_array((m, K), rng)
        wins = np.argmin(lam[None, :] - r, axis=1)
        counts += np.bincount(wins, minlength=K)
        remaining -= m
    phat = counts / float(n)
    ci = 1.96 * np.sqrt(phat * (1.0 - phat) / float(n))
    return phat, ci


def stability_envelope_scan(dist, K, lambda_of_c, c_grid, tol=1e-8):
    """Stability-ratio scan against the rank and gap bound branches.

    Requires an unbounded hybrid-type law whose left tail is at least two
    orders lighter than the right (tail_left >= tail_right + 2 > 3); the scan
    reports -phi'/phi next to rank^(-1/alpha) and 1/gap so the implied
    constant can be read off empirically.
    """
    alpha = dist.tail_index_right
    beta = dist.tail_index_left
    if dist.support != (-math.inf, math.inf):
        raise DomainError("scan requires a law supported on the whole real line")
    if not alpha > 1.0:
        raise DomainError(f"right tail index must exceed 1, got {alpha}")
    if not beta >= alpha + 2.0:
        raise DomainError(
            f"left tail index {beta} violates the requirement beta >= alpha + 2 = {alpha + 2}"
        )
    rows = []
    running_max = 0.0
    for c in c_grid:
        lam = np.asarray(lambda_of_c(c), dtype=float)
        if len(lam) != K:
            raise DomainError("lambda family must produce vectors of length K")
        probe = phi_quadrature(lam, dist, tol)
        for i in range(K):
            gap_i = probe.lambda_gap[i]
            bound_rank = probe.rank[i] ** (-1.0 / alpha) if math.isfinite(alpha) else 1.0
            bound_gap = 1.0 / gap_i if gap_i > 0.0 else math.inf
            ratio = float(probe.ratio_1[i])
            envelope = min(bound_rank, bound_gap)
            running_max = max(running_max, ratio / envelope)
            rows.append(
                {
                    "c": float(c),
                    "i": i + 1,
                    "sigma_i": int(probe.rank[i]),
                    "lambda_gap": float(gap_i),
                    "ratio_1": ratio,
                    "bound_rank": float(bound_rank),
                    "bound_gap": float(bound_gap),
                    "empirical_constant": running_max,
                    "quad_error": probe.quad_error,
                }
            )
    return rows


def counterexample_scan(dist, K, c_grid, tol=1e-8):
    """Stability ratios at lambda = (0, c, ..., c) over a grid of c.

    For K >= 3 the grid must start at 2*sqrt(K) (the regime where the
    linear-growth lower bound applies); K = 2 may scan from 0.
    """
    if K < 2:
        raise DomainError("need K >= 2")
    c_grid = np.asarray(list(c_grid), dtype=float)
    if K >= 3 and c_grid.min() < 2.0 * math.sqrt(K) - 1e-12:
        raise DomainError(f"for K >= 3 the grid must start at 2 sqrt(K) = {2*math.sqrt(K):.4f}")
    rows = []
    for c in c_grid:
        lam = np.concatenate([[0.0], np.full(K - 1, c)])
        probe = phi_quadrature(lam, dist, tol)
        for i in range(K):
            rows.append(
                {
                    "c": float(c),
                    "i": i + 1,
                    "sigma_i": int(probe.rank[i]),
                    "phi": float(probe.phi[i]),
                    "phi_prime": float(probe.phi_prime[i]),
                    "ratio_1": float(probe.ratio_1[i]),
                    "ratio_32": float(probe.ratio_32[i]),
                    "quad_error": probe.quad_error,
                }
            )
    return rows
