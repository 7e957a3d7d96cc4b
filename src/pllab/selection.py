"""Arm-selection probabilities by adaptive quadrature, with a Monte-Carlo oracle.

For a loss vector lambda and i.i.d. perturbations with CDF F and density f,
the probability that arm i attains the perturbed argmin is

    phi_i = integral  f(z + gap_i) * prod_{j != i} F(z + gap_j)  dz,

where gap = lambda - min(lambda).  The own-coordinate derivative phi_i' is
the same integral with f replaced by f'.  Both integrands are only piecewise
smooth (f has kinks), so the real line is split at every shifted kink before
handing each piece to QUADPACK.  The potential (``duality.potential``) is
the same integral once more with f(z + gap_i) replaced by z f(z + gap_i),
so all three share one kernel, ``_component_integrals``, which integrates
each distinct gap of a loss vector once against each factor g(z, gap_i),
for just the arms a caller reads (the phi_1 inversions in ``duality``
read arm 1 alone).

``phi_scan`` evaluates a loss family lambda(c) over a grid of c, one row per
(c, arm); ``counterexample_scan``, ``stability_envelope_scan`` and the
``analyze-phi`` command are built on it.
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
    "phi_values",
    "phi_scan",
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


def _weight(dist, gap_others, z):
    """prod_{j != i} F(z + gap_j); every factor lies in [0, 1], so it cannot overflow."""
    return float(np.prod(dist.cdf(z + gap_others)))


def _component_integrals(dist, gap, factors, budget, arms=None):
    """integral g(z, gap_i) prod_{j != i} F(z + gap_j) dz for each arm i and factor g.

    Returns a (len(arms), len(factors)) array of integrals (``arms``
    defaults to all) and each arm's worst summed QUADPACK error estimate.
    Each distinct gap is integrated once, so (0, c, ..., c) costs two arm
    integrals at any K.  The z-line is split at every shifted kink and at
    +-cut, restricted to where z -> f(z + gap_i) is supported, and each
    piece gets an equal share of ``budget`` as its absolute tolerance.
    """
    lo, hi = dist.support
    cut = max(_TAIL_CUT, 10.0 * float(np.max(gap)))
    points = sorted({k - g for k in dist.kinks for g in gap} | {-cut, cut})
    arms = range(len(gap)) if arms is None else arms
    values = np.empty((len(arms), len(factors)))
    worst = np.zeros(len(arms))
    done = {}  # gap -> the row that holds its integrals
    with warnings.catch_warnings():
        # heavy polynomial tails trip QUADPACK's slow-convergence heuristic;
        # the returned error estimate is checked against tol by the callers
        warnings.simplefilter("ignore", IntegrationWarning)
        for row, i in enumerate(arms):
            s = gap[i]
            first = done.setdefault(s, row)
            if first != row:
                values[row], worst[row] = values[first], worst[first]
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
                values[row, k] = total
                worst[row] = max(worst[row], err)
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


def _phi(lam, dist, tol, with_prime, arms=None):
    """(lam, gap, integrals, worst error): columns phi and, if asked, phi' sans jumps.

    The one phi path; raises ToleranceNotMet with the worst arm's error.
    """
    lam = _loss_vector(lam, tol)
    gap = lam - lam.min()
    factors = [lambda z, s: float(dist.pdf(z + s))]
    if with_prime:
        factors.append(lambda z, s: float(dist.pdf_prime(z + s)))
    values, errs = _component_integrals(dist, gap, factors, tol / 4.0, arms)
    worst = float(errs.max())
    if worst > tol:
        raise ToleranceNotMet(worst, tol)
    return lam, gap, values, worst


def phi_quadrature(lam, dist: PerturbationDistribution, tol: float = 1e-8) -> SelectionProbe:
    """Selection probabilities and own-loss derivatives for every arm.

    Raises ToleranceNotMet when the accumulated QUADPACK error estimate of
    any component exceeds ``tol``.
    """
    lam, gap, values, worst = _phi(lam, dist, tol, with_prime=True)
    phi, phi_prime = values.T.copy()
    # density jumps put point masses into the distributional derivative of f
    for loc, jump in dist.density_jumps():
        phi_prime += jump * np.array([_weight(dist, np.delete(gap, i), loc - s) for i, s in enumerate(gap)])
    return SelectionProbe(
        lam=lam,
        lambda_gap=gap,
        rank=_ranks(lam),
        phi=phi,
        phi_prime=phi_prime,
        quad_error=worst,
    )


def phi_values(lam, dist, tol: float = 1e-9):
    """Selection probabilities only (no derivatives): the cheap evaluation path.

    Raises ToleranceNotMet, with the worst arm's error, when it exceeds ``tol``.
    """
    return _phi(lam, dist, tol, with_prime=False)[2][:, 0].copy()


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


def phi_scan(dist, lambda_of_c, c_grid, tol=1e-8):
    """``phi_quadrature`` at lambda_of_c(c) for each c of a grid.

    Returns one row per (c, arm) with the keys c, i (1-based), sigma_i (the
    rank), lambda_gap, phi, phi_prime, ratio_1, ratio_32 and quad_error.
    """
    rows = []
    for c in c_grid:
        probe = phi_quadrature(lambda_of_c(c), dist, tol)
        ratio_1, ratio_32 = probe.ratio_1, probe.ratio_32
        for i in range(len(probe.phi)):
            rows.append(
                {
                    "c": float(c),
                    "i": i + 1,
                    "sigma_i": int(probe.rank[i]),
                    "lambda_gap": float(probe.lambda_gap[i]),
                    "phi": float(probe.phi[i]),
                    "phi_prime": float(probe.phi_prime[i]),
                    "ratio_1": float(ratio_1[i]),
                    "ratio_32": float(ratio_32[i]),
                    "quad_error": probe.quad_error,
                }
            )
    return rows


def stability_envelope_scan(dist, K, lambda_of_c, c_grid, tol=1e-8):
    """Stability-ratio scan against the rank and gap bound branches.

    Requires an unbounded hybrid-type law whose left tail is at least two
    orders lighter than the right (tail_left >= tail_right + 2 > 3); the scan
    reports -phi'/phi next to rank^(-1/alpha) and 1/gap so the implied
    constant can be read off empirically.  Rows are those of ``phi_scan``
    plus bound_rank, bound_gap and empirical_constant.
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

    def lam_of(c):
        lam = np.asarray(lambda_of_c(c), dtype=float)
        if len(lam) != K:
            raise DomainError("lambda family must produce vectors of length K")
        return lam

    rows = phi_scan(dist, lam_of, c_grid, tol)
    running_max = 0.0
    for row in rows:
        bound_rank = row["sigma_i"] ** (-1.0 / alpha) if math.isfinite(alpha) else 1.0
        bound_gap = 1.0 / row["lambda_gap"] if row["lambda_gap"] > 0.0 else math.inf
        running_max = max(running_max, row["ratio_1"] / min(bound_rank, bound_gap))
        row.update(bound_rank=float(bound_rank), bound_gap=float(bound_gap), empirical_constant=running_max)
    return rows


def counterexample_scan(dist, K, c_grid, tol=1e-8):
    """Stability ratios at lambda = (0, c, ..., c) over a grid of c (rows of ``phi_scan``).

    For K >= 3 the grid must start at 2*sqrt(K) (the regime where the
    linear-growth lower bound applies); K = 2 may scan from 0.
    """
    if K < 2:
        raise DomainError("need K >= 2")
    c_grid = np.asarray(list(c_grid), dtype=float)
    if K >= 3 and c_grid.min() < 2.0 * math.sqrt(K) - 1e-12:
        raise DomainError(f"for K >= 3 the grid must start at 2 sqrt(K) = {2*math.sqrt(K):.4f}")
    return phi_scan(dist, lambda c: np.concatenate([[0.0], np.full(K - 1, c)]), c_grid, tol)
