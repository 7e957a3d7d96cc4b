"""Arm-selection probabilities by adaptive quadrature.

For a loss vector lambda and i.i.d. perturbations with CDF F and density f,
the probability that arm i attains the perturbed argmin is

    phi_i = integral  f(z + gap_i) * prod_{j != i} F(z + gap_j)  dz,

where gap = lambda - min(lambda).  The own-coordinate derivative comes by
parts, phi_i' = -integral f(z + gap_i) d/dz prod_{j != i} F(z + gap_j) dz,
so it needs neither f' nor the point masses of a density jump; the
potential (``duality.potential``) is the phi integral with z f(z + gap_i).
One kernel, ``_component_integrals``, integrates z^moment times phi's
integrand (moment 0 for phi, 1 for the potential) and phi' beside it: an
adaptive Gauss-Kronrod (G7-K15) rule on starting panels split at every
shifted kink and support edge, the tails mapped onto (0, 1].  Its set-up,
``_starting_panels``, finds the distinct gaps and lays out those panels in
Python floats; each refinement pass then evaluates F and f once on an
array of every panel, node and distinct gap, f for just the arms a caller
reads unless phi' needs every gap (the phi_1 inversions in ``duality``
read arm 1 alone).  The tests hold it to the scalar QUADPACK loop it
replaced and to a Monte-Carlo estimate of the argmin frequencies, and its
set-up to the numpy set-up it replaced.

``counterexample_scan`` returns one probe per c of the family (0, c, ..., c);
the ``analyze-phi`` command writes its CSV rows straight from the probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# not called here: bench/tracing.py wraps ``selection.quad`` by name
from scipy.integrate import quad  # noqa: F401

from .distributions import PerturbationDistribution
from .errors import DomainError, NonIntegrable, ToleranceNotMet

__all__ = [
    "SelectionProbe",
    "phi_quadrature",
    "phi_values",
    "counterexample_scan",
]

_TAIL_CUT = 50.0
# the kernel evaluates arm i's density at z + gap_i: past this loss spread the
# ulp of a gap (2^-12 at 2^40) nears the density's scale, the shifted nodes
# collapse onto a few floats and the K15 - G7 estimate sees a flat integrand
_MAX_SPREAD = 2.0**40
_MAX_DEPTH = 40  # bisections of one starting panel before ToleranceNotMet
_MAX_WORK = 100_000  # panels x distinct gaps in one pass before ToleranceNotMet
_ROUNDING = 4.0 * np.finfo(float).eps  # per arm, in the check that phi sums to 1
_TINY = np.finfo(float).tiny

# QUADPACK's 15-point Kronrod rule on [-1, 1], nodes ascending; its 7-point
# Gauss rule uses every other node
_XK = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
       0.586087235467691130, 0.405845151377397167, 0.207784955007898468)
_WK = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
       0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828)
_WG = (0.129484966168869693, 0.279705391489276668, 0.381830050505118945, 0.417959183673469388)
_KRONROD_NODES = np.r_[np.negative(_XK), 0.0, _XK[::-1]]
_KRONROD_WEIGHTS = np.r_[_WK, _WK[-2::-1]]
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = np.r_[_WG, _WG[-2::-1]]


@dataclass(frozen=True)
class SelectionProbe:
    """Quadrature result for one loss vector.

    ``rank[i]`` is the 1-based rank of lambda_i in nondecreasing order (ties
    broken by index), ``ratio_1 = -phi'/phi`` and ``ratio_32 = -phi'/phi^1.5``
    are the stability ratios (nan where phi underflows to 0), and
    ``quad_error`` bounds the absolute quadrature error of any single
    component.  ``n_evals`` counts integrand evaluations (one per node and
    distinct gap) and ``n_panels`` the Gauss-Kronrod panels evaluated, over
    every refinement pass.
    """

    lam: np.ndarray
    lambda_gap: np.ndarray
    rank: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    quad_error: float
    n_evals: int
    n_panels: int

    @property
    def ratio_1(self):
        with np.errstate(all="ignore"):
            return -self.phi_prime / self.phi

    @property
    def ratio_32(self):
        # phi^1.5 underflows while phi does not: there divide by phi and sqrt(phi) in turn
        with np.errstate(all="ignore"):
            power = self.phi**1.5
            return np.where(power < _TINY, self.ratio_1 / np.sqrt(self.phi), -self.phi_prime / power)


def _others_product(F, mult, f=None):
    """(prod_{j != i} F(z + gap_j), its z-derivative) for one arm i of each distinct gap, along the last axis.

    ``F`` and ``f`` hold the CDF and density at the distinct gaps, ``mult``
    their multiplicities; without ``f`` the derivative is None.  The prefix
    and suffix products, with the product rule's derivatives carried along,
    need no division, and underflow to 0 is exact.
    """
    Q, own = F**mult, F ** (mult - 1)
    dQ = None if f is None else mult * f * own
    below, above = np.ones((2, *F.shape))  # the products over the gaps below and above each one
    d_below, d_above = np.zeros((2, *F.shape))
    for k in range(1, F.shape[-1]):
        below[..., k] = below[..., k - 1] * Q[..., k - 1]
        above[..., -k - 1] = above[..., -k] * Q[..., -k]
        if f is not None:
            d_below[..., k] = d_below[..., k - 1] * Q[..., k - 1] + below[..., k - 1] * dQ[..., k - 1]
            d_above[..., -k - 1] = d_above[..., -k] * Q[..., -k] + above[..., -k] * dQ[..., -k]
    if f is None:
        return below * above * own, None
    # a tied arm's own factor F^(m-1) has derivative (m-1) f F^(m-2), 0 at m = 1
    d_own = (mult - 1) * f * F ** np.maximum(mult - 2, 0)
    return below * above * own, (d_below * above + below * d_above) * own + below * above * d_own


def _starting_panels(dist, gap, arms, moment, budget):
    """The kernel's set-up: distinct gaps and starting panels for ``_component_integrals``.

    Returns (gaps, mult, cols, rows, cut, a, b, power, share): the sorted
    distinct gaps and their multiplicities, the distinct-gap columns of the
    read arms and each read arm's row among them, the tail cut, and the
    starting panels with their shares of ``budget``.  The panel layout is
    a few dozen edges, so it is built in Python floats and converted once.
    """
    if min(dist.tail_index_left, dist.tail_index_right) <= moment:
        raise NonIntegrable(f"the integral of z^{moment} f needs tail indices above {moment}")
    gap = gap.tolist()
    gaps = sorted(set(gap))
    position = {g: k for k, g in enumerate(gaps)}
    inverse = [position[g] for g in gap]
    mult = [0] * len(gaps)
    for k in inverse:
        mult[k] += 1
    read = inverse if arms is None else [inverse[i] for i in arms]
    cols = sorted(set(read))
    row = {k: r for r, k in enumerate(cols)}
    rows = [row[k] for k in read]
    cut = max(_TAIL_CUT, 10.0 * gaps[-1])
    # each arm's mass sits at its shifted kinks, support edges and location;
    # starting panels widen geometrically away from these centers up to the
    # next one, so none is much wider than its distance to a center and no
    # bump of mass hides between its nodes
    centers = sorted({min(max(k - s, -cut), cut) for k in (0.0, *dist.kinks, *dist.support) if math.isfinite(k)
                      for s in gaps})
    steps = [2.0**j for j in range(math.ceil(math.log2(cut)) + 1)]
    edges = {-cut, cut, *centers}
    for lower, center, upper in zip([-cut, *centers], centers, [*centers[1:], cut]):
        below, above = center - lower, upper - center
        edges.update(center - step for step in steps if step < below)
        edges.update(center + step for step in steps if step < above)
    edges = sorted(edges)
    # a panel is [a, b] on the z-line (power 0) or in u on a tail (power -p or
    # +p).  A tail of index alpha leaves an integrand ~ u^(p (alpha - moment) - 1)
    # in u; p >= 2 / (alpha - moment) makes it vanish at u = 0, so that the
    # error of the panel next to 0 falls faster than its share.  Past p = 18,
    # cut u^-p overflows at the depth cap and much of the tail's mass lies
    # where the density underflows: no estimate bounds the error there
    p_left, p_right = (max(1.0, 2.0 / (index - moment))
                       for index in (dist.tail_index_left, dist.tail_index_right))
    if max(p_left, p_right) > 18.0:
        raise ToleranceNotMet(math.inf, budget)
    a = np.array([*edges[:-1], 0.0, 0.0])
    b = np.array([*edges[1:], 1.0, 1.0])
    power = np.array([0.0] * (len(edges) - 1) + [-p_left, p_right])
    share = np.full(len(a), budget / len(a))
    mult, cols, rows = (np.array(v, dtype=np.intp) for v in (mult, cols, rows))
    return np.array(gaps), mult, cols, rows, cut, a, b, power, share


def _component_integrals(dist, gap, budget, arms=None, moment=0, prime=False):
    """integral z^moment f(z + gap_i) prod_{j != i} F(z + gap_j) dz for each arm i.

    Returns a (len(arms), 1 + prime) array of integrals (``arms`` defaults to
    all), with ``prime`` phi_i' by parts in the second column, then each arm's
    worst summed error estimate, and the integrand evaluations and panels
    evaluated.  Each distinct gap is integrated once.  Refinement stops once
    every arm's summed |K15 - G7| is within ``budget``; until then a panel
    whose estimate exceeds its share of ``budget`` for any arm is bisected,
    each half taking half the share.  The tails z = +-cut u^-p run over u in
    (0, 1].  A tail index at or below moment raises NonIntegrable; one below
    moment + 1/9, or a depth or work cap, raises ToleranceNotMet.
    """
    gaps, mult, cols, rows, cut, a, b, power, share = _starting_panels(dist, gap, arms, moment, budget)
    values, errs = np.zeros((2, len(cols), 1 + prime))
    n_panels = 0
    for _ in range(_MAX_DEPTH):
        half = 0.5 * (b - a)[:, None]
        t = 0.5 * (a + b)[:, None] + half * _KRONROD_NODES
        p = np.abs(power)[:, None]
        tail = p != 0.0
        u = np.where(tail, t, 1.0)
        z = np.where(tail, np.sign(power)[:, None] * cut * u**-p, t)
        jac = half * np.where(tail, p * np.abs(z) / u, 1.0)  # |dz| = p cut u^(-p-1) du on a tail
        x = z[..., None] + gaps
        f = dist.pdf(x) if prime else None
        W, dW = _others_product(dist.cdf(x), mult, f)
        own = f[..., cols] if prime else dist.pdf(z[..., None] + gaps[cols])
        columns = [(z[..., None] ** moment * own if moment else own) * (W[..., cols] * jac[..., None])]
        if prime:
            columns.append(-own * (dW[..., cols] * jac[..., None]))
        g = np.stack(columns, axis=-1)
        kronrod = np.einsum("n,pndf->pdf", _KRONROD_WEIGHTS, g)
        err = np.abs(kronrod - np.einsum("n,pndf->pdf", _GAUSS_WEIGHTS, g))
        n_panels += len(a)
        bad = np.any(err > share[:, None, None], axis=(1, 2)) & np.any(errs + err.sum(axis=0) > budget)
        values += kronrod[~bad].sum(axis=0)
        errs += err[~bad].sum(axis=0)
        if not bad.any():
            return values[rows], errs.max(axis=1)[rows], n_panels * len(_KRONROD_NODES) * len(cols), n_panels
        a, b, power, share = a[bad], b[bad], power[bad], share[bad] / 2.0
        mid = 0.5 * (a + b)
        a, b, power, share = np.r_[a, mid], np.r_[mid, b], np.r_[power, power], np.r_[share, share]
        if len(a) * len(gaps) > _MAX_WORK:
            break
    raise ToleranceNotMet(float((errs + err[bad].sum(axis=0)).max()), budget)


def _loss_vector(lam, tol):
    """``lam`` as a float array, after the checks every phi evaluation shares."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise DomainError("need a loss vector of length K >= 2")
    if not np.all(np.isfinite(lam)):
        raise DomainError("loss vector must be finite")
    spread = float(lam.max()) - float(lam.min())  # a Python float overflows to inf quietly
    if spread > _MAX_SPREAD:
        raise DomainError(f"loss spread {spread:.3g} exceeds 2^40, beyond what the quadrature resolves")
    if not 0.0 < tol <= 1e-4:
        raise DomainError("tol must lie in (0, 1e-4]")
    return lam


def _phi(lam, dist, tol, with_prime, arms=None):
    """(lam, gap, integrals, errors, evaluations, panels) at a budget of tol/4.

    The one phi path: the integral columns are phi and, if asked, phi'.
    Where it reads every arm, a phi that does not sum to 1 within K times
    the error estimate, or any non-finite estimate, raises ToleranceNotMet.
    """
    lam = _loss_vector(lam, tol)
    gap = lam - lam.min()
    values, errs, n_evals, n_panels = _component_integrals(dist, gap, tol / 4.0, arms, prime=with_prime)
    if arms is None:
        miss = abs(math.fsum(values[:, 0]) - 1.0) if np.isfinite(values).all() else math.inf
        if not miss <= len(gap) * (float(errs.max()) + _ROUNDING):
            raise ToleranceNotMet(miss / len(gap), tol)  # some component is off by at least miss / K
    return lam, gap, values, errs, n_evals, n_panels


def phi_quadrature(lam, dist: PerturbationDistribution, tol: float = 1e-8) -> SelectionProbe:
    """Selection probabilities and own-loss derivatives for every arm.

    Raises ToleranceNotMet when the kernel cannot bring the error estimate
    of every component within ``tol``, or when phi misses 1 by more than K
    times that estimate.
    """
    lam, gap, values, errs, n_evals, n_panels = _phi(lam, dist, tol, with_prime=True)
    return SelectionProbe(
        lam=lam,
        lambda_gap=gap,
        rank=np.argsort(np.argsort(lam, kind="stable")) + 1,  # ties broken by index
        phi=values[:, 0].copy(),
        phi_prime=values[:, 1].copy(),
        quad_error=float(errs.max()),
        n_evals=n_evals,
        n_panels=n_panels,
    )


def phi_values(lam, dist, tol: float = 1e-9):
    """Selection probabilities only (no derivatives): the cheap evaluation path.

    Raises ToleranceNotMet when the kernel cannot meet ``tol``, or when phi
    misses 1 by more than K times its error estimate.
    """
    return _phi(lam, dist, tol, with_prime=False)[2][:, 0].copy()


def counterexample_scan(dist, K, c_grid):
    """``phi_quadrature`` at lambda = (0, c, ..., c) for each c of a grid, one probe per c.

    For K >= 3 the grid must start at 2*sqrt(K) (the regime where the
    linear-growth lower bound applies); K = 2 may scan from 0.
    """
    if K < 2:
        raise DomainError("need K >= 2")
    c_grid = np.asarray(list(c_grid), dtype=float)
    if K >= 3 and np.any(c_grid < 2.0 * math.sqrt(K) - 1e-12):
        raise DomainError(f"for K >= 3 the grid must start at 2 sqrt(K) = {2*math.sqrt(K):.4f}")
    return [phi_quadrature(np.concatenate([[0.0], np.full(K - 1, c)]), dist) for c in c_grid]
