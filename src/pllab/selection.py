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
shifted kink and support edge, the tails mapped onto (0, 1].  It takes
many gap vectors at once.  Its set-up, ``_starting_panels``, finds each
vector's distinct gaps and lays out its panels in Python floats; the
vectors whose distinct gaps have the same multiplicities then share one
refinement loop, ``_refine``, whose passes evaluate F and f once on an
array of every panel, node and distinct gap of them all, f for just the
arms a caller reads unless phi' needs every gap (the phi_1 inversions in
``duality`` read arm 1 alone).  Each vector keeps its own panels, error
test, caps and counts, so its numbers are bit for bit those of a call on
it alone.  The tests hold the kernel to the scalar QUADPACK loop it
replaced, to a Monte-Carlo estimate of the argmin frequencies and to its
own one-vector calls, and its set-up to the numpy set-up it replaced.

``counterexample_scan`` returns one probe per c of the family (0, c, ..., c);
the ``analyze-phi`` command writes its CSV rows straight from the probes.
Both run their grids through ``_scan``; ``_phis`` under it, the one phi path,
makes one kernel call a chunk of vectors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# not called here: bench/tracing.py wraps ``selection.quad`` by name
from ._scipy import quad  # noqa: F401
from .distributions import PerturbationDistribution
from .errors import DomainError, NonIntegrable, PllabError, ToleranceNotMet

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
# loss-vector entries to a kernel call of ``_phis``: a pass's arrays grow with the
# distinct gaps of its vectors, about 30 kB each, so a chunk stays within 4 MB
_SCAN_ENTRIES = 128

# QUADPACK's 15-point Kronrod rule on [-1, 1], nodes ascending; its 7-point
# Gauss rule uses every other node
_XK = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
       0.586087235467691130, 0.405845151377397167, 0.207784955007898468)
_WK = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
       0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828)
_WG = (0.129484966168869693, 0.279705391489276668, 0.381830050505118945, 0.417959183673469388)
_KRONROD_NODES = np.r_[np.negative(_XK), 0.0, _XK[::-1]]
_WEIGHTS = np.zeros((2, 15))  # Kronrod's, then Gauss's
_WEIGHTS[0] = np.r_[_WK, _WK[-2::-1]]
_WEIGHTS[1, 1::2] = np.r_[_WG, _WG[-2::-1]]


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

    @functools.cached_property
    def ratio_1(self):
        with np.errstate(all="ignore"):
            return -self.phi_prime / self.phi

    @property
    def ratio_32(self):
        # phi^1.5 underflows while phi does not: there divide by phi and sqrt(phi) in turn
        ratio_1 = self.ratio_1
        with np.errstate(all="ignore"):
            power = self.phi**1.5
            return np.where(power < _TINY, ratio_1 / np.sqrt(self.phi), -self.phi_prime / power)


def _others_product(F, mult, f=None):
    """(prod_{j != i} F(z + gap_j), its z-derivative) for one arm i of each distinct gap, along the last axis.

    ``F`` and ``f`` hold the CDF and density at the distinct gaps, ``mult``
    their multiplicities m as the exponents (m, m - 1, max(m - 2, 0)), or
    None where every m is 1; without ``f`` the derivative is None.  The
    prefix and suffix products, with the product rule's derivatives carried
    along, need no division, and underflow to 0 is exact.
    """
    if mult is None:  # F^1 is F, F^0 is 1 and 1 f is f, exactly: no power to raise
        Q, own, dQ = F, None, f
    else:
        m, m1, m2 = mult
        Q, own = F**m, F**m1
        dQ = None if f is None else m * f * own
    below, above = np.ones((2, *F.shape))  # the products over the gaps below and above each one
    d_below, d_above = np.zeros((2, *F.shape))
    for k in range(1, F.shape[-1]):
        below[..., k] = below[..., k - 1] * Q[..., k - 1]
        above[..., -k - 1] = above[..., -k] * Q[..., -k]
        if f is not None:
            d_below[..., k] = d_below[..., k - 1] * Q[..., k - 1] + below[..., k - 1] * dQ[..., k - 1]
            d_above[..., -k - 1] = d_above[..., -k] * Q[..., -k] + above[..., -k] * dQ[..., -k]
    W = below * above if own is None else below * above * own
    if f is None:
        return W, None
    # a tied arm's own factor F^(m-1) has derivative (m-1) f F^(m-2): 0 f at m = 1,
    # which keeps a non-finite f non-finite
    if own is None:
        return W, d_below * above + below * d_above + W * (0.0 * f)
    return W, (d_below * above + below * d_above) * own + below * above * (m1 * f * F**m2)


def _starting_panels(dist, gap, arms, moment, budget):
    """The kernel's set-up: distinct gaps and starting panels for ``_component_integrals``.

    Returns (gaps, mult, cols, rows, cut, a, b, power, share): the sorted
    distinct gaps and their multiplicities, the distinct-gap columns of the
    read arms and each read arm's row among them, the tail cut, and the
    starting panels with their shares of ``budget``, each a list.  The panel
    layout is a few dozen edges, so it is built in Python floats, and
    ``_refine`` converts the lists of every vector it integrates at once.
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
    a = [*edges[:-1], 0.0, 0.0]
    b = [*edges[1:], 1.0, 1.0]
    power = [0.0] * (len(edges) - 1) + [-p_left, p_right]
    share = [budget / len(a)] * len(a)
    return gaps, mult, cols, rows, cut, a, b, power, share


def _sums(x, counts):
    """The rows of ``x``, a run of ``counts[g]`` for each vector g in turn, summed per run as numpy sums a run alone."""
    if len(counts) == 1:
        return x.sum(axis=0)[None]
    if math.prod(x.shape[1:]) == 1:  # numpy sums a single column pairwise, so each run keeps its own length
        return np.stack([run.sum(axis=0) for run in np.split(x, np.cumsum(counts[:-1]))])
    # rows of several columns numpy adds in order, so zeros padded after a run leave its sum as it was
    # (but for the sign of a zero sum, which no running total keeps)
    run = np.arange(len(counts)).repeat(counts)
    padded = np.zeros((len(counts), counts.max(), *x.shape[1:]))
    padded[run, np.arange(len(x)) - (np.cumsum(counts) - counts)[run]] = x
    return padded.sum(axis=1)


def _component_integrals(dist, gaps, budget, arms=None, moment=0, prime=False):
    """integral z^moment f(z + gap_i) prod_{j != i} F(z + gap_j) dz for each arm i of each gap vector.

    Returns one entry per entry of ``gaps``, in order: a (len(arms), 1 + prime)
    array of integrals (``arms`` defaults to all), with ``prime`` phi_i' by
    parts in the second column, then each arm's worst summed error estimate,
    and the integrand evaluations and panels evaluated; or, for a vector that
    fails, the error it raises.  An entry that is already an error passes
    through.  Each distinct gap is integrated once.  Refinement stops once
    every arm's summed |K15 - G7| is within ``budget``; until then a panel
    whose estimate exceeds its share of ``budget`` for any arm is bisected,
    each half taking half the share.  The tails z = +-cut u^-p run over u in
    (0, 1].  A tail index at or below moment raises NonIntegrable; one below
    moment + 1/9, or a depth or work cap, raises ToleranceNotMet.
    """
    out = list(gaps)
    # one loop for the vectors whose distinct gaps have the same multiplicities and
    # whose read arms sit on the same columns: each raises F to the very exponent
    # array it would alone (numpy squares a lone exponent of 2 rather than call pow)
    groups = {}
    for i, gap in enumerate(gaps):
        if isinstance(gap, PllabError):
            continue
        try:
            setup = _starting_panels(dist, gap, arms, moment, budget)
        except (NonIntegrable, ToleranceNotMet) as exc:
            out[i] = exc
        else:
            groups.setdefault((tuple(setup[1]), tuple(setup[2])), []).append((i, setup))
    for members in groups.values():
        index, setups = zip(*members)
        for i, result in zip(index, _refine(dist, setups, budget, moment, prime, arms is None)):
            out[i] = result
    return out


def _refine(dist, setups, budget, moment, prime, every_arm):
    """The adaptive loop of ``_component_integrals`` for vectors whose distinct gaps have the same multiplicities.

    The panels of every vector form one array, grouped by vector, so that each
    pass evaluates F and f once for all of them.  Each vector keeps its own
    panel order, running sums, error test, caps and counts, so its numbers
    are those of a loop on it alone.
    """
    gaps, mult, cols, rows, cut, a, b, power, share = zip(*setups)
    G, D, C = len(setups), len(gaps[0]), len(cols[0])
    counts = np.array([len(v) for v in a])  # each vector's panels in this pass
    probe = np.arange(G).repeat(counts)  # the vector of each panel
    a, b, power, share = (np.concatenate(v) for v in (a, b, power, share))
    gaps, cut = np.array(gaps), np.array(cut)
    m = np.array(mult[0])  # the multiplicities of every vector here
    mult = None if (m == 1).all() else (m, m - 1, np.maximum(m - 2, 0))
    cols = None if every_arm else np.array(cols[0])
    values, errs = np.zeros((2, G, C, 1 + prime))
    n_panels = np.zeros(G, dtype=np.intp)
    out = [None] * G
    for depth in range(_MAX_DEPTH):
        half = 0.5 * (b - a)[:, None]
        z = 0.5 * (a + b)[:, None] + half * _KRONROD_NODES
        jac = half.repeat(len(_KRONROD_NODES), axis=1)
        tails = power.nonzero()[0]
        if len(tails):  # z = +-cut u^-p, and |dz| = p cut u^(-p-1) du
            u, sign, p = z[tails], np.sign(power[tails]), np.abs(power[tails])[:, None]
            z[tails] = zt = (sign * cut[probe[tails]])[:, None] * np.power(u, -p)
            jac[tails] *= p * np.abs(zt) / u
        x = z[..., None] + gaps[probe][:, None]
        f = dist.pdf(x) if prime else None
        W, dW = _others_product(dist.cdf(x), mult, f)
        if cols is None:
            own = f if prime else dist.pdf(x)
        else:
            own = f[..., cols] if prime else dist.pdf(z[..., None] + gaps[:, cols][probe][:, None])
            W, dW = W[..., cols], (dW[..., cols] if prime else None)
        g = np.empty((*own.shape, 1 + prime))
        np.multiply(z[..., None] ** moment * own if moment else own, W * jac[..., None], out=g[..., 0])
        if prime:
            np.multiply(-own, dW * jac[..., None], out=g[..., 1])
        kronrod, gauss = np.einsum("wn,pndf->wpdf", _WEIGHTS, g)
        err = np.abs(kronrod - gauss)
        n_panels += counts
        over = (errs + _sums(err, counts) > budget).any(axis=(1, 2))
        bad = (err > share[:, None, None]).any(axis=(1, 2)) & over[probe]
        last = not bad.any()
        split = 0 if last else np.bincount(probe[bad], minlength=G)
        kept = slice(None) if last else ~bad
        values += _sums(kronrod[kept], counts - split)
        errs += _sums(err[kept], counts - split)
        if last:
            break
        # a vector whose halves would pass the work cap, or that is still refining at the depth cap, stops here
        cap = 0 if depth == _MAX_DEPTH - 1 else _MAX_WORK // (2 * D)  # the panels a vector may bisect
        if split.max() > cap:
            stop = split > cap
            worst = (errs + _sums(err[bad], split)).max(axis=(1, 2))
            for i in np.flatnonzero(stop):
                out[i] = ToleranceNotMet(float(worst[i]), budget)
            bad &= ~stop[probe]
            split[stop] = 0
        if not bad.any():
            break
        a, b, power, share, probe = a[bad], b[bad], power[bad], share[bad] / 2.0, probe[bad]
        mid = 0.5 * (a + b)
        # each vector's lefts, then its rights
        order = np.argsort(np.concatenate([probe, probe]), kind="stable") if G > 1 else slice(None)
        a, b, power, share, probe = (np.concatenate(pair)[order] for pair in
                                     ((a, mid), (mid, b), (power, power), (share, share), (probe, probe)))
        counts = 2 * split
    vector = np.arange(G)[:, None]
    values, errs, n_panels = values[vector, rows], errs.max(axis=2)[vector, rows], n_panels.tolist()
    return [out[i] if out[i] is not None else (values[i], errs[i], n_panels[i] * len(_KRONROD_NODES) * C, n_panels[i])
            for i in range(G)]


def _loss_vector(lam, tol):
    """``lam`` as a float array, after the checks every phi evaluation shares."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise DomainError("need a loss vector of length K >= 2")
    if not np.isfinite(lam).all():
        raise DomainError("loss vector must be finite")
    spread = float(lam.max()) - float(lam.min())  # a Python float overflows to inf quietly
    if spread > _MAX_SPREAD:
        raise DomainError(f"loss spread {spread:.3g} exceeds 2^40, beyond what the quadrature resolves")
    if not 0.0 < tol <= 1e-4:
        raise DomainError("tol must lie in (0, 1e-4]")
    return lam


def _checked(vectors, tol):
    """Each vector through ``_loss_vector``, or the DomainError it raises there."""
    out = []
    for v in vectors:
        try:
            out.append(_loss_vector(v, tol))
        except DomainError as exc:
            out.append(exc)
    return out


def _chunks(vectors):
    """``vectors`` read lazily in lists of ``_SCAN_ENTRIES`` entries, each sized by its first vector: one kernel call each."""
    vectors = iter(vectors)
    for first in vectors:
        yield [first, *itertools.islice(vectors, max(_SCAN_ENTRIES // max(np.size(first), 1), 1) - 1)]


def _phis(lams, dist, tol, with_prime, arms=None):
    """Per loss vector, (lam, gap, integrals, errors, evaluations, panels) at a budget of tol/4, or the error it raises.

    The one phi path: it yields the results in order, one kernel call a
    chunk of ``lams`` (``_chunks``).  The integral columns are phi and, if
    asked, phi'.  Where it reads every arm, a phi that does not sum to 1
    within K times the error estimate, or any non-finite estimate, raises
    ToleranceNotMet.
    """
    for chunk in _chunks(lams):
        chunk = _checked(chunk, tol)
        gaps = [lam if isinstance(lam, DomainError) else lam - lam.min() for lam in chunk]
        for lam, gap, result in zip(chunk, gaps, _component_integrals(dist, gaps, tol / 4.0, arms, prime=with_prime)):
            if not isinstance(result, PllabError) and arms is None:
                values, errs = result[:2]
                miss = abs(math.fsum(values[:, 0]) - 1.0) if np.isfinite(values).all() else math.inf
                if not miss <= len(gap) * (float(errs.max()) + _ROUNDING):
                    result = ToleranceNotMet(miss / len(gap), tol)  # some component is off by at least miss / K
            yield result if isinstance(result, PllabError) else (lam, gap, *result)


def _phi(lam, dist, tol, with_prime, arms=None):
    """``_phis`` of one loss vector: its tuple, or the error raised."""
    (result,) = _phis([lam], dist, tol, with_prime, arms)
    if isinstance(result, PllabError):
        raise result
    return result


def _scan(lams, dist, tol):
    """``phi_quadrature`` at each loss vector in turn, through ``_phis``.

    Yields the probes in order and raises the first vector's error there.
    """
    for result in _phis(lams, dist, tol, with_prime=True):
        if isinstance(result, PllabError):
            raise result
        lam, gap, values, errs, n_evals, n_panels = result
        yield SelectionProbe(
            lam=lam,
            lambda_gap=gap,
            rank=np.argsort(np.argsort(lam, kind="stable")) + 1,  # ties broken by index
            phi=values[:, 0].copy(),
            phi_prime=values[:, 1].copy(),
            quad_error=float(errs.max()),
            n_evals=n_evals,
            n_panels=n_panels,
        )


def phi_quadrature(lam, dist: PerturbationDistribution, tol: float = 1e-8) -> SelectionProbe:
    """Selection probabilities and own-loss derivatives for every arm.

    Raises ToleranceNotMet when the kernel cannot bring the error estimate
    of every component within ``tol``, or when phi misses 1 by more than K
    times that estimate.
    """
    (probe,) = _scan([lam], dist, tol)
    return probe


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
    return list(_scan((np.concatenate([[0.0], np.full(K - 1, c)]) for c in c_grid), dist, 1e-8))
