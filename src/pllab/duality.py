"""Numerical bridge between perturbed-leader and regularized-leader policies.

The potential of a perturbation law is the expected perturbed maximum
reward; its gradient is the arm-selection probability vector, and its
Legendre transform is the regularizer that makes the two policy families
coincide.  This module evaluates all three numerically, plus the two-arm
quantile representation of the regularizer derivative and the
characteristic-function / inverse-FFT pipeline used to identify the law
behind the 1/2-Tsallis regularizer.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, root
from scipy.special import ndtri

from . import selection
from .errors import (
    DomainError,
    GridError,
    NonIntegrable,
    RootFindFailed,
    SupportError,
    ToleranceNotMet,
)

__all__ = [
    "DualityProbe",
    "IftResult",
    "potential",
    "duality_probe",
    "regularizer_value",
    "two_arm_quantile",
    "tsallis_quantile",
    "tsallis_von_mises_ratio",
    "char_fn",
    "char_fn_grid",
    "ift_frequencies",
    "ift_density",
    "ift_pipeline",
    "tsallis_ift_pipeline",
    "normal_ift_pipeline",
    "normal_quantile",
    "correlated_tsallis_sampler",
    "three_arm_regularizer_scan",
]

_FULL_LINE = (-math.inf, math.inf)


# ---------------------------------------------------------------------------
# potential function and its Legendre transform
# ---------------------------------------------------------------------------

def potential(nu, dist, tol: float = 1e-9) -> float:
    """Expected perturbed maximum  E[max_i (nu_i + r_i)]  by quadrature.

    Computed as sum_i integral z f(z - nu_i) prod_{j != i} F(z - nu_j) dz
    after shifting by max(nu) for conditioning.  Takes the checks of
    ``selection.phi_quadrature`` (K >= 2 finite entries, tol in (0, 1e-4])
    and requires both tail indices above 1 so the mean exists.
    """
    nu = selection._loss_vector(nu, tol)
    if min(dist.tail_index_left, dist.tail_index_right) <= 1.0:
        raise NonIntegrable("potential needs tail indices > 1 (finite mean)")
    mu = float(nu.max())
    gap = mu - nu  # loss-form gaps, min entry 0
    values, errs = selection._component_integrals(
        dist, gap, (lambda z, s: z * float(dist.pdf(z + s)),), tol / (2.0 * len(nu))
    )
    # the constant shift integrates against sum_i phi_i = 1; the arm integrals
    # are added one after another (np.sum pairs them and moves the last bits)
    total = functools.reduce(operator.add, values[:, 0], mu)
    err_total = float(errs.sum())
    if err_total > tol:
        raise ToleranceNotMet(err_total, tol)
    return float(total)


@dataclass(frozen=True)
class DualityProbe:
    """One potential evaluation with its gradient cross-check.

    ``grad_check`` is the max deviation between the finite-difference
    gradient of the potential and the quadrature selection probabilities.
    """

    nu: np.ndarray
    phi: np.ndarray
    potential_value: float
    grad_check: float


def duality_probe(nu, dist, h: float = 1e-4, tol: float = 1e-11) -> DualityProbe:
    """Check d(potential)/d(nu_i) = phi_i by central finite differences."""
    nu = np.asarray(nu, dtype=float)
    nu = nu - nu[-1]  # location normalization, last coordinate 0
    phi = selection.phi_values(-nu, dist, tol=1e-9)
    base = potential(nu, dist, tol)
    worst = 0.0
    for i in range(len(nu)):
        e = np.zeros_like(nu)
        e[i] = h
        fd = (potential(nu + e, dist, tol) - potential(nu - e, dist, tol)) / (2.0 * h)
        worst = max(worst, abs(fd - phi[i]))
    return DualityProbe(nu=nu, phi=phi, potential_value=base, grad_check=worst)


def regularizer_value(p, dist, tol: float = 1e-9):
    """Legendre-transform regularizer V(p) = <p, nu> - potential(nu).

    Solves phi(nu) = p for the unique reward vector with nu_K = 0 (the
    selection map is a bijection onto the open simplex for laws fully
    supported on the reals), then evaluates the conjugate.  Returns (V, nu).
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise DomainError("p must be a strictly interior simplex point")
    if dist.support != _FULL_LINE:
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
    value = float(np.dot(p, nu)) - potential(nu, dist, tol)
    return value, nu


def _phi_1_root(lam_of_c, x, dist, lo):
    """The c with phi_1(lam_of_c(c)) = x, for a loss family along which phi_1 increases.

    Integrates arm 1 only.  The bracket [lo, 4] doubles until g = phi_1 - x
    changes sign on it (lo = 0 stays fixed), unless an end already has
    |g| <= 1e-9; a final |g| above 1e-9 raises RootFindFailed.
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
            raise RootFindFailed(hi, "phi_1 inversion bracket expansion")
    c = brentq(g, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    if abs(g(c)) > 1e-9:
        raise RootFindFailed(abs(g(c)), "phi_1 inversion")
    return float(c)


def two_arm_quantile(x, dist) -> float:
    """The reward offset c with Pr[c + r1 >= r2] = x for i.i.d. perturbations.

    This is the quantile of r2 - r1 at level x, i.e. the derivative of the
    two-arm restriction of the induced regularizer: phi_1 of (-c, 0) inverted.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0, 1)")
    return _phi_1_root(lambda c: [-c, 0.0], x, dist, -4.0)


# ---------------------------------------------------------------------------
# the Tsallis difference law
# ---------------------------------------------------------------------------

def tsallis_quantile(p, beta: float = 0.5):
    """Quantile of the perturbation difference inducing the beta-Tsallis policy:

        c(p) = -(beta/(1-beta)) (p^(beta-1) - (1-p)^(beta-1)).

    Antisymmetric about p = 1/2; for beta = 1/2 this is
    -(p^-0.5 - (1-p)^-0.5).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError("p must lie in (0, 1)")
    coef = beta / (1.0 - beta)
    out = -coef * (p_arr ** (beta - 1.0) - (1.0 - p_arr) ** (beta - 1.0))
    if np.isscalar(p) or p_arr.ndim == 0:
        return float(out)
    return out


def tsallis_von_mises_ratio(x, beta: float = 0.5):
    """z fbar(z)/(1 - Fbar(z)) at z = c(x), from the quantile representation.

    Tends to 1/(1-beta) as x -> 1, certifying a polynomial tail of that index.
    """
    c = tsallis_quantile(x, beta)
    c_prime = beta * (np.asarray(x, float) ** (beta - 2.0) + (1.0 - np.asarray(x, float)) ** (beta - 2.0))
    return c / ((1.0 - np.asarray(x, float)) * c_prime)


def correlated_tsallis_sampler(beta, rng, size=None):
    """Dependent perturbation pair whose difference follows the Tsallis law.

    Draws U uniform, sets xi = tsallis_quantile(U, beta) and returns
    (-max(xi, 0), -max(-xi, 0)); then r2 - r1 = xi exactly, so the empirical
    quantile of the difference reproduces ``tsallis_quantile``.  The common
    additive constant of the construction is dropped (argmin-invariant).
    """
    u = rng.random(size) if size is not None else rng.random()
    u = np.where(np.asarray(u) == 0.0, 0.5 / 2.0**53, u)
    xi = tsallis_quantile(u, beta)
    r1 = -np.maximum(xi, 0.0)
    r2 = -np.maximum(-np.asarray(xi), 0.0)
    if size is None:
        return float(r1), float(r2)
    return r1, r2


# ---------------------------------------------------------------------------
# characteristic function and inverse-FFT pipeline
# ---------------------------------------------------------------------------

def char_fn(t, quantile, eps: float = 1e-4, tol: float = 1e-8) -> complex:
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


def _invert_monotone(fn, targets, lo, hi, iters=90):
    """Vectorized bisection inverse of an increasing function on [lo, hi]."""
    a = np.full_like(targets, lo, dtype=float)
    b = np.full_like(targets, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = fn(mid) < targets
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def char_fn_grid(ts, quantile, eps: float = 1e-4):
    """gbar on a whole frequency grid via composite Gauss-Legendre panels.

    Panels of 24 nodes are uniform in c-space (so oscillations of
    exp(i t c) are equally resolved everywhere: at most 6 radians per panel
    at the largest requested |t|), which makes them adaptively thin where
    the quantile is steep.  For an arithmetic grid the phase factors advance
    by a constant complex multiplier per frequency, reducing the whole
    evaluation to one vector recursion.
    """
    if not 0.0 < eps <= 1e-3:
        raise DomainError("eps must lie in (0, 1e-3]")
    ts = np.asarray(ts, dtype=float)
    t_max = float(np.max(np.abs(ts))) if len(ts) else 0.0
    c_lo = float(quantile(np.asarray(eps)))
    c_hi = float(quantile(np.asarray(1.0 - eps)))
    n_panels = int(min(300_000, max(48, math.ceil(t_max * (c_hi - c_lo) / 6.0))))

    c_edges = np.linspace(c_lo, c_hi, n_panels + 1)
    p_edges = _invert_monotone(quantile, c_edges, eps, 1.0 - eps)
    p_edges[0], p_edges[-1] = eps, 1.0 - eps

    x_gl, w_gl = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (p_edges[1:] - p_edges[:-1])
    mid = 0.5 * (p_edges[1:] + p_edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x_gl[None, :]).ravel()
    wts = (half[:, None] * w_gl[None, :]).ravel()
    c_nodes = np.asarray(quantile(nodes), dtype=float)

    diffs = np.diff(ts)
    if len(ts) > 1 and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0):
        # arithmetic grid: exp(i t_k c) = exp(i t_0 c) * step^k
        out = np.empty(len(ts), dtype=complex)
        z = np.exp(1j * ts[0] * c_nodes)
        step = np.exp(1j * diffs[0] * c_nodes)
        for k in range(len(ts)):
            out[k] = z @ wts
            z *= step
        return out
    out = np.empty(len(ts), dtype=complex)
    for k, t in enumerate(ts):
        out[k] = np.exp(1j * t * c_nodes) @ wts
    return out


@dataclass(frozen=True)
class IftResult:
    """Output of the discrete characteristic-function inversion.

    ``gbar`` holds the (conjugate-extended) frequency samples that were
    inverted; the pdf is the real part of the inversion and imag_residual
    its imaginary part, which must be at machine level for conjugate-
    symmetric input.
    """

    x_grid: np.ndarray
    gbar: np.ndarray
    pdf: np.ndarray
    imag_residual: np.ndarray
    cdf: np.ndarray

    @property
    def dx(self):
        return float(self.x_grid[1] - self.x_grid[0])


def ift_frequencies(x_min: float, x_max: float, n: int):
    """Half-integer frequency grid w_k = (0.5 - n/2 + k) 2 pi / (x_max - x_min)."""
    k = np.arange(n)
    return (0.5 - n / 2 + k) * (2.0 * math.pi / (x_max - x_min))


def ift_density(char_samples, x_min: float = -20.0, x_max: float = 20.0, n: int = 2048) -> IftResult:
    """Discrete inverse Fourier transform on the half-integer frequency grid.

    ``char_samples`` must hold the n frequency samples (conjugate-symmetric
    extension included) matching ``ift_frequencies(x_min, x_max, n)``.  The
    inversion pre/post-modulates an FFT so that entry k approximates the
    density at x_min + k dx.
    """
    cf = np.asarray(char_samples, dtype=complex)
    if n & (n - 1) != 0 or n <= 0:
        raise GridError(f"n must be a power of two, got {n}")
    if len(cf) != n:
        raise GridError(f"expected {n} samples, got {len(cf)}")
    if not x_max > x_min:
        raise GridError("x_max must exceed x_min")
    k = np.arange(n)
    dx = (x_max - x_min) / n
    pre = np.exp(1j * math.pi * (-2.0 * (x_min / (x_max - x_min))) * k)
    post = np.exp(1j * math.pi * (1.0 - 1.0 / n) * (x_min / dx + k)) / (x_max - x_min)
    vals = post * np.fft.fft(pre * cf)
    pdf = vals.real
    cdf = np.cumsum(pdf) * dx
    return IftResult(
        x_grid=x_min + dx * k,
        gbar=cf,
        pdf=pdf,
        imag_residual=vals.imag,
        cdf=cdf,
    )


def ift_pipeline(quantile, x_min=-20.0, x_max=20.0, n=2048, eps=1e-4) -> IftResult:
    """Evaluate sqrt(gbar) on the upper half grid, mirror, and invert.

    The square root takes the principal branch; a warning is emitted if the
    real part of gbar ever goes negative (possible phase wrap for laws whose
    difference is not symmetric).
    """
    w = ift_frequencies(x_min, x_max, n)
    upper = w[n // 2:]
    gbar_upper = char_fn_grid(upper, quantile, eps=eps)
    # endpoint truncation leaves O(eps)-level oscillation around zero at large
    # frequencies; only a materially negative real part signals a branch cut
    if np.any(gbar_upper.real < -1e-4 * np.max(np.abs(gbar_upper))):
        warnings.warn("gbar has negative real part: principal square root may cross a branch cut")
    root_upper = np.sqrt(gbar_upper)
    cf = np.concatenate([np.conj(root_upper[::-1]), root_upper])
    return ift_density(cf, x_min, x_max, n)


def tsallis_ift_pipeline(beta=0.5, x_min=-20.0, x_max=20.0, n=2048, eps=1e-4) -> IftResult:
    return ift_pipeline(lambda p: tsallis_quantile(p, beta), x_min, x_max, n, eps)


def normal_quantile(p):
    """Standard normal quantile sqrt(2) erfinv(2p - 1) (evaluated stably via ndtri)."""
    return ndtri(np.asarray(p, dtype=float))


def normal_ift_pipeline(x_min=-20.0, x_max=20.0, n=2048, eps=1e-9) -> IftResult:
    """Sanity pipeline: gbar of N(0,1), so the inversion must return N(0, 1/sqrt(2)).

    The Gaussian needs a far deeper endpoint cutoff than a heavy-tailed law:
    truncating the quantile integral at 1e-4 leaves tail oscillations around
    zero that swamp exp(-t^2/4) after the square root and push the recovered
    density off by ~7e-2.  eps = 1e-9 puts the truncated mass well below the
    1e-3 sanity band.
    """
    return ift_pipeline(normal_quantile, x_min, x_max, n, eps)


# ---------------------------------------------------------------------------
# three-arm regularizer scan
# ---------------------------------------------------------------------------

def three_arm_regularizer_scan(x_grid, dist):
    """Regularizer derivative c(x) at p = (x, (1-x)/2, (1-x)/2) for K = 3.

    For each x the reward offset c >= 0 solves phi_1 of the loss gaps
    (0, c, c) equal to x (c = 0 at x = 1/3).  Rows carry the square-root
    envelopes and the 1/2-Tsallis reference derivative for comparison.
    """
    if dist.support != _FULL_LINE:
        raise SupportError("scan requires a law fully supported on the reals")
    rows = []
    for x in np.asarray(x_grid, dtype=float):
        if not (1.0 / 3.0 <= x < 1.0 - 1e-4):
            raise DomainError("x grid must lie in [1/3, 1 - 1e-4)")
        c = _phi_1_root(lambda c: [0.0, c, c], x, dist, 0.0)
        rows.append(
            {
                "x": float(x),
                "c": float(c),
                "lower": 0.5 / math.sqrt(1.0 - x) - 1.0,
                "upper": 2.0 * math.sqrt(2.0) / math.sqrt(1.0 - x) - 1.0,
                "tsallis_ref": math.sqrt(2.0) / math.sqrt(1.0 - x) - 1.0 / math.sqrt(x),
            }
        )
    return rows
