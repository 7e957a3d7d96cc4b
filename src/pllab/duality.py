"""Numerical bridge between perturbed-leader and regularized-leader policies.

The potential of a perturbation law is the expected perturbed maximum
reward; its gradient is the arm-selection probability vector, and its
Legendre transform is the regularizer that makes the two policy families
coincide.  This module evaluates all three numerically, plus the two-arm
quantile representation of the regularizer derivative, the three-arm scan
of that derivative, the closed-form quantile of the perturbation difference
that induces the beta-Tsallis policy, and the characteristic-function /
inverse-FFT pipeline used to identify the law behind the 1/2-Tsallis
regularizer (a real cosine transform over half the quantile's range, its
nodes placed in closed form, with the Tsallis tail near p = 0 integrated
exactly).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import selection
from ._scipy import brentq
from .errors import (
    DomainError,
    GridError,
    RootFindFailed,
    SupportError,
)

__all__ = [
    "DualityProbe",
    "IftResult",
    "potential",
    "duality_probe",
    "regularizer_value",
    "two_arm_quantile",
    "tsallis_quantile",
    "char_fn_grid",
    "ift_frequencies",
    "ift_density",
    "tsallis_ift_pipeline",
    "normal_ift_pipeline",
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
    ``selection.phi_quadrature`` (K >= 2 finite entries, tol in (0, 1e-4]);
    a tail index of 1 or less, where the mean does not exist, raises
    NonIntegrable.
    """
    nu = selection._loss_vector(nu, tol)
    mu = float(nu.max())
    # at the loss-form gaps mu - nu, each arm's error within tol/(2K), so their
    # sum within tol; the constant shift integrates against sum_i phi_i = 1
    return mu + float(selection._component_integrals(dist, mu - nu, tol / (2.0 * len(nu)), moment=1)[0].sum())


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


def duality_probe(nu, dist) -> DualityProbe:
    """Check d(potential)/d(nu_i) = phi_i by central finite differences.

    The differences take steps h = 1e-4 of potentials evaluated at tol 1e-11.
    """
    h, tol = 1e-4, 1e-11
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


def regularizer_value(p, dist):
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
    from scipy.optimize import root

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
    value = float(np.dot(p, nu)) - potential(nu, dist)
    return value, nu


def _phi_1_root(lam_of_c, x, dist, lo):
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
    -(p^-0.5 - (1-p)^-0.5).  It is evaluated as
    -coef (1-p)^(beta-1) expm1((beta-1)(log p - log1p(-p))): near beta = 1
    the two powers both lie near 1, and their difference would lose digits.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError("p must lie in (0, 1)")
    coef = beta / (1.0 - beta)
    out = -coef * (1.0 - p_arr) ** (beta - 1.0) * np.expm1((beta - 1.0) * (np.log(p_arr) - np.log1p(-p_arr)))
    if np.isscalar(p) or p_arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# characteristic function and inverse-FFT pipeline
# ---------------------------------------------------------------------------

def ift_frequencies(x_min: float, x_max: float, n: int):
    """Half-integer frequency grid w_k = (0.5 - n/2 + k) 2 pi / (x_max - x_min)."""
    k = np.arange(n)
    return (0.5 - n / 2 + k) * (2.0 * math.pi / (x_max - x_min))


def _panels(lo, hi, width, graded=()):
    """Nodes and weights of 24-point Gauss-Legendre panels: between the ``graded`` edges below lo, then on [lo, hi].

    The panels on [lo, hi] are equal and at most ``width`` wide, 24 to 150,000 of them.
    """
    n_panels = int(min(150_000, max(24, math.ceil((hi - lo) / width))))
    edges = np.concatenate([graded, np.linspace(lo, hi, n_panels + 1)])
    x_gl, w_gl = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)
    return ((edges[:-1] + half)[:, None] + half[:, None] * x_gl).ravel(), (half[:, None] * w_gl).ravel()


# char_fn_grid writes the frequency index as k = k1 + _BLOCK k2 and sums the
# quadrature nodes _CHUNK at a time, so each table stays at 2 MB for n = 2048
_BLOCK = 32
_CHUNK = 4096


def char_fn_grid(x_min: float, x_max: float, n: int, c_nodes, wts):
    """sum_j wts_j cos(t c_j) on the upper half IFT grid.

    With the caller's nodes and weights this is a quadrature of
    gbar(t) = 2 integral_0^{1/2} cos(t c(p)) dp, the real characteristic
    function of r2 - r1 when c(1 - p) = -c(p), as for any difference of i.i.d.
    perturbations.  The pipelines place them in closed form: in s = p^(beta-1)
    for the Tsallis head (``_tsallis_nodes``), in c for the normal law.

    The frequencies are ts = ift_frequencies(x_min, x_max, n)[n // 2:], the
    positive half of the grid ``ift_density`` inverts (one point for n = 2).
    The grid is arithmetic, ts[k] = ts[0] + k dt, so with step = exp(i dt c)
    each phase factor is exp(i ts[0] c) step^k.  Writing k = k1 + 32 k2, the
    m = n/2 sums over the nodes become one matrix product per chunk of at
    most 4096 nodes: A[k1] = step^k1 (k1 < 32) and
    B[k2] = exp(i ts[0] c) w (step^32)^k2, both built by repeated
    multiplication, and out[k2, k1] += B @ A.T.  The output is trimmed to m
    frequencies; for m < 32 the single block is m wide.  The tables hold at
    most 4096 (32 + m/32) complex values, whatever the number of nodes.
    """
    ts = ift_frequencies(x_min, x_max, n)[n // 2:]
    m = len(ts)
    dt = ts[1] - ts[0] if m > 1 else 0.0
    width = min(_BLOCK, m)
    n_blocks = -(-m // width)
    out = np.zeros((n_blocks, width), dtype=complex)
    a_table = np.empty((width, _CHUNK), dtype=complex)
    b_table = np.empty((n_blocks, _CHUNK), dtype=complex)
    for start in range(0, len(c_nodes), _CHUNK):
        c = c_nodes[start:start + _CHUNK]
        a, b = a_table[:, :len(c)], b_table[:, :len(c)]
        step = np.exp(1j * dt * c)
        a[0] = 1.0
        for k1 in range(1, width):
            np.multiply(a[k1 - 1], step, out=a[k1])
        np.multiply(a[-1], step, out=step)  # step^width
        np.multiply(np.exp(1j * ts[0] * c), wts[start:start + _CHUNK], out=b[0])
        for k2 in range(1, n_blocks):
            np.multiply(b[k2 - 1], step, out=b[k2])
        out += b @ a.T
    return out.ravel()[:m].real


@dataclass(frozen=True)
class IftResult:
    """Output of the discrete characteristic-function inversion.

    The pdf is the real part of the inversion and imag_residual its
    imaginary part, which must be at machine level: the mirrored input is
    conjugate-symmetric.
    """

    x_grid: np.ndarray
    pdf: np.ndarray
    imag_residual: np.ndarray
    cdf: np.ndarray

    @property
    def dx(self):
        return float(self.x_grid[1] - self.x_grid[0])


def _check_grid(x_min, x_max, n):
    # the pipelines mirror the upper n // 2 frequencies into n samples, so n >= 2
    if n < 2 or n & (n - 1) != 0:
        raise GridError(f"n must be a power of two of at least 2, got {n}")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise GridError(f"the x range [{x_min}, {x_max}] must be finite")
    if not x_max > x_min:
        raise GridError("x_max must exceed x_min")


def ift_density(gbar, x_min: float, x_max: float, n: int) -> IftResult:
    """Density of one perturbation r, by inverting sqrt(gbar) on the half-integer frequency grid.

    ``gbar`` is the real characteristic function of r2 - r1 on the upper
    half grid, ``ift_frequencies(x_min, x_max, n)[n // 2:]``.  For i.i.d.
    perturbations gbar = |phi_r|^2 >= 0, so a negative value is rounding
    residue and is projected to 0 before the square root, which is mirrored
    onto the lower half.  The inversion pre/post-modulates an FFT so that
    entry k approximates the density at x_min + k dx.
    """
    _check_grid(x_min, x_max, n)
    if len(gbar) != n // 2:
        raise GridError(f"expected {n // 2} samples, got {len(gbar)}")
    root_upper = np.sqrt(np.maximum(gbar, 0.0))
    k = np.arange(n)
    dx = (x_max - x_min) / n
    pre = np.exp(1j * math.pi * (-2.0 * (x_min / (x_max - x_min))) * k)
    post = np.exp(1j * math.pi * (1.0 - 1.0 / n) * (x_min / dx + k)) / (x_max - x_min)
    vals = post * np.fft.fft(pre * np.concatenate([root_upper[::-1], root_upper]))
    pdf = vals.real
    cdf = np.cumsum(pdf) * dx
    return IftResult(
        x_grid=x_min + dx * k,
        pdf=pdf,
        imag_residual=vals.imag,
        cdf=cdf,
    )


def _tsallis_nodes(beta, t_max, S):
    """Nodes c and weights of the head 2 integral_{max(eps, 1e-20)}^{1/2} cos(t c(p)) dp, eps = S^(-1/(1-beta)).

    With a = 1/(1-beta) and s = p^(beta-1), p = s^-a and dp = -a s^(-a-1) ds,
    so the head is 2 integral_{s0}^{s1} a s^(-a-1) cos(t c(s^-a)) ds with
    s0 = 2^(1-beta) and s1 = min(S, 1e20^(1-beta)); ``_tsallis_tail`` carries
    it on from S.  c falls like -coef s (coef = beta/(1-beta)), so equal
    panels in s turn the phase evenly, but c has a branch point at s = 1
    (p = 1): no panel is wider than 8 (s - 1) at its left edge s, and edges
    1 + (s0 - 1) 9^k grade up to s_u, where the equal panels take over.
    Below p = 1e-20 (beta above about 0.92) the head would pay for |c(eps)|,
    about coef S, in panels that weigh less than rounding.
    """
    a, coef = 1.0 / (1.0 - beta), beta / (1.0 - beta)
    s0, s1 = 2.0 ** (1.0 - beta), min(S, 1e20 ** (1.0 - beta))
    width = 6.0 / (t_max * coef)  # about 6 radians of phase at t_max
    s_u = min(max(s0, 1.0 + width / 8.0), s1)
    graded = 1.0 + (s0 - 1.0) * 9.0 ** np.arange(math.ceil(math.log((s_u - 1.0) / (s0 - 1.0), 9.0)))
    s, w = _panels(s_u, s1, width, graded)
    w *= (2.0 * a) * s ** (-a - 1.0)
    return tsallis_quantile(np.power(s, -a, out=s), beta), w  # p = s^-a, in place


def _tsallis_tail(beta, ts, S):
    """T(t) = 2 integral_0^eps cos(t c(p)) dp of ``tsallis_quantile`` at eps = S^(-1/(1-beta)), for t > 0.

    With a = 1/(1-beta), coef = beta/(1-beta) and s = p^(beta-1) = p^(-1/a),
    T = 2 Re integral_S^inf a s^(-a-1) exp(i t c(s)) ds, where
    c(s) = -coef (s - (1 - s^-a)^(beta-1)) is analytic for Re s >= S > 1 and
    |exp(i t c)| = exp(t coef Im s).  So the path turns down to s = S - i y
    (numerical steepest descent, Huybrechs & Vandewalle, SIAM J. Numer.
    Anal. 44(3), 2006): exp(-t coef y) is the Gauss-Laguerre weight in
    x = t coef y, and for t coef S >= 4 the rest is smooth enough that 40
    nodes reach rounding.
    """
    coef, a = beta / (1.0 - beta), 1.0 / (1.0 - beta)
    x, w = np.polynomial.laguerre.laggauss(40)
    tc = (ts * coef)[:, None]
    log_s = np.log(S - 1j * x / tc)
    # i t c(s) + x on the path, the Laguerre weight taken out
    phase = 1j * tc * (np.exp((beta - 1.0) * np.log(1.0 - np.exp(-a * log_s))) - S)
    # ds = -i dx / (t coef), and 2 Re(-i z) = 2 Im z
    return 2.0 * a * (np.exp(phase - (a + 1.0) * log_s) @ w).imag / (ts * coef)


def _tsallis_gbar(beta, x_min, x_max, n, S):
    """gbar(t) = 2 integral_0^{1/2} cos(t c(p)) dp of ``tsallis_quantile`` on the upper half grid.

    One integral in s = p^(beta-1), split at S: Gauss-Legendre panels from
    2^(1-beta) up to S (``_tsallis_nodes``) and the steepest-descent path
    beyond (``_tsallis_tail``), so the sum does not depend on S.
    """
    ts = ift_frequencies(x_min, x_max, n)[n // 2:]
    c, w = _tsallis_nodes(beta, ts[-1], S)
    return char_fn_grid(x_min, x_max, n, c, w) + _tsallis_tail(beta, ts, S)


def _tail_start(beta, x_min, x_max):
    """S = max(32, 4 / (coef t_min)), so t coef S >= 4 down to t_min = pi / (x_max - x_min).

    The floor serves beta near 1, where s^(-a-1) turns faster along the path.
    """
    return max(32.0, 4.0 * (x_max - x_min) * (1.0 - beta) / (math.pi * beta))


def tsallis_ift_pipeline(beta=0.5, x_min=-20.0, x_max=20.0, n=2048) -> IftResult:
    """Density of one perturbation r of the i.i.d. pair whose difference induces the beta-Tsallis policy.

    gbar has no truncation (``_tsallis_gbar``), its split worked out from
    beta and the grid.  Both are checked before any quadrature.
    """
    _check_grid(x_min, x_max, n)
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    gbar = _tsallis_gbar(beta, x_min, x_max, n, _tail_start(beta, x_min, x_max))
    return ift_density(gbar, x_min, x_max, n)


def _normal_nodes(t_max):
    """Nodes c and weights of N(0, 1)'s gbar = 2 integral_{-8.3}^0 cos(t c) phi(c) dc, dp = phi(c) dc."""
    c, w = _panels(-8.3, 0.0, 6.0 / t_max)  # 6 radians of phase at t_max a panel
    w *= np.exp(-0.5 * c * c) * (2.0 / math.sqrt(2.0 * math.pi))
    return c, w


def normal_ift_pipeline(n=2048) -> IftResult:
    """Sanity pipeline: gbar of N(0,1), so the inversion must return N(0, 1/sqrt(2)).

    The Gaussian needs its cutoff below rounding, unlike a heavy-tailed
    law: the truncated mass leaves oscillations around zero that swamp
    exp(-t^2/4) after the square root.  The mass below c = -8.3 is 5e-17;
    x runs over [-20, 20].
    """
    x_min, x_max = -20.0, 20.0
    _check_grid(x_min, x_max, n)
    c, w = _normal_nodes(ift_frequencies(x_min, x_max, n)[-1])
    return ift_density(char_fn_grid(x_min, x_max, n, c, w), x_min, x_max, n)


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
