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

The two-arm quantile and the three-arm scan invert phi_1 by a bracketed
Newton iteration on the phi_1' the selection kernel returns beside it
(``_phi_1_roots``); a scan's grid points iterate in lockstep, each step
one batched kernel call per chunk of the points still iterating, and each
gets the root of its one-point solve.  ``regularizer_value`` solves
phi(nu) = p by damped Newton on a forward-difference Hessian, one batched
kernel call an iterate (``_phi_inverse``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import selection

# not called here: bench/tracing.py wraps ``duality.brentq`` by name, until
# ROADMAP item 1 keys the bench on the program's own counts and deletes it
from ._scipy import brentq  # noqa: F401
from .errors import (
    DomainError,
    GridError,
    NonIntegrable,
    PllabError,
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
    return _potentials([nu], dist, tol)[0]


def _potentials(nus, dist, tol):
    """``potential`` at each of several reward vectors of one length K, one kernel call a chunk (``selection._chunks``).

    Raises what the first vector that fails raises on its own.
    """
    values = []
    for chunk in selection._chunks(nus):
        chunk = selection._checked(chunk, tol)
        gaps = [nu if isinstance(nu, PllabError) else float(nu.max()) - nu for nu in chunk]
        K = max((len(gap) for gap in gaps if not isinstance(gap, PllabError)), default=1)
        # at the loss-form gaps max(nu) - nu, each arm's error within tol/(2K), so
        # their sum within tol; the constant shift integrates against sum_i phi_i = 1
        for nu, result in zip(chunk, selection._component_integrals(dist, gaps, tol / (2.0 * K), moment=1)):
            if isinstance(result, PllabError):
                raise result
            values.append(float(nu.max()) + float(result[0].sum()))
    return values


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
    steps = np.eye(len(nu)) * h
    base, *shifted = _potentials([nu, *(v for e in steps for v in (nu + e, nu - e))], dist, tol)
    worst = 0.0
    for i in range(len(nu)):
        fd = (shifted[2 * i] - shifted[2 * i + 1]) / (2.0 * h)
        worst = max(worst, abs(fd - phi[i]))
    return DualityProbe(nu=nu, phi=phi, potential_value=base, grad_check=worst)


def regularizer_value(p, dist):
    """Legendre-transform regularizer V(p) = <p, nu> - potential(nu).

    Solves phi(nu) = p for the unique reward vector with nu_K = 0 (the
    selection map is a bijection onto the open simplex for laws fully
    supported on the reals; ``_phi_inverse``), then evaluates the conjugate.
    Returns (V, nu).  p must be a 1-D finite vector of K >= 2 positive
    entries summing to 1 within 1e-9.  A tail index of 1 or less, where the
    potential does not exist, raises NonIntegrable before the solve.
    """
    p = np.asarray(p, dtype=float)
    if not (p.ndim == 1 and len(p) >= 2 and np.isfinite(p).all() and (p > 0.0).all()
            and abs(p.sum() - 1.0) <= 1e-9):
        raise DomainError("p must be a strictly interior simplex point")
    if dist.support != _FULL_LINE:
        raise SupportError("regularizer requires a law fully supported on the reals")
    if min(dist.tail_index_left, dist.tail_index_right) <= 1.0:
        raise NonIntegrable("the integral of z^1 f needs tail indices above 1")
    nu = _phi_inverse(p, dist)
    value = float(np.dot(p, nu)) - potential(nu, dist)
    return value, nu


# steps of one Newton solve (a phi_1 inversion, or one start of _phi_inverse)
# before it gives up; the phi_1 inversions the tests and the default regscan
# make take 1 to 16, the phi(nu) = p solves the tests make 1 to 23
_NEWTON_STEPS = 100


def _phi_inverse(p, dist):
    """The nu with nu_K = 0 and phi(nu) = p, by damped Newton.

    Each iterate nu costs one ``selection._phis`` call at tol 1e-10: phi at
    nu and at nu + h e_j for every arm j, h = 1e-6 max(1, max |nu|), which
    give the residual phi - p and a forward-difference Hessian H of the
    potential, H_ij = d phi_i / d nu_j.  The step d solves H d = p - phi
    with d_m = 0 for the arm m of the largest H_mm, and each iterate is
    shifted to nu_K = 0.  For the exact H, whose rows sum to 0, any m gives
    the same step; but each row of the reduced system sums to its arm's tie
    to m alone, and a tie too weak for the differences to resolve beside the
    row's other entries leaves the system singular.  The arm of the largest
    H_mm is the one most strongly tied to the others.

    A step that does not lower max |phi - p| is halved, or ends the start
    once max |phi - p| is within the 1e-8 bound: from there on it meets the
    kernel's rounding or a Hessian the differences no longer resolve.  An
    iterate the kernel cannot evaluate counts as one that does not lower
    it.  A start also ends at a step of at most 1e-13 (1 + max |nu|), at a
    singular or non-finite step and after ``_NEWTON_STEPS`` iterates; an
    error at the start itself is raised.  The starts are log(p/p_K), exact
    for Gumbel, then 0 if the first ends above the bound: the best iterate
    wins, and a residual above 1e-8 raises RootFindFailed with it.
    """
    K = len(p)
    arms = np.arange(K)

    def phi_and_hessian(nu):
        nus = np.tile(nu, (K + 1, 1))
        nus[arms + 1, arms] += 1e-6 * max(1.0, float(np.max(np.abs(nu))))
        h = nus[arms + 1, arms] - nu
        phis = []
        for result in selection._phis(-nus, dist, 1e-10, with_prime=False):
            if isinstance(result, PllabError):
                raise result
            phis.append(result[2][:, 0])
        phis = np.array(phis)
        return phis[0], (phis[1:].T - phis[0, :, None]) / h

    best_nu, best_res = None, math.inf
    for start in (np.log(p / p[-1]), np.zeros(K)):
        nu, res, step = start, math.inf, np.zeros(K)
        for _ in range(_NEWTON_STEPS):
            trial = nu + step
            trial -= trial[-1]
            try:
                phi, hess = phi_and_hessian(trial)
            except PllabError:
                if res == math.inf:
                    raise
                trial_res = math.inf
            else:
                trial_res = float(np.max(np.abs(phi - p)))
            if trial_res < res:
                nu, res = trial, trial_res
                free = np.delete(arms, np.argmax(np.diag(hess)))
                step = np.zeros(K)
                try:
                    step[free] = np.linalg.solve(hess[np.ix_(free, free)], p[free] - phi[free])
                except np.linalg.LinAlgError:
                    break
                if not np.isfinite(step).all():
                    break
            elif res <= 1e-8:
                break
            else:
                step = 0.5 * step
            if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(nu))):
                break
        if res < best_res:
            best_nu, best_res = nu, res
        if best_res <= 1e-8:
            break
    if best_res > 1e-8:
        raise RootFindFailed(best_res, "phi(nu) = p root-finding")
    return best_nu


def _phi_1_at(lam_of_c, cs, dist):
    """(phi_1, phi_1', error estimate) at each c of ``cs``, or the error raised there.

    Arm 1 only, at tol 1e-10, in ``selection._phis``'s chunks.
    """
    return [result if isinstance(result, PllabError) else (*result[2][0].tolist(), float(result[3][0]))
            for result in selection._phis([lam_of_c(c) for c in cs], dist, 1e-10, with_prime=True, arms=(0,))]


def _phi_1_roots(lam_of_c, xs, dist, floor):
    """For each x of ``xs``, the c >= ``floor`` with phi_1(lam_of_c(c)) = x, for a loss family along which phi_1 increases.

    Newton on g(c) = phi_1 - x from c = 0.  Both families are translation
    invariant, so g' = -phi_1', which the kernel returns beside phi_1: no
    integral beyond phi_1's own.  Each c evaluated becomes an end of a
    sign-change bracket [lo, hi], which starts as [floor, inf).  A Newton
    step that leaves it (as one on a slope that is not positive does)
    bisects it instead or, while an end is still open, moves max(4, |c|)
    toward that end, so that the bracket doubles.  A point stops once |g| is
    within the kernel's error estimate, or at the end of a step of at most
    1e-12 + 8.9e-16 |c|: where g(floor) > 0 already, the bracket closes on
    ``floor`` and that step is 0.  A final |g| above 1e-9, a bracket past 1e9
    or 100 steps raise RootFindFailed with |g| at the last c evaluated.

    The points advance in lockstep: each step evaluates the points still
    iterating in one ``_phi_1_at``, in batched kernel calls.  The kernel
    gives each vector the numbers it gives it alone, so each point takes the
    iterates of its own one-point solve.  The error of the first failing
    point in grid order is raised; the points after it stop iterating.
    """
    xs = np.asarray(xs, dtype=float).tolist()
    c, g, roots = [0.0] * len(xs), [0.0] * len(xs), [0.0] * len(xs)
    lo, hi = [floor] * len(xs), [math.inf] * len(xs)
    live, failed = list(range(len(xs))), {}
    for _ in range(_NEWTON_STEPS):
        if not live:
            break
        iterating = []
        for i, value in zip(live, _phi_1_at(lam_of_c, [c[i] for i in live], dist)):
            if isinstance(value, PllabError):
                failed[i] = value
                continue
            (phi, prime, err), at = value, c[i]
            g[i] = residual = phi - xs[i]
            if residual < 0.0:
                lo[i] = at
            else:
                hi[i] = at
            new = at + residual / prime if prime else math.nan  # c - g / g'
            if not (lo[i] < new < hi[i] or new == at):
                if math.isinf(lo[i]) or math.isinf(hi[i]):
                    new = at + math.copysign(max(4.0, abs(at)), -residual)
                else:
                    new = 0.5 * (lo[i] + hi[i])
            if abs(residual) <= err:
                roots[i] = at
            elif abs(new) > 1e9:
                failed[i] = RootFindFailed(abs(residual), "phi_1 inversion bracket expansion")
            elif abs(new - at) > 1e-12 + 8.9e-16 * abs(at):
                c[i] = new
                iterating.append(i)
            elif abs(residual) <= 1e-9:
                roots[i] = new
            else:
                failed[i] = RootFindFailed(abs(residual), "phi_1 inversion")
        first_failed = min(failed, default=len(xs))
        live = [i for i in iterating if i < first_failed]
    failed.update((i, RootFindFailed(abs(g[i]), "phi_1 inversion")) for i in live)
    if failed:
        raise failed[min(failed)]
    return roots


def two_arm_quantile(x, dist) -> float:
    """The reward offset c with Pr[c + r1 >= r2] = x for i.i.d. perturbations.

    This is the quantile of r2 - r1 at level x, i.e. the derivative of the
    two-arm restriction of the induced regularizer: phi_1 of (-c, 0) inverted.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0, 1)")
    return _phi_1_roots(lambda c: [-c, 0.0], [x], dist, -math.inf)[0]


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


@functools.cache
def _gauss_legendre():
    """The 24-point Gauss-Legendre nodes and weights on [-1, 1], built on first use, read-only."""
    x, w = np.polynomial.legendre.leggauss(24)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.cache
def _gauss_laguerre():
    """The 40-point Gauss-Laguerre nodes and weights, built on first use, read-only."""
    x, w = np.polynomial.laguerre.laggauss(40)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panels(lo, hi, width, graded=()):
    """Nodes and weights of 24-point Gauss-Legendre panels: between the ``graded`` edges below lo, then on [lo, hi].

    The panels on [lo, hi] are equal and at most ``width`` wide, 24 to 150,000 of them.
    """
    n_panels = int(min(150_000, max(24, math.ceil((hi - lo) / width))))
    edges = np.concatenate([graded, np.linspace(lo, hi, n_panels + 1)])
    x_gl, w_gl = _gauss_legendre()
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


def _log1m(e):
    """log(1 - e) for complex e, as 1/2 log1p(|1 - e|^2 - 1) + i arg(1 - e) without forming 1 - e."""
    re, im = e.real, e.imag
    return 0.5 * np.log1p(re * (re - 2.0) + im * im) + 1j * np.arctan2(-im, 1.0 - re)


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

    (1 - s^-a)^(beta-1) is exp((beta-1) log(1 - e)) with e = s^-a, and
    |e| <= S^-a <= 1/32 (``_tail_start``).  The log is taken from the real
    and imaginary parts of e (``_log1m``), not of 1 - e: rounding 1 - e
    costs the log about 1e-16 / |e| of relative accuracy (up to 2.8e-10 at
    the defaults), and numpy's complex log takes a slow path for values near
    the unit circle, where 1 - e lies.
    """
    coef, a = beta / (1.0 - beta), 1.0 / (1.0 - beta)
    x, w = _gauss_laguerre()
    tc = (ts * coef)[:, None]
    log_s = np.log(S - 1j * x / tc)
    # i t c(s) + x on the path, the Laguerre weight taken out
    phase = 1j * tc * (np.exp((beta - 1.0) * _log1m(np.exp(-a * log_s))) - S)
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
    envelopes and the 1/2-Tsallis reference derivative for comparison.  An
    x outside [1/3, 1 - 1e-4) raises DomainError before any solve; the grid
    is then solved in lockstep (``_phi_1_roots``), each root the one a
    one-point grid gets.
    """
    if dist.support != _FULL_LINE:
        raise SupportError("scan requires a law fully supported on the reals")
    xs = np.asarray(x_grid, dtype=float)
    if not np.all((1.0 / 3.0 <= xs) & (xs < 1.0 - 1e-4)):
        raise DomainError("x grid must lie in [1/3, 1 - 1e-4)")
    rows = []
    for x, c in zip(xs.tolist(), _phi_1_roots(lambda c: [0.0, c, c], xs, dist, 0.0)):
        rows.append(
            {
                "x": x,
                "c": c,
                "lower": 0.5 / math.sqrt(1.0 - x) - 1.0,
                "upper": 2.0 * math.sqrt(2.0) / math.sqrt(1.0 - x) - 1.0,
                "tsallis_ref": math.sqrt(2.0) / math.sqrt(1.0 - x) - 1.0 / math.sqrt(x),
            }
        )
    return rows
