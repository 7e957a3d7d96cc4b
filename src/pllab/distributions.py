"""Perturbation laws with exact CDF / density / density-derivative / quantile.

Every distribution here is a univariate law used as an i.i.d. perturbation
source for perturbed-leader policies.  The closed forms matter: the selection
quadrature integrates f and F directly, so each law evaluates them exactly
rather than through scipy.stats wrappers.

The laws are built from a few one-sided primitives on [0, inf) and one
combinator, ``Hybrid``, which glues a right and a left primitive at 0 with
half the mass on each side.  The primitives are ``GeneralizedPareto``,
``Frechet``, ``Exponential`` and ``Truncated`` (any law conditioned above 1
and shifted back to 0); ``Gumbel`` is the only law written out on the whole
line.  ``GeneralizedPareto(a)``, at its default scale 1, is the Lomax law
(spec ``pareto:a``).  The named two-sided laws are thin constructors of
composed laws:

=========================  =================================================
``SymmetricPareto(a)``     ``Hybrid(GeneralizedPareto(a, 1), GeneralizedPareto(a, 1))``
``LaplacePareto()``        ``Hybrid(GeneralizedPareto(2, 1), Exponential(2))``
``AsymmetricPareto(a, b)`` ``Hybrid(GeneralizedPareto(a, 1), GeneralizedPareto(b, b/a))``
``Laplace(r)``             ``Hybrid(Exponential(r), Exponential(r))``
=========================  =================================================

Conventions
-----------
* ``pdf_prime`` returns the right-hand derivative at non-differentiable
  points, the kinks (``kinks``, where f may also jump); only the regularity
  diagnostics read it, as the quadrature needs no f'.
* ``tail_index_right`` / ``tail_index_left`` give the polynomial decay order
  of each tail; exponential or absent tails are reported as ``math.inf``.
* A law writes its formulas once, as private methods; the base class turns
  them into the public evaluators.  These take scalars or numpy arrays, give
  floats for scalars, extend one-sided laws by F = f = f' = 0 on x <= 0 and
  emit no numpy warnings (an overflow reads inf or nan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "PerturbationDistribution",
    "OneSided",
    "GeneralizedPareto",
    "Frechet",
    "Exponential",
    "Truncated",
    "Hybrid",
    "Gumbel",
    "SymmetricPareto",
    "LaplacePareto",
    "AsymmetricPareto",
    "Laplace",
    "parse_dist",
    "AssumptionReport",
    "check_assumptions",
]

_TINY_U = 0.5 / 2.0**53  # remap for the measure-zero event rng.random() == 0


def _require_positive(**params):
    for name, value in params.items():
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


class PerturbationDistribution:
    """Base class: an evaluable and sampleable law on (a subset of) the reals.

    A law writes its formulas once, as the private ``_cdf``, ``_sf``,
    ``_pdf``, ``_pdf_prime``, ``_quantile`` and ``_isf``.  The public
    ``cdf``, ``sf``, ``pdf``, ``pdf_prime`` and ``quantile`` are defined here
    only, through ``_evaluate``: they take scalars or arrays, give floats for
    scalars, set F = f = f' = 0 and S = 1 at or below a finite lower support
    edge, and emit no numpy warnings; an overflow reads inf or nan, which the
    callers test.
    """

    support: tuple[float, float] = (-math.inf, math.inf)
    tail_index_right: float = math.inf
    tail_index_left: float = math.inf
    kinks: tuple[float, ...] = ()

    def cdf(self, x):
        return self._evaluate(self._cdf, x, 0.0)

    def sf(self, x):
        return self._evaluate(self._sf, x, 1.0)

    def pdf(self, x):
        return self._evaluate(self._pdf, x, 0.0)

    def pdf_prime(self, x):
        return self._evaluate(self._pdf_prime, x, 0.0)

    def quantile(self, u):
        """Inverse CDF for u in (0, 1); validates its domain."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
            raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
        return self._evaluate(self._quantile, u_arr)

    def _evaluate(self, formula, x, below=None):
        """``formula`` at x as a public evaluator; ``below`` is its value at or
        below a finite lower support edge, where the formula is not called."""
        x = np.asarray(x, dtype=float)
        lo = self.support[0]
        # [()] hands 0-d input to the formula as a numpy scalar, whose arithmetic
        # (unlike a 0-d array's) rounds as the laws' scalar evaluators always have
        with np.errstate(all="ignore"):
            if below is None or lo == -math.inf:
                out = formula(x[()])
            else:
                inside = x > lo
                out = np.where(inside, formula(np.where(inside, x, lo + 1.0)[()]), below)
        return float(out) if x.ndim == 0 else out

    def _cdf(self, x):
        return 1.0 - self._sf(x)

    def _isf(self, q):
        """Inverse survival function for q in (0, 1]; exact where overridden."""
        return self._quantile(1.0 - q)

    def sample_array(self, shape, rng):
        """Draws by inverse transform; determinism comes from the caller's rng."""
        u = rng.random(shape)
        u = np.where(u == 0.0, _TINY_U, u)
        with np.errstate(all="ignore"):
            return self._quantile(u)

    def __repr__(self):
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# one-sided primitives
# ---------------------------------------------------------------------------

class OneSided(PerturbationDistribution):
    """A law on [0, inf) given by raw formulas of the half line.

    Subclasses define ``_sf``, ``_pdf`` and ``_pdf_prime`` of y and the
    inverse survival function ``_isf`` of a level q in (0, 1].  The public
    evaluators call these raw formulas at y > 0 only and read F = f = f' = 0
    on x <= 0, so f may jump at 0; ``Hybrid`` calls them at y = |x|, which
    may be 0.
    """

    support = (0.0, math.inf)
    kinks = (0.0,)

    def _quantile(self, u):
        return self._isf(1.0 - u)


@dataclass(frozen=True, repr=False)
class GeneralizedPareto(OneSided):
    """Generalized Pareto on [0, inf): 1 - F(y) = (scale/(scale+y))^beta.

    Scale 1 is the Lomax (shifted Pareto) law 1 - F(y) = (1+y)^-beta.
    """

    beta: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        b, s = self.beta, self.scale
        _require_positive(shape=b, scale=s)

        def power(e):
            try:
                return s**e
            except OverflowError:
                return math.inf

        # the constant factors of f and -f', neither 0 nor inf in floats
        object.__setattr__(self, "_f_factor", b * power(b))
        object.__setattr__(self, "_df_factor", b * (b + 1.0) * power(b))
        _require_positive(**{"shape*scale^shape": self._f_factor, "shape*(shape+1)*scale^shape": self._df_factor})
        if power(-b - 2.0) == math.inf:  # (scale + y)^-(shape+2) in f' at y = 0
            raise DomainError(f"scale^-(shape+2) must be finite, got scale {s!r} and shape {b!r}")
        object.__setattr__(self, "tail_index_right", float(b))

    def _sf(self, y):
        if self.scale == 1.0:  # Lomax form: the same law, without a division
            return (1.0 + y) ** -self.beta
        return (self.scale / (self.scale + y)) ** self.beta

    def _pdf(self, y):
        return self._f_factor * (self.scale + y) ** (-self.beta - 1.0)

    def _pdf_prime(self, y):
        return -self._df_factor * (self.scale + y) ** (-self.beta - 2.0)

    def _isf(self, q):
        return self.scale * (q ** (-1.0 / self.beta) - 1.0)

    def _quantile(self, u):
        return self.scale * np.expm1(-np.log1p(-u) / self.beta)  # exact for tiny u, unlike _isf(1 - u)

    def __repr__(self):
        return f"GeneralizedPareto({self.beta:g},scale={self.scale:g})"


@dataclass(frozen=True, repr=False)
class Frechet(OneSided):
    """Standard Frechet law on (0, inf): F(y) = exp(-y^-alpha)."""

    alpha: float = 2.0

    def __post_init__(self):
        _require_positive(shape=self.alpha)
        object.__setattr__(self, "tail_index_right", float(self.alpha))

    def _cdf(self, y):
        return np.exp(-(y ** -self.alpha))

    def _sf(self, y):
        return -np.expm1(-(y ** -self.alpha))

    def _pdf(self, y):
        a = self.alpha
        e = np.exp(-(y ** -a))  # 0 where y^-a overflows or y = 0; so are f, f'
        return np.where(e > 0.0, a * y ** (-a - 1.0) * e, 0.0)

    def _pdf_prime(self, y):
        a = self.alpha
        e = np.exp(-(y ** -a))
        return np.where(e > 0.0, a * e * (a * y ** (-2 * a - 2.0) - (a + 1.0) * y ** (-a - 2.0)), 0.0)

    def _isf(self, q):
        return (-np.log1p(-q)) ** (-1.0 / self.alpha)

    def _quantile(self, u):
        return (-np.log(u)) ** (-1.0 / self.alpha)  # exact for tiny u, unlike _isf(1 - u)

    def __repr__(self):
        return f"Frechet({self.alpha:g})"


@dataclass(frozen=True, repr=False)
class Exponential(OneSided):
    """Exponential law on [0, inf) with the given rate: 1 - F(y) = e^(-rate y)."""

    rate: float = 1.0

    def __post_init__(self):
        _require_positive(rate=self.rate)
        if not math.isfinite(self.rate * self.rate):  # the factor of f'
            raise DomainError(f"rate^2 must be finite, got rate {self.rate!r}")

    def _sf(self, y):
        return np.exp(-self.rate * y)

    def _pdf(self, y):
        return self.rate * np.exp(-self.rate * y)

    def _pdf_prime(self, y):
        return -self.rate * self.rate * np.exp(-self.rate * y)

    def _isf(self, q):
        return np.log(q) / -self.rate

    def __repr__(self):
        return f"Exponential(rate={self.rate:g})"


@dataclass(frozen=True, repr=False)
class Truncated(OneSided):
    """Tail-equivalent law conditioned above 1 and shifted back to (0, inf).

    F*(y) = (F(y+1) - F(1)) / (1 - F(1)) for y > 0, which keeps the right
    tail order while producing a nonnegative law with bounded hazard near
    the origin.  The mass above 1 is taken as S(1), so S*(0) = 1 exactly.
    Quantiles are the inner law's minus 1, so near 0 their error is
    absolute (about 1e-16), not relative.
    """

    inner: PerturbationDistribution

    def __post_init__(self):
        mass = float(self.inner.sf(1.0))
        if not mass > 0.0:
            raise DomainError("inner law has no mass above 1")
        object.__setattr__(self, "_mass", mass)
        object.__setattr__(self, "tail_index_right", self.inner.tail_index_right)

    def _sf(self, y):
        return self.inner.sf(y + 1.0) / self._mass

    def _pdf(self, y):
        return self.inner.pdf(y + 1.0) / self._mass

    def _pdf_prime(self, y):
        return self.inner.pdf_prime(y + 1.0) / self._mass

    def _isf(self, q):
        return self.inner._isf(q * self._mass) - 1.0

    def __repr__(self):
        return f"Truncated({self.inner!r})"


# ---------------------------------------------------------------------------
# two-sided laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Hybrid(PerturbationDistribution):
    """Two one-sided laws glued at 0 with half mass on each side.

    F(x) = 1 - S_right(x)/2 for x >= 0 and S_left(-x)/2 for x < 0, where S
    is a half's survival function, so F(0) = 1/2 exactly and both tails keep
    full relative accuracy.  The hybrid's left tail index is the right tail
    index of the ``left`` half.
    """

    right: OneSided
    left: OneSided
    kinks = (0.0,)

    def __post_init__(self):
        for side, d in (("right", self.right), ("left", self.left)):
            if not isinstance(d, OneSided):
                raise DomainError(f"{side} component must be a one-sided law on [0, inf)")
        object.__setattr__(self, "tail_index_right", self.right.tail_index_right)
        object.__setattr__(self, "tail_index_left", self.left.tail_index_right)

    def _glue(self, x, raw):
        """(x < 0, h): h is half the left half's raw formula ``raw`` at -x
        where x < 0 and half the right half's at x elsewhere."""
        y = np.abs(x)
        left = getattr(self.left, raw)(y)
        right = left if self.left is self.right else getattr(self.right, raw)(y)
        neg = x < 0.0
        return neg, 0.5 * np.where(neg, left, right)

    def _cdf(self, x):
        neg, h = self._glue(x, "_sf")
        return np.where(neg, h, 1.0 - h)

    def _sf(self, x):
        neg, h = self._glue(x, "_sf")
        return np.where(neg, 1.0 - h, h)

    def _pdf(self, x):
        return self._glue(x, "_pdf")[1]

    def _pdf_prime(self, x):
        neg, h = self._glue(x, "_pdf_prime")
        return np.where(neg, -h, h)

    def _quantile(self, u):
        low = u < 0.5
        q = 2.0 * np.where(low, u, 1.0 - u)
        left = self.left._isf(q)
        right = left if self.left is self.right else self.right._isf(q)
        return np.where(low, -left, right)

    def _isf(self, q):
        high = q < 0.5
        p = 2.0 * np.where(high, q, 1.0 - q)
        return np.where(high, self.right._isf(p), -self.left._isf(p))

    def __repr__(self):
        return f"Hybrid(right={self.right!r}, left={self.left!r})"


def SymmetricPareto(a=2.0):
    """Two-sided polynomial law f(x) = a / (2 (|x|+1)^(a+1)), shape a > 0.

    The canonical heavy-tailed symmetric perturbation; shape 2 is the default
    used throughout the counterexample scans.
    """
    half = GeneralizedPareto(a, 1.0)
    return Hybrid(half, half)


def LaplacePareto():
    """Exponential left half e^(2x), polynomial right half 1/(x+1)^3.

    Tail indices (right, left) = (2, inf): a glued Gumbel-type/heavy-tail
    law with mean 1/4.
    """
    return Hybrid(GeneralizedPareto(2.0, 1.0), Exponential(2.0))


def AsymmetricPareto(alpha=2.0, beta=3.0):
    """Lomax right half (index alpha), generalized-Pareto left half (index beta).

    The left scale is beta/alpha so the density is continuous at 0; with
    (alpha, beta) = (2, 3) this is the classic asymmetric-Pareto example
    whose f/F ratio increases on the negative axis.
    """
    right = GeneralizedPareto(alpha, 1.0)
    left = GeneralizedPareto(beta, beta / alpha)
    return Hybrid(right, left)


def Laplace(rate=1.0):
    """Double-exponential law with the given rate."""
    half = Exponential(rate)
    return Hybrid(half, half)


@dataclass(frozen=True, repr=False)
class Gumbel(PerturbationDistribution):
    """Standard Gumbel law; selection probabilities reduce to the softmax."""

    def _cdf(self, x):
        return np.exp(-np.exp(-x))

    def _sf(self, x):
        return -np.expm1(-np.exp(-x))

    def _pdf(self, x):
        return np.exp(-x - np.exp(-x))

    def _pdf_prime(self, x):
        # below -700 f' underflows to 0; the clamp keeps e finite there, so
        # the product is 0 * e rather than 0 * inf
        x = np.maximum(x, -700.0)
        e = np.exp(-x)
        return np.exp(-x - e) * (e - 1.0)

    def _quantile(self, u):
        return -np.log(-np.log(u))


# ---------------------------------------------------------------------------
# distribution-spec mini-language
# ---------------------------------------------------------------------------

def _number(text, spec, kind=float):
    """``kind(text)``, with a malformed number reported as a ``DomainError``."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"bad number {text!r} in spec {spec!r}") from None


def parse_dist(spec: str) -> PerturbationDistribution:
    """Parse a distribution spec string (case-insensitive).

    One-sided primitives on [0, inf):
      ``pareto:A``               GeneralizedPareto(A, 1), the Lomax law
      ``gpd:B[,S]``              GeneralizedPareto(B, S), scale S defaults to 1
      ``frechet:A``              Frechet(A)
      ``trunc(<spec>)``          Truncated(<spec>): conditioned above 1, shifted to 0
    Two-sided laws:
      ``hybrid:right=<spec>,left=<spec>``  Hybrid of two one-sided specs
      ``splareto[:a=A | :A]``    Hybrid(GPD(A,1), GPD(A,1)), A defaults to 2
      ``lp``                     Hybrid(GPD(2,1), Exponential(2))
      ``asp:A,B``                Hybrid(GPD(A,1), GPD(B,B/A))
      ``laplace[:R]``            Hybrid(Exponential(R), Exponential(R)), R defaults to 1
      ``gumbel``                 Gumbel()
    A malformed number, or an out-of-domain or unread parameter, raises ``DomainError``.
    """
    s = spec.strip()
    low = s.lower()
    if low.startswith("trunc(") and low.endswith(")"):
        return Truncated(parse_dist(s[6:-1]))
    if low.startswith("hybrid:"):
        body, low_body = s[len("hybrid:"):], low[len("hybrid:"):]
        if not low_body.startswith("right="):
            raise DomainError(f"hybrid spec must read hybrid:right=...,left=... got {spec!r}")
        # the ,left= outside any parentheses: a half may be trunc(hybrid:...)
        marker, depth = -1, 0
        for k, ch in enumerate(body):
            depth += (ch == "(") - (ch == ")")
            if depth == 0 and low_body.startswith(",left=", k):
                marker = k
                break
        if marker < 0:
            raise DomainError(f"hybrid spec missing ,left= in {spec!r}")
        right = parse_dist(body[len("right="):marker])
        left = parse_dist(body[marker + len(",left="):])
        return Hybrid(right=right, left=left)

    head, colon, rest = low.partition(":")
    if low == "lp":
        return LaplacePareto()
    if low == "gumbel":
        return Gumbel()
    if head == "laplace":
        return Laplace(_number(rest, spec)) if colon else Laplace()
    if head == "splareto":
        return SymmetricPareto(_number(rest.removeprefix("a="), spec)) if colon else SymmetricPareto()
    if head == "asp":
        a, _, b = rest.partition(",")
        return AsymmetricPareto(_number(a, spec), _number(b, spec))
    if head == "frechet":
        return Frechet(_number(rest, spec))
    if head == "pareto":
        return GeneralizedPareto(_number(rest, spec))
    if head == "gpd":
        b, comma, sc = rest.partition(",")
        return GeneralizedPareto(_number(b, spec), _number(sc, spec) if comma else 1.0)
    raise DomainError(f"unknown distribution spec {spec!r}")




# ---------------------------------------------------------------------------
# assumption checker
# ---------------------------------------------------------------------------

# geometric evaluation grid of the tail diagnostics (mirrored for two-sided laws)
TAIL_GRID = np.geomspace(1e-3, 1e3, 2000)
# Monte-Carlo design of the block-maximum diagnostics
BLOCK_SIZES = (8, 32, 128, 512)
N_BLOCKS = 20000
MC_SEED = 0


@dataclass
class AssumptionReport:
    """Numerical diagnostics for the five regularity conditions.

    Estimates are suprema/limits over the recorded grid or Monte-Carlo
    design; a diverging statistic is reported as +inf together with a
    ``NonFiniteEstimate`` flag (a finding, not a failure).
    """

    hazard_sup: float
    ff_monotone: bool
    ff_first_violation: float | None
    f_unimodal_from: float
    block_max_mu: float
    block_max_mu_ci: float
    block_max_ml: float
    block_max_ml_ci: float
    a_k_fit: tuple[float, float]
    neg_logderiv_sup: float
    von_mises_limit: float
    grid_points: int
    flags: set = field(default_factory=set)
    notes: list = field(default_factory=list)

    def rows(self):
        """(assumption, statistic, value, grid_or_mc, notes) rows for CSV export."""
        g = f"grid:{self.grid_points}"
        m = f"mc:{N_BLOCKS}x{list(BLOCK_SIZES)}"
        viol = "" if self.ff_first_violation is None else f"first violation at x={self.ff_first_violation:.6g}"
        return [
            ("bounded_hazard", "sup f/(1-F)", self.hazard_sup, g,
             "diverging" if "hazard" in self.flags else ""),
            ("monotone_f_over_F", "f/F nonincreasing", float(self.ff_monotone), g, viol),
            ("unimodal_density", "f decreasing beyond x0", self.f_unimodal_from, g, ""),
            ("block_maxima", "E[max_k X / a_k] <= M_u", self.block_max_mu, m,
             f"ci_halfwidth={self.block_max_mu_ci:.3g}"),
            ("block_maxima", "E[a_k / max_k X] <= M_l", self.block_max_ml, m,
             f"ci_halfwidth={self.block_max_ml_ci:.3g}"),
            ("block_maxima", "a_k k^(-1/alpha) in [A_l, A_u]",
             self.a_k_fit[1], m, f"A_l={self.a_k_fit[0]:.6g}"),
            ("bounded_log_derivative", "sup -f'/f", self.neg_logderiv_sup, g,
             "diverging" if "neg_logderiv" in self.flags else ""),
            ("von_mises", "x f/(1-F) at grid end", self.von_mises_limit, g,
             "diverging" if "von_mises" in self.flags else ""),
        ]


def _tail_trend_diverging(x, values):
    """Heuristic: statistic keeps growing through the last decade of the grid."""
    finite = np.isfinite(values)
    if not np.any(finite):
        return True
    x, values = x[finite], values[finite]
    tail = values[x >= x[-1] / 10.0]
    mid = values[(x >= x[-1] / 100.0) & (x < x[-1] / 10.0)]
    if len(tail) == 0 or len(mid) == 0:
        return False
    return float(tail[-1]) >= 0.98 * float(np.max(tail)) and float(tail[-1]) > 1.5 * float(np.max(mid))


def check_assumptions(dist):
    """Evaluate the five regularity diagnostics for ``dist``.

    The grid diagnostics run on ``TAIL_GRID`` and the block maxima on
    ``N_BLOCKS`` blocks of each size in ``BLOCK_SIZES``, seeded by ``MC_SEED``.
    Block maxima are normalized by a_k = quantile(1 - 1/k); for two-sided
    laws the reciprocal statistic conditions on a positive block maximum
    (the complementary event has probability 2^-k) and says so in notes.
    """
    flags: set = set()
    notes: list = []

    lo, hi = dist.support
    xs_right = TAIL_GRID
    if lo == -math.inf:
        xs = np.concatenate([-xs_right[::-1], [0.0], xs_right])
    else:
        xs = np.concatenate([[max(lo, 0.0)], xs_right]) if lo == 0.0 else xs_right
    xs = xs[(xs > lo) & (xs < hi)]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.asarray(dist.pdf(xs), dtype=float)
        F = np.asarray(dist.cdf(xs), dtype=float)
        S = np.asarray(dist.sf(xs), dtype=float)
        fp = np.asarray(dist.pdf_prime(xs), dtype=float)

        # Assumption: bounded hazard rate on the (right) support.  Points where
        # both f and 1-F underflow to zero carry no information and are dropped;
        # 1-F = 0 with f > 0 is a genuine blowup.
        right = xs > 0.0 if lo == -math.inf else np.ones_like(xs, dtype=bool)
        informative = right & ((S > 0.0) | (f > 0.0))
        hazard = f[informative] / S[informative]
        finite = np.isfinite(hazard)
        hazard_sup = float(np.max(hazard[finite])) if finite.any() else math.inf
        if not finite.all() or _tail_trend_diverging(xs[informative][finite], hazard[finite]):
            flags.add("hazard")
            flags.add("NonFiniteEstimate")
            hazard_sup = math.inf

        # Assumption: f/F nonincreasing over the whole support
        ratio = f / F
        ok = np.isfinite(ratio)
        diffs = np.diff(ratio[ok])
        viol = np.nonzero(diffs > 1e-12 * np.maximum(1.0, np.abs(ratio[ok][:-1])))[0]
        ff_monotone = len(viol) == 0
        ff_first = None if ff_monotone else float(xs[ok][viol[0]])

        # Assumption: f eventually decreasing (report the onset point)
        pos = xs > 0.0
        increasing = np.nonzero(fp[pos] > 1e-15)[0]
        f_unimodal_from = 0.0 if len(increasing) == 0 else float(xs[pos][increasing[-1]])

        # Assumption: normalized block maxima (Monte Carlo)
        rng = np.random.default_rng(np.random.SeedSequence((MC_SEED, 0xB10C)))
        mu_est, mu_ci, ml_est, ml_ci, fits = [], [], [], [], []
        alpha = dist.tail_index_right
        for k in BLOCK_SIZES:
            a_k = float(dist.quantile(1.0 - 1.0 / k))
            if a_k <= 0.0:
                notes.append(f"k={k}: a_k <= 0, block statistic skipped")
                continue
            if not math.isfinite(a_k):  # every block maximum over a_k would read 0
                notes.append(f"k={k}: a_k = {a_k:g} is not finite, block statistic skipped")
                continue
            block_max = dist.sample_array((N_BLOCKS, k), rng).max(axis=1)
            norm = block_max / a_k
            mu_est.append(float(np.mean(norm)))
            mu_ci.append(1.96 * float(np.std(norm)) / math.sqrt(N_BLOCKS))
            pos_mask = norm > 0.0
            if not np.all(pos_mask):
                notes.append(
                    f"k={k}: reciprocal conditioned on positive maximum "
                    f"({int(np.sum(~pos_mask))} of {N_BLOCKS} blocks dropped)"
                )
            rec = 1.0 / norm[pos_mask]
            ml_est.append(float(np.mean(rec)))
            ml_ci.append(1.96 * float(np.std(rec)) / math.sqrt(len(rec)))
            if math.isfinite(alpha):
                fits.append(a_k * k ** (-1.0 / alpha))
        # block maxima that overflow make a mean inf and its interval nan
        if not np.all(np.isfinite([*mu_est, *mu_ci, *ml_est, *ml_ci])):
            flags.add("block_maxima")
            flags.add("NonFiniteEstimate")
        block_max_mu = max(mu_est) if mu_est else math.nan
        block_max_mu_ci = max(mu_ci) if mu_ci else math.nan
        block_max_ml = max(ml_est) if ml_est else math.nan
        block_max_ml_ci = max(ml_ci) if ml_ci else math.nan
        if fits:
            a_k_fit = (float(min(fits)), float(max(fits)))
        else:
            a_k_fit = (math.nan, math.nan)
            if not math.isfinite(alpha):
                notes.append("right tail index is inf: a_k k^(-1/alpha) fit not applicable")

        # Assumption: -f'/f bounded almost everywhere (skip kink points)
        near_kink = np.zeros_like(xs, dtype=bool)
        for kk in dist.kinks:
            near_kink |= np.isclose(xs, kk, rtol=0.0, atol=1e-12)
        nl = -fp[~near_kink] / f[~near_kink]
        nl_finite = np.isfinite(nl)
        nl_sup = float(np.max(nl[nl_finite])) if nl_finite.any() else math.inf
        if _tail_trend_diverging(xs[~near_kink], nl):
            flags.add("neg_logderiv")
            flags.add("NonFiniteEstimate")
            nl_sup = math.inf

        # von Mises ratio at the last informative grid point
        vm_x = xs[informative][finite]
        vm_curve = vm_x * hazard[finite]
        vm = float(vm_curve[-1]) if len(vm_curve) else math.inf
        if _tail_trend_diverging(vm_x, vm_curve) or not math.isfinite(vm):
            flags.add("von_mises")
            flags.add("NonFiniteEstimate")
            vm = math.inf

    return AssumptionReport(
        hazard_sup=hazard_sup,
        ff_monotone=bool(ff_monotone),
        ff_first_violation=ff_first,
        f_unimodal_from=f_unimodal_from,
        block_max_mu=block_max_mu,
        block_max_mu_ci=block_max_mu_ci,
        block_max_ml=block_max_ml,
        block_max_ml_ci=block_max_ml_ci,
        a_k_fit=a_k_fit,
        neg_logderiv_sup=nl_sup,
        von_mises_limit=float(vm),
        grid_points=len(xs),
        flags=flags,
        notes=notes,
    )
