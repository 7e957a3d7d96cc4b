"""Potential/regularizer duality, quantile laws, and the inversion pipeline."""

import decimal
import functools
import math

import brentq_oracle
import hybr_oracle
import hypothesis.strategies as st
import numpy as np
import pytest
import quadpack_oracle
import recursion_oracle
from hypothesis import given, settings

from pllab import duality, selection
from pllab.distributions import (
    AsymmetricPareto,
    Frechet,
    GeneralizedPareto,
    Gumbel,
    Laplace,
    LaplacePareto,
    SymmetricPareto,
    parse_dist,
)
from pllab.errors import DomainError, GridError, NonIntegrable, RootFindFailed, SupportError, ToleranceNotMet

FULL_SUPPORT = [
    SymmetricPareto(2.0),
    SymmetricPareto(3.0),
    LaplacePareto(),
    AsymmetricPareto(2.0, 3.0),
    Gumbel(),
    Laplace(1.0),
]


class TestPotential:
    def test_monte_carlo_oracle_at_origin(self):
        rng = np.random.default_rng(21)
        for dist in (SymmetricPareto(2.0), Laplace(1.0)):
            value = duality.potential([0.0, 0.0], dist)
            draws = dist.sample_array((10**6, 2), rng)
            mc = draws.max(axis=1)
            se = mc.std() / math.sqrt(len(mc))
            assert value > 0.0
            assert abs(value - mc.mean()) <= 3 * se

    def test_runaway_coordinate_limit(self):
        # Phi((c, 0)) - c -> E[r] as c grows
        lp = LaplacePareto()
        for c in (30.0, 60.0):
            assert duality.potential([c, 0.0], lp) - c == pytest.approx(0.25, abs=2e-2)

    def test_rejects_heavy_tail(self):
        with pytest.raises(NonIntegrable):
            duality.potential([0.0, 0.0], SymmetricPareto(0.8))

    @pytest.mark.parametrize("alpha", [1.12, 1.5, 2.0, 3.0])
    def test_frechet_pair_is_its_expected_maximum(self, alpha):
        # the larger of two Frechet(alpha) draws is Frechet with scale 2^(1/alpha)
        exact = 2.0 ** (1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha)
        assert abs(duality.potential([0.0, 0.0], Frechet(alpha)) - exact) <= 1e-9

    def test_tail_too_heavy_for_the_kernel(self):
        # below index 1 + 1/9 much of z f(z)'s mass lies where f underflows
        with pytest.raises(ToleranceNotMet):
            duality.potential([0.0, 0.0], Frechet(1.1))

    def test_preconditions(self):
        for nu, tol in (([0.5], 1e-9), ([0.0, np.inf], 1e-9), ([0.0, 1.0], 1e-3)):
            with pytest.raises(DomainError):
                duality.potential(nu, SymmetricPareto(2.0), tol)

    def test_gradient_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            k = int(rng.choice([2, 3]))
            nu = rng.uniform(-2.0, 2.0, size=k)
            dist = FULL_SUPPORT[int(rng.integers(len(FULL_SUPPORT)))]
            probe = duality.duality_probe(nu, dist)
            assert probe.grad_check <= 1e-5, (nu, dist)

    def test_probe_potentials_go_in_chunks(self, monkeypatch):
        # 2K + 1 = 49 potentials at K = 24, 128 // 24 = 5 loss vectors to a kernel call, each as it is alone
        sizes = []
        kernel = selection._component_integrals

        def counted(dist, gaps, *args, moment=0, **kwargs):
            sizes.extend([len(gaps)] if moment == 1 else [])
            return kernel(dist, gaps, *args, moment=moment, **kwargs)

        monkeypatch.setattr(selection, "_component_integrals", counted)
        dist = SymmetricPareto(2.0)
        probe = duality.duality_probe(np.random.default_rng(1).uniform(-2.0, 2.0, 24), dist)
        assert sizes == [5] * 9 + [4]
        assert probe.potential_value == duality.potential(probe.nu, dist, tol=1e-11)

    def test_semi_infinite_allowed_for_potential(self):
        value = duality.potential([0.0, 0.0], GeneralizedPareto(2.0))
        assert value > 0.0


class TestRegularizer:
    def test_gumbel_recovers_logit_rewards(self):
        value, nu = duality.regularizer_value([2.0 / 3.0, 1.0 / 3.0], Gumbel())
        np.testing.assert_allclose(nu, [math.log(2.0), 0.0], atol=1e-8)

    def test_gumbel_matches_shannon_up_to_constant(self):
        shannon = lambda p: float(sum(v * math.log(v) for v in p))
        v_ref, _ = duality.regularizer_value([0.5, 0.5], Gumbel())
        offset = v_ref - shannon([0.5, 0.5])
        for p in ([2.0 / 3.0, 1.0 / 3.0], [0.8, 0.2], [0.35, 0.65]):
            v, _ = duality.regularizer_value(p, Gumbel())
            assert abs(v - shannon(p) - offset) <= 1e-6

    def test_permutation_invariance(self):
        p = [0.55, 0.3, 0.15]
        v1, _ = duality.regularizer_value(p, SymmetricPareto(2.0))
        v2, _ = duality.regularizer_value(p[::-1], SymmetricPareto(2.0))
        assert abs(v1 - v2) <= 1e-8

    def test_uniform_point_is_negative_potential_at_zero(self):
        dist = LaplacePareto()
        v, nu = duality.regularizer_value([0.25] * 4, dist)
        np.testing.assert_allclose(nu, 0.0, atol=1e-7)
        assert v == pytest.approx(-duality.potential(np.zeros(4), dist), abs=1e-7)

    def test_legendre_consistency(self):
        # Phi(nu) + V(phi(nu)) = <phi(nu), nu> at solved probes
        rng = np.random.default_rng(77)
        for dist in (SymmetricPareto(2.0), Gumbel(), LaplacePareto()):
            nu0 = np.append(rng.uniform(-1.5, 1.5, size=2), 0.0)
            p = selection.phi_values(-nu0, dist, tol=1e-10)
            v, nu = duality.regularizer_value(p, dist)
            np.testing.assert_allclose(nu, nu0, atol=1e-6)
            gap = duality.potential(nu0, dist) + v - float(np.dot(p, nu0))
            assert abs(gap) <= 1e-7

    def test_support_and_domain_errors(self):
        with pytest.raises(SupportError):
            duality.regularizer_value([0.5, 0.5], GeneralizedPareto(2.0))
        with pytest.raises(DomainError):
            duality.regularizer_value([0.7, 0.4], Gumbel())
        # p itself is checked before any solve, not as the loss vector it would become
        for p in ([math.nan, 0.5], [1.0], [[0.5, 0.5]], 0.5, [0.5, math.inf, -math.inf]):
            with pytest.raises(DomainError, match="strictly interior simplex point"):
                duality.regularizer_value(p, Gumbel())

    def test_tail_without_a_mean_raises_before_the_solve(self, monkeypatch):
        # near this vertex phi(nu) = p cannot be solved to 1e-8 under splareto:a=0.6
        # (RootFindFailed, residual 2.6e-8, after 200 kernel calls); the potential
        # does not exist there either, and that is checked first
        monkeypatch.setattr(selection, "_phis", lambda *a, **kw: pytest.fail("the solve ran"))
        p = np.array([0.954809391, 3.71901559e-7, 0.0451902372])
        with pytest.raises(NonIntegrable, match="tail indices above 1"):
            duality.regularizer_value(p / math.fsum(p), parse_dist("splareto:a=0.6"))


def _residual(p, nu, dist):
    """max |phi(nu) - p|, phi from the kernel at tol 1e-10."""
    return float(np.max(np.abs(selection.phi_values(-np.asarray(nu), dist, tol=1e-10) - p)))


class TestPhiInverse:
    # TestRegularizer's cases and two larger K, where phi(nu) = p pins nu down well
    WELL_CONDITIONED = [
        ([2.0 / 3.0, 1.0 / 3.0], "gumbel"),
        ([0.5, 0.5], "gumbel"),
        ([0.8, 0.2], "gumbel"),
        ([0.35, 0.65], "gumbel"),
        ([0.55, 0.3, 0.15], "splareto:a=2"),
        ([0.15, 0.3, 0.55], "splareto:a=2"),
        ([0.25] * 4, "lp"),
        ([0.1, 0.15, 0.2, 0.25, 0.3], "lp"),
        ([0.3, 0.05, 0.1, 0.2, 0.15, 0.2], "splareto:a=3"),
    ]

    def test_newton_agrees_with_hybr(self):
        cases = [(np.array(p), parse_dist(spec)) for p, spec in self.WELL_CONDITIONED]
        rng = np.random.default_rng(77)  # test_legendre_consistency's probes
        for dist in (SymmetricPareto(2.0), Gumbel(), LaplacePareto()):
            nu0 = np.append(rng.uniform(-1.5, 1.5, size=2), 0.0)
            cases.append((selection.phi_values(-nu0, dist, tol=1e-10), dist))
        for p, dist in cases:
            value, nu = duality.regularizer_value(p, dist)
            want_value, want_nu = hybr_oracle.regularizer_value(p, dist)
            assert nu[-1] == 0.0
            assert np.max(np.abs(nu - want_nu)) <= 1e-12, (p, dist)
            assert abs(value - want_value) <= 1e-12, (p, dist)

    @pytest.mark.parametrize("p,spec", [
        # plain Newton (the last arm's reward held, h = 1e-6, no halving) meets a singular Jacobian on the first two
        ([1.0 - 1e-12, 5e-13, 5e-13], "splareto:a=2"),
        ([1.0 - 1e-12, 5e-13, 5e-13], "gumbel"),
        ([0.999999, 5e-7, 5e-7], "lp"),
        ([1e-6, 1.0 - 2e-6, 1e-6], "asp:2,3"),
        # arms 2 and 3 tie far more strongly than either does to arm 4: holding arm 4 stalls, hybr solves it
        ([1.68040515e-07, 9.97657583e-01, 2.34224520e-03, 3.26010534e-09], "splareto:a=2"),
    ])
    def test_near_a_vertex(self, p, spec):
        # the residual does not pin nu down here: only phi(nu) = p is checked
        dist, p = parse_dist(spec), np.array(p) / math.fsum(p)
        value, nu = duality.regularizer_value(p, dist)
        assert nu[-1] == 0.0 and math.isfinite(value)
        assert _residual(p, nu, dist) <= 1e-8

    @pytest.mark.parametrize("p,spec", [
        # holding arm 1, the most likely, leaves arms 2 and 3 row sums far below their tie to each other: it stalls
        ([0.98, 0.01, 0.01], "splareto:a=0.3"),
        # a difference step of 1e-6 max(1, |nu_j|), 1e-6 on the arm at 0, is lost in the kernel's error
        ([5.63318353e-05, 9.99943668e-01], "splareto:a=0.6"),
    ])
    def test_tail_without_a_mean_solves_and_then_fails_in_the_potential(self, p, spec):
        dist, p = parse_dist(spec), np.array(p) / math.fsum(p)
        assert _residual(p, duality._phi_inverse(p, dist), dist) <= 1e-8
        with pytest.raises(NonIntegrable):
            duality.regularizer_value(p, dist)

    @pytest.mark.parametrize("p,spec,most", [
        ([2.0 / 3.0, 1.0 / 3.0], "gumbel", 1),  # the start is the root: no line search
        ([0.25] * 4, "lp", 1),
        ([0.55, 0.3, 0.15], "splareto:a=2", 8),
        ([1.0 - 1e-12, 5e-13, 5e-13], "splareto:a=2", 40),
    ])
    def test_kernel_calls(self, monkeypatch, p, spec, most):
        # each iterate is one kernel call on K + 1 vectors
        calls = []
        kernel = selection._component_integrals

        def counted(dist, gaps, *args, **kwargs):
            calls.append(len(gaps))
            return kernel(dist, gaps, *args, **kwargs)

        monkeypatch.setattr(selection, "_component_integrals", counted)
        duality._phi_inverse(np.array(p), parse_dist(spec))
        assert 1 <= len(calls) <= most and set(calls) == {len(p) + 1}

    @pytest.mark.parametrize("u,p1,path", [
        # the step from the start d = log 9 lands far past the root, where the synthetic kernel fails at
        # |d| > 1000, and halving it still overshoots for a while: once it lowers the residual the start
        # converges without the second
        (lambda d: 10.0 * math.atan(d), 0.9,
         lambda seen: 0.0 not in seen and any(abs(d) > 1000.0 for d in seen)),
        # phi_1 is flat past |d| = 2, so at the start d = log 19 the Jacobian is 0: the start from 0 solves it
        (lambda d: 2.0 * min(max(d, -2.0), 2.0), 0.95, lambda seen: seen[0] > 2.0 and 0.0 in seen),
    ], ids=["halve", "restart"])
    def test_safeguards_on_a_synthetic_phi(self, monkeypatch, u, p1, path):
        # K = 2 with phi_1 = 1 / (1 + exp(-u(d))) at d = nu_1 - nu_2, an error estimate of 0, and a DomainError
        # past |d| = 1000
        seen = []

        def phi_1(d):
            return 1.0 / (1.0 + math.exp(-u(d)))

        def phis(lams, dist, tol, with_prime, arms=None):
            ds = [float(lam[1] - lam[0]) for lam in lams]
            seen.extend(ds)  # every vector handed over, as the real kernel checks a whole chunk first
            for lam, d in zip(lams, ds):
                if abs(d) > 1000.0:
                    raise DomainError("synthetic kernel: |d| > 1000")
                yield selection.SelectionProbe(lam=lam, lambda_gap=lam - lam.min(),
                                               phi=np.array([phi_1(d), 1.0 - phi_1(d)]), phi_prime=None,
                                               quad_error=0.0, n_evals=0, n_panels=0)

        monkeypatch.setattr(selection, "_phis", phis)
        nu = duality._phi_inverse(np.array([p1, 1.0 - p1]), SymmetricPareto(2.0))
        assert nu[-1] == 0.0 and abs(phi_1(nu[0]) - p1) <= 1e-8
        assert path(seen[::3])  # the iterates, without their difference steps

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["gumbel", "splareto:a=2", "lp", "asp:2,3"]),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4).filter(lambda u: sum(u) > 0.0))
    def test_solves_interior_points(self, spec, u):
        # p_i >= 1e-3, summing to 1 within rounding
        dist, u = parse_dist(spec), np.array(u)
        p = 1e-3 + (1.0 - 1e-3 * len(u)) * (u / u.sum())
        value, nu = duality.regularizer_value(p, dist)
        assert _residual(p, nu, dist) <= 1e-8
        # Fenchel-Young holds with equality at p = phi(nu), the potential taken here at a tighter tol
        assert abs(duality.potential(nu, dist, tol=1e-11) + value - float(np.dot(p, nu))) <= 1e-7


class TestTwoArmQuantile:
    def test_iid_median_is_zero(self):
        for dist in (SymmetricPareto(2.0), Gumbel(), LaplacePareto()):
            assert abs(duality.two_arm_quantile(0.5, dist)) <= 1e-9

    def test_gumbel_logistic_difference(self):
        # difference of two Gumbels is logistic: c(x) = log(x/(1-x))
        for x in (2.0 / 3.0, 0.25, 0.9):
            want = math.log(x / (1.0 - x))
            assert duality.two_arm_quantile(x, Gumbel()) == pytest.approx(want, abs=1e-8)

    def test_symmetric_pareto_tail_envelope(self):
        # two-sided bounds on the suboptimal-arm probability give
        # 1/2 <= (c+1) sqrt(1-x) <= 2 as x -> 1
        sp = SymmetricPareto(2.0)
        for x in (0.9, 0.99, 0.999, 0.9999):
            c = duality.two_arm_quantile(x, sp)
            scaled = (c + 1.0) * math.sqrt(1.0 - x)
            assert 0.5 <= scaled <= 2.0, (x, scaled)

    def test_bracket_failure_reports_a_probability_defect(self):
        # at tail index 0.3 the root lies near c = 1e20, past the bracket's
        # 1e9 cap; the residual is |phi_1 - x| there, not the bracket end
        with pytest.raises(RootFindFailed) as info:
            duality.two_arm_quantile(1.0 - 1e-6, SymmetricPareto(0.3))
        assert 0.0 < info.value.residual <= 1.0


class TestPhi1Inversion:
    THREE_ARM_XS = (1.0 / 3.0, 0.4, 0.95, math.nextafter(1.0 - 1e-4, 0.0))
    TWO_ARM_XS = (0.05, 0.3, 0.4, 0.95, 1.0 - 1e-4)

    @pytest.mark.parametrize("spec", ["splareto:a=2", "lp", "gumbel", "asp:2,3",
                                      "hybrid:right=trunc(frechet:2),left=gpd:3,1.5"])
    def test_newton_roots_agree_with_brentq(self, spec):
        # phi_1 is integrated to 1e-10, so a root is known to about 1e-10 / |phi_1'|;
        # x = 1/3 is c = 0, the (0, c, c) family's end, and below 1/2 the two-arm c is negative
        dist = parse_dist(spec)
        three = [row["c"] for row in duality.three_arm_regularizer_scan(self.THREE_ARM_XS, dist)]
        cases = [*zip(three, self.THREE_ARM_XS, [lambda c: [0.0, c, c]] * 4, [0.0] * 4),
                 *((duality.two_arm_quantile(x, dist), x, lambda c: [-c, 0.0], -4.0) for x in self.TWO_ARM_XS)]
        assert three[0] == 0.0
        for c, x, lam_of_c, lo in cases:
            want = brentq_oracle.phi_1_root(lam_of_c, x, dist, lo)
            (probe,) = selection._phis([lam_of_c(want)], dist, 1e-10, with_prime=True, arms=(0,))
            slope = probe.phi_prime[0]
            assert abs(c - want) <= 1e-10 / abs(slope), (x, c, want)

    @pytest.mark.parametrize("u,du,x,fallback", [
        # the first step overshoots the root to c1, and Newton from c1 leaves [0, c1]: bisect it
        (lambda c: c - 3.0, lambda c: 1.0, 0.6, lambda seen: seen[2] == 0.5 * seen[1]),
        # the slope at c = 0 is 0, and the bracket [0, inf) is open: step to 4
        (lambda c: c**3, lambda c: 3.0 * c * c, 0.9, lambda seen: seen[1] == 4.0),
    ], ids=["bisect", "double"])
    def test_safeguards_on_a_synthetic_phi_1(self, monkeypatch, u, du, x, fallback):
        # phi_1 = 1/2 + atan(u(c)) / pi, with the kernel's phi_1' = -dphi_1/dc and an error estimate of 1e-15
        seen = []

        def phi_1_at(lam_of_c, cs, dist):
            seen.extend(cs)
            return [(0.5 + math.atan(u(c)) / math.pi, -du(c) / (math.pi * (1.0 + u(c) ** 2)), 1e-15) for c in cs]

        monkeypatch.setattr(duality, "_phi_1_at", phi_1_at)
        (c,) = duality._phi_1_roots(lambda c: [0.0, c, c], [x], SymmetricPareto(2.0), 0.0)
        assert seen[0] == 0.0 and fallback(seen)
        assert abs(0.5 + math.atan(u(c)) / math.pi - x) <= 1e-15


class TestTsallisLaw:
    def test_quantile_values(self):
        assert duality.tsallis_quantile(0.5, 0.5) == 0.0
        assert duality.tsallis_quantile(0.25, 0.5) == pytest.approx(-(2.0 - 2.0 / math.sqrt(3.0)), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 0.99, 0.999])
    def test_quantile_relative_accuracy(self, beta):
        # near beta = 1 both powers lie near 1; 40-digit decimal reference
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            b = decimal.Decimal(beta)
            power = lambda x: ((b - 1) * x.ln()).exp()
            for p in np.linspace(0.01, 0.49, 49):
                d = decimal.Decimal(p)
                want = float(-b / (1 - b) * (power(d) - power(1 - d)))
                assert abs(duality.tsallis_quantile(p, beta) / want - 1.0) <= 1e-14, p

    def test_antisymmetry(self):
        ps = np.linspace(0.01, 0.99, 37)
        for beta in (0.3, 0.5, 0.7):
            c = duality.tsallis_quantile(ps, beta)
            np.testing.assert_allclose(c + c[::-1], 0.0, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            duality.tsallis_quantile(0.0, 0.5)
        with pytest.raises(DomainError):
            duality.tsallis_quantile(0.5, 1.0)

    def test_von_mises_limit(self):
        # z fbar(z) / (1 - Fbar(z)) at z = c(x) is c / ((1 - x) c'), from the
        # quantile alone; it tends to 1/(1 - beta) as x -> 1, a polynomial
        # tail of that index
        def ratio(x, beta):
            c_prime = beta * (x ** (beta - 2.0) + (1.0 - x) ** (beta - 2.0))
            return duality.tsallis_quantile(x, beta) / ((1.0 - x) * c_prime)

        assert ratio(1.0 - 1e-6, 0.5) == pytest.approx(2.0, abs=0.05)
        assert ratio(1.0 - 1e-7, 0.25) == pytest.approx(1.0 / 0.75, abs=0.05)

    def test_quantile_round_trip_inversion(self):
        # numeric inversion of the closed-form quantile reproduces it
        from scipy.optimize import brentq

        for x in np.linspace(0.1, 0.9, 9):
            c = duality.tsallis_quantile(x, 0.5)
            x_back = brentq(lambda p: duality.tsallis_quantile(p, 0.5) - c, 1e-9, 1 - 1e-9)
            assert abs(duality.tsallis_quantile(x_back, 0.5) - c) <= 1e-3


class TestCharFn:
    def test_at_zero(self):
        val = quadpack_oracle.char_fn(0.0, lambda p: duality.tsallis_quantile(p, 0.5))
        assert val == pytest.approx(1.0 - 2e-4, abs=1e-12)

    def test_real_positive_for_tsallis(self):
        for t in (0.3, 1.0, 2.5, 6.0):
            val = quadpack_oracle.char_fn(t, lambda p: duality.tsallis_quantile(p, 0.5))
            assert abs(val.imag) <= 1e-7
            assert val.real > 0.0

    def test_modulus_bound(self):
        for t in (0.5, 2.0, 11.0):
            val = quadpack_oracle.char_fn(t, lambda p: duality.tsallis_quantile(p, 0.5))
            assert abs(val) <= 1.0

    @pytest.mark.parametrize("n", [2, 16])
    def test_grid_matches_pointwise(self, n):
        # the Tsallis head's panels in s = p^(beta-1) from eps = 1e-4 against
        # QUADPACK in p, on the upper half of the IFT grid (n = 2 leaves one
        # frequency)
        ts = duality.ift_frequencies(-3.0, 3.0, n)[n // 2:]
        for beta in (0.3, 0.5, 0.8):
            q = functools.partial(duality.tsallis_quantile, beta=beta)
            c, w = duality._tsallis_nodes(beta, ts[-1], 1e4 ** (1.0 - beta))
            grid = duality.char_fn_grid(-3.0, 3.0, n, c, w)
            assert len(grid) == len(ts) == n // 2
            for t, g in zip(ts, grid):
                assert abs(g - quadpack_oracle.char_fn(t, q)) <= 1e-9, beta

    @pytest.mark.parametrize("n", [2, 16, 64, 512])
    @pytest.mark.parametrize(
        "nodes",
        [lambda t_max: duality._tsallis_nodes(0.5, t_max, duality._tail_start(0.5, -20.0, 20.0)),
         duality._normal_nodes],
        ids=["tsallis", "normal"],
    )
    def test_blocked_product_matches_recursion(self, nodes, n):
        # n = 2 and 16 leave one partial block of frequencies, 512 several
        # blocks and (Tsallis) a last chunk of nodes shorter than the rest
        c, w = nodes(duality.ift_frequencies(-20.0, 20.0, n)[-1])
        grid = duality.char_fn_grid(-20.0, 20.0, n, c, w)
        oracle = recursion_oracle.char_fn_grid(-20.0, 20.0, n, c, w)
        assert len(grid) == n // 2
        assert np.max(np.abs(grid - oracle)) <= 1e-14

    def test_normal_gbar_is_exact(self):
        # gbar of N(0, 1) is exp(-t^2 / 2); the nodes stop at c = -8.3
        ts = duality.ift_frequencies(-20.0, 20.0, 2048)[1024:]
        grid = duality.char_fn_grid(-20.0, 20.0, 2048, *duality._normal_nodes(ts[-1]))
        assert np.max(np.abs(grid - np.exp(-0.5 * ts**2))) <= 1e-14

    @pytest.mark.parametrize("log2n", range(1, 21))
    def test_ift_grids_count_as_arithmetic(self, log2n):
        # char_fn_grid advances the upper half by its first step, and
        # ift_density fills the lower half by mirroring it; each frequency
        # is rounded on its own, so the steps drift by up to 4 n eps max|t|
        n = 2**log2n
        ts = duality.ift_frequencies(-20.0, 20.0, n)
        upper = ts[n // 2:]
        assert np.array_equal(ts[: n // 2], -upper[::-1])
        step = upper[1] - upper[0] if len(upper) > 1 else 0.0
        tol = 4 * n * np.finfo(float).eps * np.max(np.abs(upper))
        assert np.all(np.abs(upper - (upper[0] + step * np.arange(n // 2))) <= tol)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            quadpack_oracle.char_fn(1.0, lambda p: p, eps=0.01)

    @pytest.mark.parametrize("x_max", [20.0, 200.0])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_tsallis_gbar_exact_to_rounding(self, beta, x_max):
        # the exact tail makes the split point a matter of cost only, and
        # gbar = |phi_r|^2 >= 0 (truncating the tail left values near -2e-7)
        start = duality._tail_start(beta, -x_max, x_max)
        near = duality._tsallis_gbar(beta, -x_max, x_max, 2048, start)
        far = duality._tsallis_gbar(beta, -x_max, x_max, 2048, 4.0 * start)
        assert np.max(np.abs(near - far)) <= 1e-12
        assert near.min() >= -1e-14

    @pytest.mark.parametrize(
        "beta,x_max,n", [(0.1, 2000.0, 16), (0.5, 2000.0, 16), (0.8, 2000.0, 16), (1e-5, 20.0, 2048)]
    )
    def test_tsallis_gbar_exact_at_low_phase_rate(self, beta, x_max, n):
        # a low t_max coef (n = 16 on x in [-2000, 2000], or beta = 1e-5) makes
        # 6-radian panels wide in s; equal panels from s0 put the first one so
        # near c's branch point at s = 1 that gbar missed by up to 0.4
        start = duality._tail_start(beta, -x_max, x_max)
        near = duality._tsallis_gbar(beta, -x_max, x_max, n, start)
        far = duality._tsallis_gbar(beta, -x_max, x_max, n, 4.0 * start)
        assert np.max(np.abs(near - far)) <= 1e-12

    def test_tail_log_is_accurate(self):
        # log(1 - e) over the tail's range |e| <= S^-a <= 1/32, every phase, against
        # -sum_{k <= 12} e^k / k (truncated below 1e-19 relative there), by Horner
        rng = np.random.default_rng(29)
        e = 10.0 ** rng.uniform(-9.0, math.log10(1.0 / 32.0), 20_000)
        e = e * np.exp(1j * np.concatenate([rng.uniform(-math.pi, math.pi, 19_992),
                                             np.arange(-3, 5) * (math.pi / 4.0)]))
        ref = np.zeros_like(e)
        for k in range(12, 0, -1):
            ref = e * (1.0 / k + ref)
        ref = -ref
        assert np.all(np.abs(duality._log1m(e) - ref) <= 1e-15 * np.abs(ref))

    @pytest.mark.parametrize("rule,build", [
        (duality._gauss_legendre, lambda: np.polynomial.legendre.leggauss(24)),
        (duality._gauss_laguerre, lambda: np.polynomial.laguerre.laggauss(40)),
    ], ids=["legendre", "laguerre"])
    def test_gauss_rules_are_built_once_and_read_only(self, rule, build):
        assert rule() is rule()
        for cached, fresh in zip(rule(), build()):
            assert np.array_equal(cached, fresh)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0


@pytest.fixture(scope="module")
def tsallis_ift():
    """The 1/2-Tsallis IFT pipeline at its defaults, computed once for the module."""
    return duality.tsallis_ift_pipeline()


class TestIft:
    def test_grid_errors(self):
        with pytest.raises(GridError):
            duality.ift_density(np.zeros(100), -20.0, 20.0, 100)
        with pytest.raises(GridError):
            duality.ift_density(np.zeros(128), -20.0, 20.0, 128)  # gbar covers the upper half only

    @pytest.mark.parametrize("n,x_max", [(0, 20.0), (-4, 20.0), (1, 20.0), (3000, 20.0), (2048, -20.0)])
    def test_pipeline_checks_grid_before_quadrature(self, monkeypatch, n, x_max):
        monkeypatch.setattr(duality, "char_fn_grid", lambda *a, **kw: pytest.fail("quadrature ran"))
        with pytest.raises(GridError):
            duality.tsallis_ift_pipeline(n=n, x_max=x_max)

    @pytest.mark.parametrize(
        "pipeline", [duality.tsallis_ift_pipeline, duality.normal_ift_pipeline], ids=["tsallis", "normal"]
    )
    def test_symmetric_law_gives_even_density(self, pipeline):
        # x_k = -x_{n-k} on the grid, and both laws are symmetric
        pdf = pipeline().pdf
        assert np.max(np.abs(pdf[1:] - pdf[:0:-1])) <= 1e-12

    def test_normal_sanity(self):
        res = duality.normal_ift_pipeline()
        ref = np.exp(-res.x_grid**2) / math.sqrt(math.pi)
        assert np.max(np.abs(res.pdf - ref)) <= 1e-3

    def test_tsallis_half_pipeline_bands(self, tsallis_ift):
        res = tsallis_ift
        assert 0.98 <= res.cdf[-1] <= 1.02
        assert np.max(np.abs(res.imag_residual)) <= 1e-10

    def test_tsallis_closer_to_symmetric_pareto_than_laplace(self, tsallis_ift):
        res = tsallis_ift
        mask = np.abs(res.x_grid) <= 5.0
        sp = np.asarray(SymmetricPareto(2.0).pdf(res.x_grid[mask]))
        lap = 0.5 * np.exp(-np.abs(res.x_grid[mask]))
        l1_sp = float(np.sum(np.abs(res.pdf[mask] - sp)) * res.dx)
        l1_lap = float(np.sum(np.abs(res.pdf[mask] - lap)) * res.dx)
        assert l1_sp < l1_lap


class TestThreeArmScan:
    def test_iid_point(self):
        # phi_1(0, 0, 0) rounds to 1/3 + 5.6e-17 for lp, asp:2,3 and laplace,
        # so there the bracket's fixed end c = 0 is already the root
        for spec in ("splareto:a=2", "lp", "asp:2,3", "laplace"):
            rows = duality.three_arm_regularizer_scan([1.0 / 3.0], parse_dist(spec))
            assert abs(rows[0]["c"]) <= 1e-9, spec

    def test_envelope_examples(self):
        rows = duality.three_arm_regularizer_scan([0.99], SymmetricPareto(2.0))
        r = rows[0]
        assert r["lower"] == pytest.approx(4.0, abs=1e-9)
        assert r["upper"] == pytest.approx(2 * math.sqrt(2.0) / 0.1 - 1.0, abs=1e-9)
        assert r["lower"] <= r["c"] <= r["upper"]

    def test_ratio_to_tsallis_reference_bounded(self):
        xs = np.linspace(0.5, 0.995, 12)
        rows = duality.three_arm_regularizer_scan(xs, SymmetricPareto(2.0))
        ratios = [r["c"] / (math.sqrt(2.0) / math.sqrt(1.0 - r["x"])) for r in rows]
        assert 0.1 <= min(ratios) and max(ratios) <= 2.5

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            duality.three_arm_regularizer_scan([0.2], SymmetricPareto(2.0))
        with pytest.raises(SupportError):
            duality.three_arm_regularizer_scan([0.5], Frechet(2.0))
